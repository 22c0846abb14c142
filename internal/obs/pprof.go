package obs

import (
	"context"
	"runtime/pprof"
)

// PhaseLabel tags the calling goroutine (and everything it spawns from
// here on) with a pprof "phase" label so CPU profiles attribute samples
// to chunk/hash/shuffle/put/barrier. Pair with ClearPhaseLabel.
//
// pprof labels are carried on a context, but the label set here is
// process-observability state, not a cancellation scope — a root context
// is the documented carrier, so this is a sanctioned Background() site.
func PhaseLabel(phase string) {
	pprof.SetGoroutineLabels(pprof.WithLabels(context.Background(), pprof.Labels("phase", phase)))
}

// ClearPhaseLabel removes the calling goroutine's pprof labels.
func ClearPhaseLabel() {
	pprof.SetGoroutineLabels(context.Background())
}
