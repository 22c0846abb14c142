// Package obs is the tree's one event recorder: a bounded, lock-free ring
// of structured events. The process-wide default ring is the always-on
// flight recorder every layer of the pipeline records into
// unconditionally; it is the black box the post-mortem bundle (bundle.go)
// snapshots when a collective fails, a rank is killed, or crash recovery
// discards uncommitted state. A trace is another ring, sized by its owner
// and written through per-rank track handles (trace.go): spans, instants
// and wire-flow anchors, viewed as a Chrome trace or a wall-time coverage
// figure.
//
// The recorder is deliberately tiny: one atomic sequence counter and a
// power-of-two slice of atomic event pointers. Writers never block and
// never contend on a lock; when the ring wraps, the oldest events are
// overwritten and counted as dropped (exposed as
// dedupcr_obs_dropped_total and, for traces, dedupcr_trace_dropped_total).
// Readers snapshot the committed window without stopping writers.
package obs

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// Event kinds. Every event names its origin layer so a bundle timeline
// reads as a cross-layer narrative.
const (
	KindPhase     = "phase"      // pipeline phase transition (NotePhase)
	KindColl      = "coll"       // collective operation completed
	KindAbort     = "abort"      // abort noted (local failure or gossip receipt)
	KindKill      = "kill"       // comm killed (fault injection or fatal error)
	KindFault     = "fault"      // injected fault fired
	KindRollback  = "rollback"   // dump rolled back after failure
	KindSeal      = "seal"       // segment sealed
	KindCommit    = "commit"     // manifest checkpoint committed
	KindCompact   = "compact"    // segment compaction pass
	KindRecover   = "recover"    // crash recovery pass over the store
	KindStraggler = "straggler"  // rank flagged as straggler by telemetry
	KindLog       = "log"        // progress or diagnostic line (Printf)
	KindError     = "error"      // failure taxonomy record
	KindSpan      = "span"       // trace span, or instant when Dur is 0 (Track)
	KindFlowStart = "flow-start" // sending side of a traced wire frame
	KindFlowEnd   = "flow-end"   // receiving side of a traced wire frame
)

// Event is one recorder entry. Field order is the JSONL column order in
// post-mortem bundles; keep it stable. Trace events (see Track) start at
// TNs, name their span in Msg and place it on track (Pid, Rank).
type Event struct {
	Seq   uint64 `json:"seq"`
	TNs   int64  `json:"t_ns"`
	Kind  string `json:"kind"`
	Rank  int    `json:"rank"`
	Phase string `json:"phase,omitempty"`
	Round int64  `json:"round,omitempty"`
	Msg   string `json:"msg,omitempty"`
	// Dur is a span's duration; 0 marks an instant.
	Dur time.Duration `json:"dur_ns,omitempty"`
	// Pid is the trace track group (one per scenario or process).
	Pid int `json:"pid,omitempty"`
	// Flow links a KindFlowStart event to the KindFlowEnd event with the
	// same id on another track: a wire frame's send and receive.
	Flow uint64 `json:"flow,omitempty"`
	// Args annotate a trace event in the viewer.
	Args map[string]string `json:"args,omitempty"`
}

// Start is the event's time relative to the recorder origin.
func (e Event) Start() time.Duration { return time.Duration(e.TNs) }

// End is the end of a span (Start for instants).
func (e Event) End() time.Duration { return e.Start() + e.Dur }

// DefaultRingSize is the capacity of the process-wide default recorder.
// Events are low-rate (phase transitions, collectives, failures), so 4096
// covers minutes of history for a busy dump group.
const DefaultRingSize = 4096

// Recorder is a bounded lock-free ring of events. The zero value is not
// usable; construct with New or NewWithClock. A nil *Recorder is safe to
// record into (the event is discarded).
type Recorder struct {
	clock func() time.Duration
	start time.Time
	seq   atomic.Uint64
	mask  uint64
	slots []atomic.Pointer[Event]

	// Trace track names, for the Chrome view (trace.go).
	mu       sync.Mutex
	pidNames map[int]string     // guarded by mu
	threads  map[TrackID]string // guarded by mu
	nextPid  int                // guarded by mu
}

// New returns a recorder holding the last `size` events (rounded up to a
// power of two, minimum 2). Timestamps are nanoseconds since the recorder
// was created.
func New(size int) *Recorder {
	r := newRing(size)
	r.start = time.Now()
	r.clock = func() time.Duration { return time.Since(r.start) }
	return r
}

// NewWithClock is New with an injectable clock, for deterministic tests
// (byte-identical bundle JSONL requires a fixed clock).
func NewWithClock(size int, clock func() time.Duration) *Recorder {
	r := newRing(size)
	r.clock = clock
	return r
}

func newRing(size int) *Recorder {
	n := 2
	for n < size {
		n <<= 1
	}
	return &Recorder{
		mask:     uint64(n - 1),
		slots:    make([]atomic.Pointer[Event], n),
		pidNames: make(map[int]string),
		threads:  make(map[TrackID]string),
	}
}

// Record stamps e with the next sequence number and the recorder clock and
// stores it in the ring, overwriting the oldest event when full. Safe for
// concurrent use; never blocks.
func (r *Recorder) Record(e Event) {
	if r == nil {
		return
	}
	e.TNs = int64(r.clock())
	r.put(e)
}

// put stores e, already timestamped, under the next sequence number.
func (r *Recorder) put(e Event) {
	s := r.seq.Add(1)
	e.Seq = s
	r.slots[(s-1)&r.mask].Store(&e)
}

// Total returns the number of events ever recorded.
func (r *Recorder) Total() uint64 {
	if r == nil {
		return 0
	}
	return r.seq.Load()
}

// Dropped returns how many events have been overwritten by ring wrap.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	total := r.seq.Load()
	size := uint64(len(r.slots))
	if total <= size {
		return 0
	}
	return total - size
}

// Events snapshots the committed window, oldest first. Slots still being
// written by a concurrent Record (or already overwritten by a wrap that
// raced the snapshot) are skipped, so the result is always a consistent
// sub-sequence ordered by Seq.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	total := r.seq.Load()
	if total == 0 {
		return nil
	}
	size := uint64(len(r.slots))
	lo := uint64(1)
	if total > size {
		lo = total - size + 1
	}
	out := make([]Event, 0, total-lo+1)
	for s := lo; s <= total; s++ {
		p := r.slots[(s-1)&r.mask].Load()
		if p != nil && p.Seq == s {
			out = append(out, *p)
		}
	}
	return out
}

// Tail returns the newest n events, oldest first.
func (r *Recorder) Tail(n int) []Event {
	evs := r.Events()
	if n >= 0 && len(evs) > n {
		evs = evs[len(evs)-n:]
	}
	return evs
}

// defRec is the process-wide default recorder everything records into.
var defRec atomic.Pointer[Recorder]

func init() {
	defRec.Store(New(DefaultRingSize))
}

// Default returns the process-wide recorder.
func Default() *Recorder { return defRec.Load() }

// SetDefault swaps the process-wide recorder and returns the previous one
// (tests swap in a fixed-clock ring and restore the original after).
func SetDefault(r *Recorder) *Recorder {
	if r == nil {
		r = New(DefaultRingSize)
	}
	return defRec.Swap(r)
}

// Logf records a formatted event into the default recorder. It is the
// one-liner the rest of the tree calls; rank < 0 means "rank unknown".
func Logf(kind string, rank int, phase string, round int64, format string, args ...any) {
	msg := format
	if len(args) > 0 {
		msg = fmt.Sprintf(format, args...)
	}
	Default().Record(Event{Kind: kind, Rank: rank, Phase: phase, Round: round, Msg: msg})
}

// Printf is the tree's log call: it records the line into the default
// recorder as a KindLog event of no particular rank and prints it to
// stderr.
func Printf(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	Default().Record(Event{Kind: KindLog, Rank: -1, Msg: msg})
	fmt.Fprintln(os.Stderr, msg)
}
