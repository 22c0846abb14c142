package collectives

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"dedupcr/internal/obs"
)

// Typed failure taxonomy of the collective runtime. A collective job can
// fail in two shapes:
//
//   - a peer rank dies (process crash, connection loss, injected kill):
//     survivors observe ErrRankFailed with the dead ranks listed;
//   - the job is aborted (context cancellation, a rank hitting a local
//     error mid-collective, an explicit Abort): every rank observes
//     ErrAborted.
//
// Both surface as a *CollectiveError, which satisfies errors.Is for the
// matching sentinels and unwraps to the root cause.
var (
	// ErrRankFailed marks errors caused by the failure of one or more
	// peer ranks during a collective operation.
	ErrRankFailed = errors.New("collectives: peer rank failed")
	// ErrAborted marks errors caused by the collective abort protocol:
	// the group gave up on the current operation, on every rank.
	ErrAborted = errors.New("collectives: collective aborted")
)

// CollectiveError is the typed failure every surviving rank of an aborted
// collective returns: which ranks failed (empty when the abort had no
// specific dead rank, e.g. a context deadline), the pipeline phase the
// local rank was in when the failure surfaced (empty outside the dump/
// restore pipeline), and the root cause.
//
// errors.Is(err, ErrAborted) holds for every CollectiveError;
// errors.Is(err, ErrRankFailed) holds when Ranks is non-empty; the Cause
// chain is reachable through errors.As/Is as usual (so a context
// cancellation still matches context.Canceled).
type CollectiveError struct {
	// Ranks lists the failed ranks, ascending, deduplicated. Empty when
	// the abort was not attributed to specific ranks.
	Ranks []int
	// Phase names the dump/restore pipeline phase the local rank was
	// executing when the failure surfaced (e.g. "reduction", "put",
	// "commit"); empty outside the pipeline.
	Phase string
	// Cause is the root cause: the transport error, the injected fault,
	// or the context's cancellation cause.
	Cause error
}

// Error implements error.
func (e *CollectiveError) Error() string {
	var b strings.Builder
	b.WriteString("collective aborted")
	if len(e.Ranks) > 0 {
		fmt.Fprintf(&b, " (failed ranks %v)", e.Ranks)
	}
	if e.Phase != "" {
		fmt.Fprintf(&b, " in phase %q", e.Phase)
	}
	if e.Cause != nil {
		b.WriteString(": ")
		b.WriteString(e.Cause.Error())
	}
	return b.String()
}

// Unwrap exposes the root cause to errors.Is/As.
func (e *CollectiveError) Unwrap() error { return e.Cause }

// Is matches the package sentinels: every CollectiveError is ErrAborted,
// and one with failed ranks is also ErrRankFailed.
func (e *CollectiveError) Is(target error) bool {
	switch target {
	case ErrAborted:
		return true
	case ErrRankFailed:
		return len(e.Ranks) > 0
	}
	return false
}

// FailedRanks extracts the failed-rank list from an error chain, or nil.
func FailedRanks(err error) []int {
	var ce *CollectiveError
	if errors.As(err, &ce) {
		return append([]int(nil), ce.Ranks...)
	}
	return nil
}

// normRanks sorts and deduplicates a rank list.
func normRanks(ranks []int) []int {
	if len(ranks) == 0 {
		return nil
	}
	out := append([]int(nil), ranks...)
	sort.Ints(out)
	w := 1
	for i := 1; i < len(out); i++ {
		if out[i] != out[w-1] {
			out[w] = out[i]
			w++
		}
	}
	return out[:w]
}

// --- abort/failure wire message -------------------------------------------

// tagAbort is the reserved frame tag of the failure-dissemination protocol
// on the TCP transport. It sits at the very top of the tag space, above
// every collective, window and wildcard tag the runtime hands out.
const tagAbort Tag = ^Tag(0)

// abortMsgVersion tags the abort-notification layout so decoding fails
// loudly on mismatched runtimes.
const abortMsgVersion = 1

// maxAbortCause bounds the cause string carried by an abort message; a
// longer cause is truncated on encode and rejected on decode.
const maxAbortCause = 4096

// encodeAbortMsg serializes a failure notification:
//
//	u8 version | u16 nRanks | u32 rank... | cause (UTF-8, rest of payload)
func encodeAbortMsg(ranks []int, cause string) []byte {
	ranks = normRanks(ranks)
	if len(ranks) > 0xFFFF {
		ranks = ranks[:0xFFFF]
	}
	if len(cause) > maxAbortCause {
		cause = cause[:maxAbortCause]
	}
	buf := make([]byte, 0, 3+4*len(ranks)+len(cause))
	buf = append(buf, abortMsgVersion)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(ranks)))
	for _, r := range ranks {
		buf = binary.BigEndian.AppendUint32(buf, uint32(r))
	}
	return append(buf, cause...)
}

// decodeAbortMsg reverses encodeAbortMsg. The payload is peer-controlled
// input, so every field is bounds-checked.
func decodeAbortMsg(data []byte) (ranks []int, cause string, err error) {
	if len(data) < 3 {
		return nil, "", fmt.Errorf("collectives: abort message truncated (%d bytes)", len(data))
	}
	if data[0] != abortMsgVersion {
		return nil, "", fmt.Errorf("collectives: abort message version %d, want %d", data[0], abortMsgVersion)
	}
	n := int(binary.BigEndian.Uint16(data[1:3]))
	data = data[3:]
	if len(data) < 4*n {
		return nil, "", fmt.Errorf("collectives: abort message lists %d ranks in %d bytes", n, len(data))
	}
	if n > 0 {
		ranks = make([]int, n)
		for i := range ranks {
			ranks[i] = int(binary.BigEndian.Uint32(data[4*i:]))
		}
	}
	data = data[4*n:]
	if len(data) > maxAbortCause {
		return nil, "", fmt.Errorf("collectives: abort cause of %d bytes exceeds limit %d", len(data), maxAbortCause)
	}
	return normRanks(ranks), string(data), nil
}

// --- abort / kill / context plumbing --------------------------------------

// aborter is implemented by transports that support the collective abort
// protocol: fail every local pending and future operation with e, and
// disseminate the failure to peers (best effort, never blocking the
// caller on slow peers).
type aborter interface {
	abortComm(e *CollectiveError)
}

// killer is implemented by transports that can simulate the crash of the
// local rank: local operations fail with e, nothing is disseminated —
// peers must detect the death through the transport (connection loss on
// TCP, per-peer failure marks in process).
type killer interface {
	killComm(e *CollectiveError)
}

// phaseNoter receives pipeline phase transitions; the fault-injection
// wrapper uses them to gate phase-scoped faults.
type phaseNoter interface {
	EnterPhase(phase string)
}

// commWrapper is implemented by communicators that decorate another one
// (e.g. the fault-injection wrapper); Base returns the wrapped Comm.
type commWrapper interface {
	Base() Comm
}

// unwrapComm peels decorating wrappers down to the transport.
func unwrapComm(c Comm) Comm {
	for {
		w, ok := c.(commWrapper)
		if !ok {
			return c
		}
		c = w.Base()
	}
}

// Abort aborts the collective group from this rank's side: every pending
// and future operation of the local communicator fails with a
// *CollectiveError, and the failure is disseminated to the peers (best
// effort, in the background) so their next collective step surfaces it
// too instead of deadlocking. Aborting an already-aborted or closed
// communicator is a no-op; transports without abort support ignore it.
//
// If cause already carries a *CollectiveError (the cascade case: this
// rank is aborting because it observed a peer failure) its rank
// attribution is preserved; otherwise the abort is attributed to the
// local rank, which is giving up from its peers' point of view.
func Abort(c Comm, cause error) {
	if c == nil {
		return
	}
	var ce *CollectiveError
	if !errors.As(cause, &ce) {
		ce = &CollectiveError{Ranks: []int{c.Rank()}, Cause: cause}
	}
	if a, ok := unwrapComm(c).(aborter); ok {
		a.abortComm(ce)
	}
}

// Kill simulates the crash of the local rank: local operations fail
// immediately, no notification is sent, and peers detect the death the
// way they would a real one (connection loss on TCP, failure marks in
// process). Used by the fault-injection layer; transports without kill
// support ignore it. It returns the CollectiveError local operations now
// fail with, or nil for a nil c.
func Kill(c Comm, cause error) error {
	if c == nil {
		return nil
	}
	ce := &CollectiveError{Ranks: []int{c.Rank()}, Cause: cause}
	if k, ok := unwrapComm(c).(killer); ok {
		k.killComm(ce)
	}
	return ce
}

// NotePhase informs the communicator (when it cares — currently the
// fault-injection wrapper) that the caller entered the named pipeline
// phase, and records the transition in the flight recorder. The
// dump/restore pipeline calls it at every phase boundary.
func NotePhase(c Comm, phase string) {
	obs.Logf(obs.KindPhase, c.Rank(), phase, 0, "")
	// Tag the pipeline goroutine (and the workers it spawns) so CPU
	// profiles attribute samples phase by phase; the label is replaced at
	// the next boundary and cleared when the pipeline finishes.
	obs.PhaseLabel(phase)
	if pn, ok := c.(phaseNoter); ok {
		pn.EnterPhase(phase)
	}
}

// WatchContext aborts the communicator when ctx is cancelled, so every
// rank blocked in a collective unblocks promptly with a typed error. A
// context that is already cancelled aborts before WatchContext returns,
// so the caller's next collective step fails instead of racing the
// watcher. The returned stop function releases the watcher (idempotent);
// callers must invoke it when the watched operation completes.
func WatchContext(ctx context.Context, c Comm) (stop func()) {
	if ctx == nil || ctx.Done() == nil {
		return func() {}
	}
	if ctx.Err() != nil {
		Abort(c, context.Cause(ctx))
		return func() {}
	}
	done := make(chan struct{})
	var stopped atomic.Bool
	go func() {
		select {
		case <-ctx.Done():
			// A cancellation racing the stop call must not poison the
			// communicator after the watched operation already completed.
			if !stopped.Load() {
				Abort(c, context.Cause(ctx))
			}
		case <-done:
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			stopped.Store(true)
			close(done)
		})
	}
}
