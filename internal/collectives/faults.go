package collectives

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"dedupcr/internal/obs"
)

// Fault injection for the communication plane, the counterpart of
// storage.Cluster's node-failure injection: wrap a rank's communicator
// with InjectFaults and the plan's faults fire deterministically (given a
// seed and a serial schedule) at a chosen pipeline phase — killing the
// rank, dropping or delaying its messages, or failing sends with an
// error.

// ErrInjected is the root cause of every failure produced by the fault
// injector; tests match it with errors.Is to tell injected faults from
// real ones.
var ErrInjected = errors.New("collectives: injected fault")

// FaultKind selects what a matched fault does.
type FaultKind int

const (
	// FaultKill simulates the crash of the rank at the trigger point:
	// every local operation fails from then on and peers detect the
	// death through the transport (see Kill).
	FaultKill FaultKind = iota + 1
	// FaultDrop silently discards the matched sends: the sender believes
	// they succeeded, the receiver never sees them — message loss the
	// way a network loses it.
	FaultDrop
	// FaultDelay sleeps for Delay before the matched operation proceeds,
	// simulating stragglers and slow links.
	FaultDelay
	// FaultError fails the matched sends with an error without
	// transmitting anything; the failed send fails the operation that
	// made it (a dump aborts and rolls back).
	FaultError
)

// String implements fmt.Stringer.
func (k FaultKind) String() string {
	switch k {
	case FaultKill:
		return "kill"
	case FaultDrop:
		return "drop"
	case FaultDelay:
		return "delay"
	case FaultError:
		return "error"
	default:
		return fmt.Sprintf("FaultKind(%d)", int(k))
	}
}

// Fault is one injected failure. A fault matches an operation when every
// set filter agrees; the first matching fault of the plan fires.
type Fault struct {
	// Kind selects the effect; required.
	Kind FaultKind
	// Rank restricts the fault to this rank's communicator; AnyRank (-1)
	// matches every rank. Plans are typically built once and shared by
	// all ranks of a test, so the filter keeps one plan expressive.
	Rank int
	// Phase restricts the fault to one dump/restore pipeline phase (the
	// names of metrics.PhaseNames, e.g. "reduction", "put", "commit"),
	// as reported through NotePhase. Empty matches every phase.
	Phase string
	// Peer restricts Drop/Delay/Error faults to operations with this
	// peer rank; AnyRank (-1) matches any peer. (The zero value matches
	// only rank 0 — set AnyRank explicitly for unfiltered faults.)
	Peer int
	// Prob fires the fault on each matched operation with this
	// probability, drawn from the plan's seeded generator; 0 and 1 both
	// mean "always" (the zero value stays useful).
	Prob float64
	// After skips the first After matched operations before firing.
	After int
	// Times bounds how often the fault fires; 0 means no bound.
	Times int
	// Delay is the sleep of FaultDelay.
	Delay time.Duration
}

// FaultPlan is a deterministic failure schedule: the same plan, seed and
// (serial) operation order produce the same faults. Probabilistic faults
// on concurrent send paths (Parallelism > 1) remain reproducible only in
// distribution, since the interleaving picks the draws.
type FaultPlan struct {
	Seed   int64
	Faults []Fault
}

// FaultyComm decorates a communicator with a FaultPlan. It forwards
// everything to the base transport — including the internal statistics
// and abort hooks, so metrics and the abort protocol work unchanged —
// and applies matching faults on the way.
type FaultyComm struct {
	base Comm
	plan FaultPlan

	mu      sync.Mutex
	rng     *rand.Rand // guarded by mu
	phase   string     // guarded by mu
	matched []int      // per-fault count of matched operations (drives After); guarded by mu
	fired   []int      // per-fault count of fired operations (drives Times); guarded by mu
}

var _ Comm = (*FaultyComm)(nil)

// InjectFaults wraps c with the plan. Each rank wraps its own endpoint;
// faults whose Rank filter names another rank never fire here.
func InjectFaults(c Comm, plan FaultPlan) *FaultyComm {
	return &FaultyComm{
		base:    c,
		plan:    plan,
		rng:     rand.New(rand.NewSource(plan.Seed ^ int64(c.Rank())<<32)),
		matched: make([]int, len(plan.Faults)),
		fired:   make([]int, len(plan.Faults)),
	}
}

// Base returns the wrapped communicator (commWrapper, for Abort/Kill).
func (f *FaultyComm) Base() Comm { return f.base }

// EnterPhase records the pipeline phase for phase-scoped faults.
func (f *FaultyComm) EnterPhase(phase string) {
	f.mu.Lock()
	f.phase = phase
	f.mu.Unlock()
}

// opClass distinguishes sends from receives for fault matching.
type opClass int

const (
	opSend opClass = iota
	opRecv
)

// match returns the first fault firing on this operation, or nil, and the
// phase it matched in: apply logs and reports the fault under that phase,
// not under one the pipeline entered since.
func (f *FaultyComm) match(op opClass, peer int) (*Fault, string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for i := range f.plan.Faults {
		ft := &f.plan.Faults[i]
		switch ft.Kind {
		case FaultDrop, FaultError:
			if op != opSend {
				continue
			}
		case FaultKill, FaultDelay:
			// fire on any operation
		default:
			continue
		}
		if ft.Rank != AnyRank && ft.Rank != f.base.Rank() {
			continue
		}
		if ft.Phase != "" && ft.Phase != f.phase {
			continue
		}
		if op == opSend && ft.Peer != AnyRank && ft.Peer != peer {
			continue
		}
		if ft.Times > 0 && f.fired[i] >= ft.Times {
			continue
		}
		f.matched[i]++
		if f.matched[i] <= ft.After {
			continue
		}
		if ft.Prob > 0 && ft.Prob < 1 && f.rng.Float64() >= ft.Prob {
			continue
		}
		f.fired[i]++
		return ft, f.phase
	}
	return nil, f.phase
}

// apply runs a fault matched in phase. It returns (err, done): done means
// the operation must not reach the base transport.
func (f *FaultyComm) apply(ft *Fault, phase string, peer int) (error, bool) {
	if ft == nil {
		return nil, false
	}
	obs.Logf(obs.KindFault, f.base.Rank(), phase, 0, "injected %s (peer %d)", ft.Kind, peer)
	switch ft.Kind {
	case FaultKill:
		// Trigger the post-mortem bundle here rather than leaving it to
		// killComm: the injection layer knows the pipeline phase the
		// victim was in, which the transport-level kill no longer sees.
		obs.Trigger(obs.Failure{
			Kind: "kill", Rank: f.base.Rank(), Ranks: []int{f.base.Rank()},
			Phase: phase,
			Cause: fmt.Sprintf("injected kill of rank %d (peer %d)", f.base.Rank(), peer),
		})
		// The operation the kill fires on fails with the kill's
		// CollectiveError and never reaches the base transport: a message
		// already queued for a receive stays undelivered, as it would for
		// a crashed process.
		return Kill(f.base, fmt.Errorf("%w: rank %d killed", ErrInjected, f.base.Rank())), true
	case FaultDrop:
		return nil, true // swallowed: sender sees success
	case FaultError:
		return fmt.Errorf("%w: send to rank %d failed", ErrInjected, peer), true
	case FaultDelay:
		time.Sleep(ft.Delay)
	}
	return nil, false
}

// Rank implements Comm.
func (f *FaultyComm) Rank() int { return f.base.Rank() }

// Size implements Comm.
func (f *FaultyComm) Size() int { return f.base.Size() }

// NextSeq implements Comm.
func (f *FaultyComm) NextSeq() uint32 { return f.base.NextSeq() }

// Stats implements Comm.
func (f *FaultyComm) Stats() Stats { return f.base.Stats() }

// Close implements Comm.
func (f *FaultyComm) Close() error { return f.base.Close() }

// Send implements Comm, applying matching send faults first.
func (f *FaultyComm) Send(to int, tag Tag, data []byte) error {
	ft, phase := f.match(opSend, to)
	if err, done := f.apply(ft, phase, to); done {
		return err
	}
	return f.base.Send(to, tag, data)
}

// Recv implements Comm, applying matching receive faults first.
func (f *FaultyComm) Recv(from int, tag Tag) ([]byte, error) {
	ft, phase := f.match(opRecv, from)
	if err, done := f.apply(ft, phase, from); done {
		return nil, err
	}
	return f.base.Recv(from, tag)
}

// The collective algorithms surface round timings through the internal
// collRecorder hook; forward it so a fault-wrapped transport keeps its
// collective statistics.

func (f *FaultyComm) countColl(rounds int, d time.Duration) {
	if r, ok := f.base.(collRecorder); ok {
		r.countColl(rounds, d)
	}
}

func (f *FaultyComm) setReduceRounds(rounds []time.Duration) {
	if r, ok := f.base.(collRecorder); ok {
		r.setReduceRounds(rounds)
	}
}

func (f *FaultyComm) noteBarrierExit(t time.Time) {
	if r, ok := f.base.(collRecorder); ok {
		r.noteBarrierExit(t)
	}
}
