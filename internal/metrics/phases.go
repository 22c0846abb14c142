package metrics

import (
	"fmt"
	"time"
)

// Phases is the measured wall-clock decomposition of one collective dump
// on one rank, one field per pipeline phase in execution order. Fields
// are measured with the monotonic clock around each phase, so their sum
// accounts for (almost) all of Total; the small remainder is loop
// bookkeeping between phases.
//
// The mapping to the paper's pipeline: Chunking+Fingerprint are the local
// hashing cost of Figure 3(b)/(c), Reduction is the HMERGE collective of
// Algorithm 1 (l. 1-3), LoadExchange the allgather of l. 4-10, Planning
// covers Algorithm 2 (shuffle) and Algorithm 3 (offsets), Put/WindowWait
// the single-sided window exchange, Commit the local store writes.
type Phases struct {
	// Chunking is the boundary scan (fixed-size or content-defined).
	Chunking time.Duration
	// Fingerprint is hashing every chunk.
	Fingerprint time.Duration
	// LocalDedup is the first-occurrence filter over fingerprints.
	LocalDedup time.Duration
	// Reduction is the collective fingerprint reduction + broadcast
	// (coll-dedup only), including classification of every chunk.
	Reduction time.Duration
	// ReductionRoundTimes holds this rank's per-round durations of the
	// reduction tree, when the transport recorded them.
	ReductionRoundTimes []time.Duration
	// FingerprintWorkers holds the per-worker busy durations of the
	// parallel hashing pool (index = worker id); empty for serial dumps
	// (Parallelism = 1). The wall-clock cost stays in Fingerprint; these
	// attribute it to workers.
	FingerprintWorkers []time.Duration
	// PutWorkers holds the per-worker busy durations of the concurrent
	// partner-put phase (index = partner index - 1); empty for serial
	// dumps. The wall-clock cost stays in Put.
	PutWorkers []time.Duration
	// LoadExchange covers the load-vector allgathers (both rounds).
	LoadExchange time.Duration
	// Planning covers shuffle computation, replica-target refinement and
	// offset planning; for the no-dedup and local-dedup baselines it also
	// absorbs chunk classification (plain partner assignment).
	Planning time.Duration
	// WindowOpen is setting up the receive window (nothing is allocated:
	// the bytes arrive in the senders' frames).
	WindowOpen time.Duration
	// Put is the cumulative time spent sending the restore metadata to
	// the partners and pushing chunks into their windows.
	Put time.Duration
	// WindowWait is the time the drain of the own window spent blocked
	// on the next frame in offset order. The drain interleaves with
	// Commit, frame by frame; each moment of it accrues to exactly one of
	// the two, so Sum still accounts for Total.
	WindowWait time.Duration
	// Commit covers receiving the senders' restore metadata, local chunk
	// stores, each received frame's commit as it lands, the GC list and
	// restore-metadata persistence.
	Commit time.Duration
	// Barrier is the final completion barrier.
	Barrier time.Duration
	// Total is the end-to-end DumpOutput duration on this rank.
	Total time.Duration
}

// Sum adds up the per-phase fields (excluding Total). For a correctly
// instrumented dump, Sum is within a few percent of Total.
func (p Phases) Sum() time.Duration {
	return p.Chunking + p.Fingerprint + p.LocalDedup + p.Reduction +
		p.LoadExchange + p.Planning + p.WindowOpen + p.Put +
		p.WindowWait + p.Commit + p.Barrier
}

// Other returns the unattributed remainder Total - Sum (clamped at 0).
func (p Phases) Other() time.Duration {
	if o := p.Total - p.Sum(); o > 0 {
		return o
	}
	return 0
}

// Add accumulates q's durations into p field-wise (round times append),
// for aggregating several dumps of one run.
func (p *Phases) Add(q Phases) {
	p.Chunking += q.Chunking
	p.Fingerprint += q.Fingerprint
	p.LocalDedup += q.LocalDedup
	p.Reduction += q.Reduction
	p.ReductionRoundTimes = append(p.ReductionRoundTimes, q.ReductionRoundTimes...)
	p.FingerprintWorkers = append(p.FingerprintWorkers, q.FingerprintWorkers...)
	p.PutWorkers = append(p.PutWorkers, q.PutWorkers...)
	p.LoadExchange += q.LoadExchange
	p.Planning += q.Planning
	p.WindowOpen += q.WindowOpen
	p.Put += q.Put
	p.WindowWait += q.WindowWait
	p.Commit += q.Commit
	p.Barrier += q.Barrier
	p.Total += q.Total
}

// Scale multiplies every duration by f (per-round and per-worker
// attributions dropped), turning an Add-accumulated Phases into a mean.
func (p Phases) Scale(f float64) Phases {
	s := func(d time.Duration) time.Duration {
		return time.Duration(float64(d) * f)
	}
	return Phases{
		Chunking:     s(p.Chunking),
		Fingerprint:  s(p.Fingerprint),
		LocalDedup:   s(p.LocalDedup),
		Reduction:    s(p.Reduction),
		LoadExchange: s(p.LoadExchange),
		Planning:     s(p.Planning),
		WindowOpen:   s(p.WindowOpen),
		Put:          s(p.Put),
		WindowWait:   s(p.WindowWait),
		Commit:       s(p.Commit),
		Barrier:      s(p.Barrier),
		Total:        s(p.Total),
	}
}

// PhaseNames lists the phase labels in pipeline order, matching the span
// names recorded by internal/core and the rows of the phase tables.
var PhaseNames = []string{
	"chunking", "fingerprint", "local-dedup", "reduction",
	"load-exchange", "planning", "window-open", "put", "window-wait",
	"commit", "barrier",
}

// ByName returns the duration of the named phase (one of PhaseNames).
func (p Phases) ByName(name string) time.Duration {
	switch name {
	case "chunking":
		return p.Chunking
	case "fingerprint":
		return p.Fingerprint
	case "local-dedup":
		return p.LocalDedup
	case "reduction":
		return p.Reduction
	case "load-exchange":
		return p.LoadExchange
	case "planning":
		return p.Planning
	case "window-open":
		return p.WindowOpen
	case "put":
		return p.Put
	case "window-wait":
		return p.WindowWait
	case "commit":
		return p.Commit
	case "barrier":
		return p.Barrier
	default:
		return 0
	}
}

// Duration renders d for tables: sub-millisecond values keep microsecond
// resolution, larger ones millisecond resolution.
func Duration(d time.Duration) string {
	switch {
	case d <= 0:
		return "0"
	case d < time.Millisecond:
		return fmt.Sprintf("%.0fµs", float64(d)/float64(time.Microsecond))
	case d < time.Second:
		return fmt.Sprintf("%.2fms", float64(d)/float64(time.Millisecond))
	default:
		return fmt.Sprintf("%.3fs", d.Seconds())
	}
}
