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
	// Fingerprint is hashing every chunk, with the first-occurrence
	// filter (and coll-dedup's reduction leaf-table build) run on the
	// chunks as they come out of hashing.
	Fingerprint time.Duration
	// LocalDedup is what remains of local dedup once hashing is done: the
	// leaf table's top-F trim (coll-dedup).
	LocalDedup time.Duration
	// Reduction is the collective fingerprint reduction + broadcast
	// (coll-dedup only), including classification of every chunk.
	Reduction time.Duration
	// ReductionRoundTimes holds this rank's per-round durations of the
	// reduction tree, when the transport recorded them.
	ReductionRoundTimes []time.Duration
	// FingerprintWorkers holds the per-worker busy durations of the
	// parallel hashing pool (index = worker id); empty when hashing ran on
	// the calling goroutine (Parallelism = 1, or too few chunks to share
	// out). The wall-clock cost stays in Fingerprint; these attribute it
	// to workers.
	FingerprintWorkers []time.Duration
	// PutWorkers holds the busy duration of each partner's put stream
	// (index = partner index - 1), at every Parallelism: at 1 the streams
	// run one after another. The wall-clock cost stays in Put.
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

// phase is one row of a pipeline's phase table: the phase's label — its
// span, its NotePhase name and its row in tables and expositions — and
// its duration field.
type phase[P any] struct {
	name  string
	field func(*P) *time.Duration
}

// phaseTable lists one pipeline's phases once, in pipeline order, which
// is also their order on the telemetry wire. Every per-phase operation
// walks it.
type phaseTable[P any] []phase[P]

func (t phaseTable[P]) names() []string {
	out := make([]string, len(t))
	for i, ph := range t {
		out[i] = ph.name
	}
	return out
}

func (t phaseTable[P]) slot(p *P, name string) *time.Duration {
	for _, ph := range t {
		if ph.name == name {
			return ph.field(p)
		}
	}
	return nil
}

func (t phaseTable[P]) sum(p *P) time.Duration {
	var s time.Duration
	for _, ph := range t {
		s += *ph.field(p)
	}
	return s
}

func (t phaseTable[P]) add(p, q *P) {
	for _, ph := range t {
		*ph.field(p) += *ph.field(q)
	}
}

func (t phaseTable[P]) byName(p *P, name string) time.Duration {
	if d := t.slot(p, name); d != nil {
		return *d
	}
	return 0
}

// dumpPhases is the dump pipeline's phase table.
var dumpPhases = phaseTable[Phases]{
	{"chunking", func(p *Phases) *time.Duration { return &p.Chunking }},
	{"fingerprint", func(p *Phases) *time.Duration { return &p.Fingerprint }},
	{"local-dedup", func(p *Phases) *time.Duration { return &p.LocalDedup }},
	{"reduction", func(p *Phases) *time.Duration { return &p.Reduction }},
	{"load-exchange", func(p *Phases) *time.Duration { return &p.LoadExchange }},
	{"planning", func(p *Phases) *time.Duration { return &p.Planning }},
	{"window-open", func(p *Phases) *time.Duration { return &p.WindowOpen }},
	{"put", func(p *Phases) *time.Duration { return &p.Put }},
	{"window-wait", func(p *Phases) *time.Duration { return &p.WindowWait }},
	{"commit", func(p *Phases) *time.Duration { return &p.Commit }},
	{"barrier", func(p *Phases) *time.Duration { return &p.Barrier }},
}

// PhaseNames lists the dump's phase labels in pipeline order: the span
// names recorded by internal/core and the rows of the phase tables.
var PhaseNames = dumpPhases.names()

// Slot returns the duration field of the named phase (one of
// PhaseNames), nil for any other name.
func (p *Phases) Slot(name string) *time.Duration { return dumpPhases.slot(p, name) }

// ByName returns the duration of the named phase, 0 for an unknown name.
func (p Phases) ByName(name string) time.Duration { return dumpPhases.byName(&p, name) }

// Sum adds up the per-phase fields (excluding Total). For a correctly
// instrumented dump, Sum is within a few percent of Total.
func (p Phases) Sum() time.Duration { return dumpPhases.sum(&p) }

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
	dumpPhases.add(p, &q)
	p.ReductionRoundTimes = append(p.ReductionRoundTimes, q.ReductionRoundTimes...)
	p.FingerprintWorkers = append(p.FingerprintWorkers, q.FingerprintWorkers...)
	p.PutWorkers = append(p.PutWorkers, q.PutWorkers...)
	p.Total += q.Total
}

// Scale multiplies every duration by f (per-round and per-worker
// attributions dropped), turning an Add-accumulated Phases into a mean.
func (p Phases) Scale(f float64) Phases {
	s := func(d time.Duration) time.Duration {
		return time.Duration(float64(d) * f)
	}
	out := Phases{Total: s(p.Total)}
	for _, ph := range dumpPhases {
		*ph.field(&out) = s(*ph.field(&p))
	}
	return out
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
