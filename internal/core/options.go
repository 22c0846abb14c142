package core

import (
	"fmt"
	"runtime"
	"time"

	"dedupcr/internal/chunk"
	"dedupcr/internal/obs"
)

// Approach selects the replication strategy, matching the three settings
// compared throughout the paper's evaluation.
type Approach int

const (
	// NoDedup is full replication: every chunk of the dataset is stored
	// locally and pushed to all K-1 partners ("no-dedup").
	NoDedup Approach = iota
	// LocalDedup deduplicates within each rank before storing and
	// replicating the locally unique chunks ("local-dedup").
	LocalDedup
	// CollDedup is the paper's contribution: collective interprocess
	// deduplication with natural replicas, load-balanced designation,
	// rank shuffling and single-sided planning ("coll-dedup").
	CollDedup
)

// String implements fmt.Stringer using the paper's setting names.
func (a Approach) String() string {
	if names := [...]string{"no-dedup", "local-dedup", "coll-dedup"}; a >= 0 && int(a) < len(names) {
		return names[a]
	}
	return fmt.Sprintf("Approach(%d)", int(a))
}

// DefaultF is the fingerprint-count threshold used throughout the paper's
// evaluation (2^17).
const DefaultF = 1 << 17

// RetryPolicy bounds the retries of transient transport failures during
// the window-put exchange (refused or dropped TCP connections, injected
// transient faults). Retries never apply to collective aborts, rank
// failures or cancellations — those terminate the dump.
//
// Zero values: Attempts <= 1 disables retries (every put is tried once);
// Backoff 0 retries immediately; PutTimeout 0 leaves puts unbounded.
type RetryPolicy struct {
	// Attempts is the maximum number of tries per put (including the
	// first); values below 1 mean 1.
	Attempts int
	// Backoff is the sleep before the first retry, doubling with every
	// further one.
	Backoff time.Duration
	// PutTimeout bounds each put attempt on deadline-capable transports
	// (TCP); a timed-out attempt counts as transient and is retried.
	PutTimeout time.Duration
}

// Options configures a collective dump.
//
// Zero-value behavior, in one place: the zero Options is invalid only for
// K (a replication factor must be chosen explicitly). Every other field
// has a working default resolved by normalization:
//
//	K              required; must be 1 <= K <= group size
//	Approach       NoDedup (the baselines stay explicit at call sites)
//	F              0 = DefaultF (2^17); negative = unbounded
//	Chunker        zero = fixed-size chunking at 4 KiB (chunk.DefaultSize)
//	Shuffle        nil = on for CollDedup, off for the baselines
//	Name           "" = "dataset"
//	Trace          nil = no span recording
//	Parallelism    0 = GOMAXPROCS; 1 = all work on the calling goroutine
//	Retry          zero = single attempt, no backoff, unbounded puts
type Options struct {
	// K is the replication factor: the dataset survives the loss of any
	// K-1 nodes. K=1 stores a single local copy.
	K int
	// Approach selects the strategy; default NoDedup (zero value) keeps
	// the baselines explicit in call sites.
	Approach Approach
	// F bounds the global fingerprint table of coll-dedup (paper: 2^17).
	// 0 selects DefaultF; negative means unbounded (exact solution).
	F int
	// Chunker selects the chunking algorithm and size: fixed-size (the
	// paper's page model, the zero value) or the gear-hash content-
	// defined chunker (chunk.AlgoGear). A zero Size selects 4 KiB, the
	// memory page size the paper matches chunks with. All ranks must
	// agree — boundaries are collective decision state.
	Chunker chunk.Spec
	// Shuffle enables the load-aware partner selection of Algorithm 2.
	// Only meaningful for CollDedup (the baselines use naive partners,
	// as in the paper). Default true for CollDedup via normalization.
	Shuffle *bool
	// Name identifies the dataset (e.g. "ckpt-000123"); recipes are
	// persisted under it. Empty defaults to "dataset".
	Name string
	// Trace, when set, records one span per pipeline phase onto this
	// rank's track of a trace ring (see obs.Track). Nil disables tracing;
	// the track methods are nil-safe, so the dump path carries no
	// conditionals. Unlike the other options, Trace may differ per rank
	// (each rank owns its track).
	Trace *obs.Track
	// Parallelism bounds the worker goroutines of the per-rank hot path:
	// the chunk-hashing pool (with the local-dedup and reduction-leaf
	// table builds overlapped into it) and the concurrent partner puts of
	// the window exchange. It sets a worker count, not a code path: 0
	// selects GOMAXPROCS, and 1 runs the same pipeline with no worker
	// goroutine, hashing and the partner puts on the calling goroutine in
	// order. Every setting produces byte-identical results — same chunk
	// boundaries, fingerprints and replica placement — so figures and
	// tables reproduce regardless. Parallelism may differ per rank (it
	// only shapes local execution).
	Parallelism int
	// Retry bounds retries of transient transport faults during the
	// window-put exchange; the zero value disables retrying. Retry
	// counters surface through metrics.Dump.PutRetries and the cluster
	// telemetry plane.
	Retry RetryPolicy
}

// normalized resolves defaults and validates against the group size.
func (o Options) normalized(groupSize int) (Options, error) {
	if o.K < 1 {
		return o, fmt.Errorf("core: replication factor K=%d must be >= 1", o.K)
	}
	if o.K > groupSize {
		return o, fmt.Errorf("core: replication factor K=%d exceeds group size %d", o.K, groupSize)
	}
	if o.F == 0 {
		o.F = DefaultF
	}
	if o.F < 0 {
		o.F = 0 // Table semantics: F <= 0 means unbounded
	}
	if o.Chunker.Size <= 0 {
		o.Chunker.Size = chunk.DefaultSize
	}
	if err := o.Chunker.Validate(); err != nil {
		return o, fmt.Errorf("core: %w", err)
	}
	if o.Shuffle == nil {
		on := o.Approach == CollDedup
		o.Shuffle = &on
	}
	if o.Name == "" {
		o.Name = "dataset"
	}
	if o.Parallelism <= 0 {
		o.Parallelism = runtime.GOMAXPROCS(0)
	}
	o.Retry.Attempts = max(o.Retry.Attempts, 1)
	return o, nil
}

// Bool is a convenience for filling Options.Shuffle.
func Bool(v bool) *bool { return &v }
