// Package dedupcr is the public face of the library: dedup-aware
// collective checkpoint replication, reproducing Nicolae, "Leveraging
// Naturally Distributed Data Redundancy to Reduce Collective I/O
// Replication Overhead" (IPDPS 2015).
//
// The implementation lives in internal packages (see DESIGN.md for the
// map); this package re-exports the surface a downstream application
// needs: the communicator runtime, node-local stores, the DUMP_OUTPUT /
// Restore primitives, and the checkpoint-restart runtime.
//
//	cluster := dedupcr.NewCluster(8)
//	dedupcr.Run(8, func(c dedupcr.Comm) error {
//	    _, err := dedupcr.DumpOutput(c, cluster.Node(c.Rank()), buf, dedupcr.Options{
//	        K: 3, Approach: dedupcr.CollDedup, Name: "ckpt-1",
//	    })
//	    return err
//	})
package dedupcr

import (
	"context"

	"dedupcr/internal/chunk"
	"dedupcr/internal/collectives"
	"dedupcr/internal/core"
	"dedupcr/internal/ftrun"
	"dedupcr/internal/storage"
)

// Communicator runtime: ranks, tagged messages, collectives, windows.
type (
	// Comm is one rank's communicator endpoint.
	Comm = collectives.Comm
	// Group is an in-process communicator group (ranks as goroutines).
	Group = collectives.Group
	// TCPComm is the socket-transport communicator.
	TCPComm = collectives.TCPComm
)

// Run executes body once per rank on a fresh in-process group.
func Run(n int, body func(Comm) error) error { return collectives.Run(n, body) }

// RunCtx is Run under a context: cancelling ctx aborts the whole group,
// unblocking every rank promptly with the cancellation cause.
func RunCtx(ctx context.Context, n int, body func(context.Context, Comm) error) error {
	return collectives.RunCtx(ctx, n, body)
}

// NewGroup creates an in-process group of n ranks.
func NewGroup(n int) (*Group, error) { return collectives.NewGroup(n) }

// DialTCP joins a socket-transport group; rank i listens on addrs[i].
func DialTCP(rank int, addrs []string) (*TCPComm, error) {
	return collectives.DialTCP(rank, addrs)
}

// StartLocalTCP creates a loopback socket group for tests and demos.
func StartLocalTCP(n int) ([]*TCPComm, error) { return collectives.StartLocalTCP(n) }

// Node-local storage.
type (
	// Store is a node-local chunk store.
	Store = storage.Store
	// Cluster is a set of per-rank stores with failure injection.
	Cluster = storage.Cluster
)

// NewMemStore returns an in-memory node-local store.
func NewMemStore() Store { return storage.NewMem() }

// NewSegStore opens the log-structured segment store rooted at dir:
// chunks append into segments, checkpoints become durable atomically at
// commit points, and a background compactor reclaims released space.
// Close it to seal, commit and stop the compactor.
func NewSegStore(dir string) (*storage.SegStore, error) {
	return storage.NewSegStore(dir, storage.SegConfig{AutoCompact: true})
}

// NewCluster creates n in-memory node stores.
func NewCluster(n int) *Cluster { return storage.NewCluster(n) }

// The collective write primitive and its configuration.
type (
	// Options configures a collective dump.
	Options = core.Options
	// Approach selects the replication strategy.
	Approach = core.Approach
	// Result is the outcome of one collective dump on one rank.
	Result = core.Result
	// ChunkerSpec selects the chunking algorithm and size
	// (Options.Chunker): fixed-size or gear-hash content-defined. The
	// zero value is fixed/4 KiB.
	ChunkerSpec = chunk.Spec
	// ChunkerAlgo names a chunking algorithm (ChunkerSpec.Algo).
	ChunkerAlgo = chunk.Algo
)

// The chunking algorithms a ChunkerSpec can select.
const (
	// ChunkerFixed is fixed-size chunking, the paper's page model (the
	// zero value, so the default for Options that never set a chunker).
	ChunkerFixed = chunk.AlgoFixed
	// ChunkerGear is the gear-hash content-defined chunker: shift-
	// resistant boundaries at one table lookup + shift-add per byte in
	// an unrolled scan.
	ChunkerGear = chunk.AlgoGear
)

// ParseChunker parses a CLI chunker name: fixed | gear.
func ParseChunker(s string) (ChunkerAlgo, error) { return chunk.ParseAlgo(s) }

// Failure model: typed errors, collective abort, fault injection.
type (
	// CollectiveError is the typed failure every survivor of an aborted
	// collective returns: the failed ranks, the pipeline phase, and the
	// cause. Match with errors.As, or errors.Is against ErrAborted /
	// ErrRankFailed.
	CollectiveError = collectives.CollectiveError
	// Fault is one injected communication failure.
	Fault = collectives.Fault
	// FaultKind selects what an injected fault does.
	FaultKind = collectives.FaultKind
	// FaultPlan is a deterministic, seeded failure schedule.
	FaultPlan = collectives.FaultPlan
)

// The injectable fault kinds.
const (
	// FaultKill simulates the crash of a rank at the trigger point.
	FaultKill = collectives.FaultKill
	// FaultDrop silently discards matched sends.
	FaultDrop = collectives.FaultDrop
	// FaultDelay delays matched operations.
	FaultDelay = collectives.FaultDelay
	// FaultError fails matched sends with an error.
	FaultError = collectives.FaultError
)

// AnyRank is the wildcard rank for fault filters and window receives.
const AnyRank = collectives.AnyRank

// Sentinel errors of the failure model.
var (
	// ErrRankFailed reports that a peer rank died mid-collective.
	ErrRankFailed = collectives.ErrRankFailed
	// ErrAborted reports that the collective was aborted.
	ErrAborted = collectives.ErrAborted
	// ErrClosed reports use of a closed communicator.
	ErrClosed = collectives.ErrClosed
	// ErrInjected is the root cause of injector-produced failures.
	ErrInjected = collectives.ErrInjected
)

// Abort aborts the collective group from this rank with the given cause;
// every blocked rank unblocks with a *CollectiveError.
func Abort(c Comm, cause error) { collectives.Abort(c, cause) }

// Kill simulates the crash of this rank: local operations fail from now
// on and peers detect the death through the transport.
func Kill(c Comm, cause error) { collectives.Kill(c, cause) }

// InjectFaults wraps a rank's communicator with a deterministic fault
// plan (kills, drops, delays, send errors at chosen phases).
func InjectFaults(c Comm, plan FaultPlan) Comm { return collectives.InjectFaults(c, plan) }

// FailedRanks extracts the failed ranks recorded in err's CollectiveError
// chain, or nil.
func FailedRanks(err error) []int { return collectives.FailedRanks(err) }

// The three strategies of the paper's evaluation.
const (
	// NoDedup is full replication of every chunk.
	NoDedup = core.NoDedup
	// LocalDedup deduplicates within each rank before replicating.
	LocalDedup = core.LocalDedup
	// CollDedup is the paper's contribution: collective deduplication
	// with natural replicas.
	CollDedup = core.CollDedup
)

// DefaultF is the paper's fingerprint-count threshold (2^17).
const DefaultF = core.DefaultF

// DumpOutput is the paper's collective write primitive; see
// internal/core.DumpOutput for the full contract. Equivalent to
// DumpOutputCtx with a background context.
func DumpOutput(c Comm, store Store, buf []byte, o Options) (*Result, error) {
	return core.DumpOutput(c, store, buf, o)
}

// DumpOutputCtx is DumpOutput under a context: cancellation (or a passed
// deadline) aborts the collective on every rank instead of deadlocking
// the group on a missing participant. Mid-dump failures surface on every
// survivor as a *CollectiveError; the local store is left consistent —
// fully committed or rolled back clean. See internal/core.DumpOutputCtx.
func DumpOutputCtx(ctx context.Context, c Comm, store Store, buf []byte, o Options) (*Result, error) {
	return core.DumpOutputCtx(ctx, c, store, buf, o)
}

// Restore collectively reassembles a dataset dumped under name,
// tolerating up to K-1 node losses. Equivalent to RestoreCtx with a
// background context.
func Restore(c Comm, store Store, name string) ([]byte, error) {
	return core.Restore(c, store, name)
}

// RestoreCtx is Restore under a context; cancellation aborts the
// collective restore on every rank.
func RestoreCtx(ctx context.Context, c Comm, store Store, name string) ([]byte, error) {
	return core.RestoreCtx(ctx, c, store, name)
}

// Forget reclaims this node's storage for an old dataset (reference
// counted; chunks shared with newer dumps survive).
func Forget(store Store, name string, rank int) error {
	return core.Forget(store, name, rank)
}

// Bool is a convenience for filling Options.Shuffle.
func Bool(v bool) *bool { return core.Bool(v) }

// Checkpoint-restart runtime (the AC-FTE role).
type (
	// Runtime drives checkpoint-restart for one rank.
	Runtime = ftrun.Runtime
	// Checkpointable is the application-level checkpoint interface.
	Checkpointable = ftrun.Checkpointable
)

// ErrNoCheckpoint is returned by restarts when nothing survived.
var ErrNoCheckpoint = ftrun.ErrNoCheckpoint

// NewRuntime creates a checkpoint-restart runtime for this rank.
func NewRuntime(c Comm, store Store, o Options) *Runtime {
	return ftrun.New(c, store, o)
}
