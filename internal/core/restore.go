package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"dedupcr/internal/collectives"
	"dedupcr/internal/fetch"
	"dedupcr/internal/fingerprint"
	"dedupcr/internal/metrics"
	"dedupcr/internal/obs"
	"dedupcr/internal/storage"
	"dedupcr/internal/trace"
)

// fetchClass is the fetch-service protocol class of plain restores.
const fetchClass fetch.Class = 0

// RestoreResult carries the reassembled buffer and the rank's restore
// instrumentation — the read-side twin of Result.
type RestoreResult struct {
	Data    []byte
	Metrics metrics.Restore
}

// Restore is the collective inverse of DumpOutput: every rank calls it
// and receives back the byte-exact buffer it dumped under name. Chunks or
// metadata missing from the local store (after a node failure and
// replacement) are pulled from peers: first the designated ranks recorded
// in the restore hints, then the neighbour metadata replicas, then a
// linear sweep as a last resort. Recovered chunks are re-stored locally,
// so a restore also re-provisions a replaced node.
//
// Restore succeeds as long as at most K-1 nodes were lost, the guarantee
// the replication factor buys.
//
//dedupvet:compat context-less convenience wrapper over RestoreCtx
func Restore(c collectives.Comm, store storage.Store, name string) ([]byte, error) {
	return RestoreCtx(context.Background(), c, store, name)
}

// RestoreCtx is Restore under a context: cancelling ctx aborts the
// collective restore on this rank and disseminates the abort, unblocking
// every rank (the fetch service and completion barrier otherwise wait for
// the whole group). Like DumpOutputCtx, any mid-restore failure aborts
// the group and surfaces on every survivor as a *collectives.CollectiveError;
// the restore only reads and re-provisions, so no rollback is needed.
func RestoreCtx(ctx context.Context, c collectives.Comm, store storage.Store, name string) ([]byte, error) {
	res, err := RestoreOutputCtx(ctx, c, store, name, nil)
	if err != nil {
		return nil, err
	}
	return res.Data, nil
}

// RestoreOutputCtx is the fully instrumented collective restore (see
// RestoreCtx for the abort semantics): it returns the reassembled buffer
// together with the rank's metrics.Restore — per-phase wall times, read
// amplification, fragmentation and locality statistics, per-peer fetch
// traffic and read-latency histograms — and records per-phase spans
// into rec (a nil recorder records nothing).
func RestoreOutputCtx(ctx context.Context, c collectives.Comm, store storage.Store, name string, rec *trace.Recorder) (*RestoreResult, error) {
	if ctx != nil && ctx.Err() != nil {
		return nil, context.Cause(ctx)
	}
	stop := collectives.WatchContext(ctx, c)
	defer stop()
	res, err := restoreOutput(c, store, name, rec)
	if err != nil {
		return nil, failCollective(c, err, "restore")
	}
	return res, nil
}

// restoreOutput runs the restore pipeline.
func restoreOutput(c collectives.Comm, store storage.Store, name string, rec *trace.Recorder) (*RestoreResult, error) {
	me, n := c.Rank(), c.Size()
	restoreStart := time.Now()
	m := metrics.Restore{Rank: me, RunLengths: metrics.NewHistogram()}
	restoreSpan := rec.Begin("restore").Arg("dataset", name)
	defer restoreSpan.End()
	// NotePhase labels the goroutine per phase for CPU profiles; drop the
	// last label once the pipeline is done.
	defer obs.ClearPhaseLabel()

	// Local reads go through a fresh Timed wrapper so the restore's
	// read-latency histogram covers exactly this restore. The fetch
	// server answers peers from the raw store: peer-serving reads are the
	// peers' fetch cost, not this rank's local read path.
	timed := storage.NewTimed(store)
	fs := fetch.NewStats(n)
	srv := fetch.Serve(c, store, fetchClass)

	// Publish each restore phase to the transport, mirroring the dump
	// pipeline: failures get attributed to the phase they surfaced in and
	// phase-scoped fault injection can target restores too.
	collectives.NotePhase(c, "restore-meta")
	metaSpan := rec.Begin("load-meta")
	phaseStart := time.Now()
	meta, metaFetched, err := loadMeta(c, timed, fs, name)
	m.Phases.Meta = time.Since(phaseStart)
	metaSpan.End()
	if err != nil {
		srv.Stop()
		return nil, fmt.Errorf("rank %d: %w", me, err)
	}
	localBlobReads := 0 // successful local blob reads (meta, gc list)
	if metaFetched {
		m.MetaFetches = 1
	} else {
		localBlobReads++
	}
	m.TotalChunks = meta.Recipe.Len()
	m.UniqueChunks = len(meta.Recipe.Unique())

	// The recipe walk is sequential (Assemble calls lookup per position
	// on one goroutine), so a running same-source counter measures
	// sequential locality exactly: a run ends whenever the serving source
	// changes (local store vs. one particular peer).
	localFPs := make(map[fingerprint.FP]bool)
	const noSource = -2 // distinct from local (-1) and any peer rank
	curSource, curRun := noSource, int64(0)
	endRun := func() {
		if curRun > 0 {
			m.RunLengths.Record(curRun)
			if curRun > m.LargestRun {
				m.LargestRun = curRun
			}
		}
		curRun = 0
	}
	note := func(source int) {
		if source != curSource {
			endRun()
			curSource = source
		}
		curRun++
	}

	var cached []fingerprint.FP
	collectives.NotePhase(c, "assemble")
	assembleSpan := rec.Begin("assemble")
	phaseStart = time.Now()
	buf, err := meta.Recipe.Assemble(func(fp fingerprint.FP) ([]byte, error) {
		if data, err := timed.GetChunk(fp); err == nil {
			m.LocalChunks++
			m.LocalBytes += int64(len(data))
			localFPs[fp] = true
			note(-1)
			return data, nil
		}
		data, peer, err := fetchChunk(c, meta, fs, fp)
		if err != nil {
			return nil, err
		}
		m.FetchedChunks++
		m.FetchedBytes += int64(len(data))
		note(peer)
		// Re-provision the local store with the recovered chunk.
		if err := timed.PutChunk(fp, data); err != nil && !errors.Is(err, storage.ErrFailed) {
			return nil, err
		}
		cached = append(cached, fp)
		return data, nil
	})
	endRun()
	m.Phases.Assemble = time.Since(phaseStart)
	assembleSpan.Arg("fetched-chunks", fmt.Sprint(len(cached))).End()
	if err != nil {
		srv.Stop()
		return nil, fmt.Errorf("rank %d assemble %q: %w", me, name, err)
	}
	m.LogicalBytes = int64(len(buf))

	collectives.NotePhase(c, "restore-commit")
	commitSpan := rec.Begin("commit")
	phaseStart = time.Now()
	// The re-provisioned references belong to this dataset: fold them
	// into its reclamation list so a later Forget releases them too.
	if len(cached) > 0 {
		refs := cached
		if blob, gerr := timed.GetBlob(gcName(name, me)); gerr == nil {
			localBlobReads++
			if prev, perr := unmarshalFPs(blob); perr == nil {
				refs = append(prev, cached...)
			}
		}
		if err := timed.PutBlob(gcName(name, me), marshalFPs(refs)); err != nil && !errors.Is(err, storage.ErrFailed) {
			srv.Stop()
			return nil, err
		}
	}
	// Re-persist the metadata locally so future restores are local again.
	if blob, merr := meta.MarshalBinary(); merr == nil {
		if err := timed.PutBlob(metaName(name, me), blob); err != nil && !errors.Is(err, storage.ErrFailed) {
			srv.Stop()
			return nil, err
		}
	}
	// Best-effort durability for the re-provisioned chunks and metadata
	// on commit-aware engines: losing them to a crash only costs a
	// re-fetch on the next restore, so errors don't fail the restore.
	_ = storage.Commit(timed)
	m.Phases.Commit = time.Since(phaseStart)
	commitSpan.End()

	// All ranks keep serving until everyone has finished assembling.
	collectives.NotePhase(c, "restore-barrier")
	barrierSpan := rec.Begin("barrier")
	phaseStart = time.Now()
	err = collectives.Barrier(c)
	m.Phases.Barrier = time.Since(phaseStart)
	barrierSpan.End()
	if err != nil {
		srv.Stop()
		return nil, fmt.Errorf("rank %d restore barrier: %w", me, err)
	}
	srv.Stop()

	// The completion barrier's exit stamp doubles as this rank's wall-clock
	// anchor for cross-rank clock-offset estimation (telemetry plane).
	if st := c.Stats(); !st.LastBarrierExit.IsZero() {
		m.BarrierExit = st.LastBarrierExit
	} else {
		m.BarrierExit = time.Now()
	}
	m.Phases.Total = time.Since(restoreStart)
	finishRestoreMetrics(&m, fs, timed, len(localFPs)+localBlobReads)
	restoreSpan.Arg("read-amp-bytes", fmt.Sprintf("%.3f", m.ReadAmplificationBytes()))
	return &RestoreResult{Data: buf, Metrics: m}, nil
}

// finishRestoreMetrics folds the fetch-client and timed-store
// instrumentation into m: per-peer traffic, request/miss counts, fetch
// latency (whose sum is the Fetch phase — time spent inside remote RPCs
// during assembly), the local read-latency histogram and the
// distinct-objects count. Shared by the plain and hybrid restore paths.
func finishRestoreMetrics(m *metrics.Restore, fs *fetch.Stats, timed *storage.Timed, objectsTouched int) {
	m.ObjectsTouched = objectsTouched
	m.FetchRequests = fs.Requests()
	m.FetchMisses = fs.Misses()
	m.PeerFetchChunks = fs.PeerChunks()
	m.PeerFetchBytes = fs.PeerBytes()
	m.SourceRanks = fs.SourceRanks()
	m.FetchLatency = fs.Latency()
	m.Phases.Fetch = time.Duration(m.FetchLatency.Sum())
	if timed.ReadLatency().Count() > 0 {
		m.StoreReadLatency = timed.ReadLatency()
	}
}

// loadMeta retrieves this rank's RestoreMeta: locally if possible,
// otherwise from the peers holding a replica (the naive neighbours at
// dump time; unknown K means we sweep outward until found). The bool
// reports whether the blob had to come from a peer.
func loadMeta(c collectives.Comm, store storage.Store, fs *fetch.Stats, name string) (*RestoreMeta, bool, error) {
	me, n := c.Rank(), c.Size()
	blobName := metaName(name, me)
	fetched := false
	blob, err := store.GetBlob(blobName)
	if err != nil {
		for d := 1; d < n; d++ {
			peer := (me + d) % n
			data, ok, rerr := fs.Blob(c, fetchClass, peer, blobName)
			if rerr != nil {
				return nil, false, rerr
			}
			if ok {
				blob, fetched = data, true
				break
			}
		}
		if blob == nil {
			return nil, false, fmt.Errorf("restore metadata %q unrecoverable", blobName)
		}
	}
	meta := new(RestoreMeta)
	if err := meta.UnmarshalBinary(blob); err != nil {
		return nil, false, fmt.Errorf("decode restore metadata %q: %w", blobName, err)
	}
	return meta, fetched, nil
}

// fetchChunk pulls fp from peers: designated ranks first (the hint path),
// then every other rank. It reports which peer served the chunk.
func fetchChunk(c collectives.Comm, meta *RestoreMeta, fs *fetch.Stats, fp fingerprint.FP) ([]byte, int, error) {
	me, n := c.Rank(), c.Size()
	tried := make(map[int]bool, n)
	tried[me] = true
	try := func(peer int) ([]byte, bool, error) {
		if tried[peer] {
			return nil, false, nil
		}
		tried[peer] = true
		return fs.Chunk(c, fetchClass, peer, fp)
	}
	for _, r := range meta.Hints[fp] {
		data, ok, err := try(int(r))
		if err != nil {
			return nil, -1, err
		}
		if ok {
			return data, int(r), nil
		}
	}
	for d := 1; d < n; d++ {
		peer := (me + d) % n
		data, ok, err := try(peer)
		if err != nil {
			return nil, -1, err
		}
		if ok {
			return data, peer, nil
		}
	}
	return nil, -1, fmt.Errorf("chunk %s lost on all surviving nodes", fp.Short())
}
