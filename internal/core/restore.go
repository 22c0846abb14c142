package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
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
// and receives back the byte-exact buffer it dumped under name. One walk
// over the recipe places what the local store serves, each position
// checked against its length and fingerprint; chunks the store cannot
// serve (discarded natural replicas, or everything after a node failure
// and replacement) are pulled from peers in batched, pipelined exchanges
// — many fingerprints per request, two requests outstanding per peer,
// all peers at once — asking first the designated ranks recorded in the
// restore hints, then every other rank in turn. A fetched chunk is
// verified against its fingerprint before anything else happens to it;
// a replica that fails is a miss, and the next holder is asked. Verified
// chunks are re-stored locally, so a restore also re-provisions a
// replaced node. Missing metadata comes from the neighbour replicas.
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
		// The metadata sweep asks one peer at a time, so its share of the
		// Fetch phase is the sum of those round trips.
		m.Phases.Fetch = time.Duration(fs.Latency().Sum())
	} else {
		localBlobReads++
	}
	m.TotalChunks = meta.Recipe.Len()
	m.UniqueChunks = len(meta.Recipe.Unique())

	collectives.NotePhase(c, "assemble")
	assembleSpan := rec.Begin("assemble")
	phaseStart = time.Now()
	a := &assembly{comm: c, store: timed, fs: fs, meta: meta, m: &m}
	err = a.walk()
	if err == nil && len(a.holes) > 0 {
		// Exchanges overlap, so the fetch stage is charged as wall time:
		// first ask sent to last reply placed, inside Assemble.
		fetchSpan := rec.Begin("fetch").Arg("fingerprints", fmt.Sprint(len(a.holes)))
		fetchStart := time.Now()
		err = a.fetchHoles()
		m.Phases.Fetch += time.Since(fetchStart)
		fetchSpan.End()
	}
	m.Phases.Assemble = time.Since(phaseStart)
	assembleSpan.Arg("fetched-chunks", fmt.Sprint(len(a.cached))).End()
	if err != nil {
		srv.Stop()
		return nil, fmt.Errorf("rank %d assemble %q: %w", me, name, err)
	}
	a.noteRuns()
	buf, cached := a.buf, a.cached
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
	// Re-persist fetched metadata locally so future restores are local
	// again; metadata read locally is already there.
	if metaFetched {
		if blob, merr := meta.MarshalBinary(); merr == nil {
			if err := timed.PutBlob(metaName(name, me), blob); err != nil && !errors.Is(err, storage.ErrFailed) {
				srv.Stop()
				return nil, err
			}
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
	finishRestoreMetrics(&m, fs, timed, a.localObjects()+localBlobReads)
	restoreSpan.Arg("read-amp-bytes", fmt.Sprintf("%.3f", m.ReadAmplificationBytes()))
	return &RestoreResult{Data: buf, Metrics: m}, nil
}

// finishRestoreMetrics folds the fetch-client and timed-store
// instrumentation into m: per-peer traffic, request/miss counts, the
// per-exchange fetch latency, the local read-latency histogram and the
// distinct-objects count. (Phases.Fetch is stamped where the fetches
// happen: exchanges overlap, so it is wall time, not a latency sum.)
func finishRestoreMetrics(m *metrics.Restore, fs *fetch.Stats, timed *storage.Timed, objectsTouched int) {
	m.ObjectsTouched = objectsTouched
	m.FetchRequests = fs.Requests()
	m.FetchMisses = fs.Misses()
	m.PeerFetchChunks = fs.PeerChunks()
	m.PeerFetchBytes = fs.PeerBytes()
	m.SourceRanks = fs.SourceRanks()
	m.FetchLatency = fs.Latency()
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

// fetchDepth is how many batched requests a rank keeps outstanding per
// peer: one being served while the previous reply is consumed. It also
// bounds what a requester buffers — fetchDepth × collectives.MaxPutBytes
// per peer — and deeper pipelines measured no faster.
const fetchDepth = 2

// assembly is one rank's reassembly of its image: a single walk over the
// recipe places everything the local store serves and files the rest as
// holes; batched, pipelined exchanges with the peers then fill the holes.
type assembly struct {
	comm  collectives.Comm
	store storage.Store
	fs    *fetch.Stats
	meta  *RestoreMeta
	m     *metrics.Restore

	buf []byte
	// source records, per recipe position, who served it: 0 is the local
	// store, p+1 is peer p.
	source []int32
	holes  map[fingerprint.FP]*hole
	peers  []peerQueue
	// cached lists the fetched (hence re-provisioned) fingerprints.
	cached []fingerprint.FP
	// refilled counts fetched fingerprints that filled more than one hole.
	refilled int
}

// hole is a fingerprint the local store could not serve: the recipe
// positions waiting for it and how far down its candidate list the
// asking has got.
type hole struct {
	fp    fingerprint.FP
	size  int32
	first int     // recipe index of the first position
	at    []int64 // image offset of every position
	hints []int32
	asked int // candidates consumed: hints first, then the sweep
}

// peerQueue is what is still to be asked of one peer, in filing order,
// and how many requests to it await their reply.
type peerQueue struct {
	queue    []*hole
	inflight int
}

// nextPeer returns the next peer to ask for h, in the order a one-chunk-
// at-a-time fetch would try them, each peer at most once: the hinted
// (designated) ranks in hint order — this rank, repeats and ranks outside
// the group skipped — then every other rank, (me+d) mod n for d = 1…n-1.
// It reports false once every other rank has been offered.
func (h *hole) nextPeer(me, n int) (int, bool) {
	for h.asked < len(h.hints)+n-1 {
		k := h.asked
		h.asked++
		if k < len(h.hints) {
			r := int(h.hints[k])
			if r != me && r >= 0 && r < n && !slices.Contains(h.hints[:k], h.hints[k]) {
				return r, true
			}
			continue
		}
		peer := (me + k - len(h.hints) + 1) % n
		if !slices.Contains(h.hints, int32(peer)) {
			return peer, true
		}
	}
	return 0, false
}

// walk reads every recipe position the local store serves — checking its
// length and SHA-1 against the recipe, once per position — straight into
// place, and files every position it cannot serve (not found, read
// error, failed store) under its fingerprint, queued at the first peer
// to ask.
func (a *assembly) walk() error {
	r := a.meta.Recipe
	total := r.TotalBytes()
	if total < 0 {
		return fmt.Errorf("recipe describes %d bytes", total)
	}
	a.buf = make([]byte, total)
	a.source = make([]int32, r.Len())
	a.holes = make(map[fingerprint.FP]*hole)
	a.peers = make([]peerQueue, a.comm.Size())
	var off int64
	for i, fp := range r.FPs {
		size := int64(r.Sizes[i])
		if size < 0 || off+size > total {
			return fmt.Errorf("chunk %d (%s): recipe size %d", i, fp.Short(), size)
		}
		data, err := a.store.GetChunk(fp)
		if err != nil {
			h := a.holes[fp]
			if h == nil {
				h = &hole{fp: fp, size: r.Sizes[i], first: i, hints: a.meta.Hints[fp]}
				a.holes[fp] = h
				if err := a.enqueue(h); err != nil {
					return err
				}
			}
			if h.size != r.Sizes[i] {
				return fmt.Errorf("chunk %d (%s): recipe says %d bytes here and %d earlier", i, fp.Short(), size, h.size)
			}
			h.at = append(h.at, off)
			off += size
			continue
		}
		if int64(len(data)) != size {
			return fmt.Errorf("chunk %d (%s): got %d bytes, recipe says %d", i, fp.Short(), len(data), size)
		}
		if fingerprint.Of(data) != fp {
			return fmt.Errorf("chunk %d: content does not match fingerprint %s", i, fp.Short())
		}
		copy(a.buf[off:], data)
		a.m.LocalChunks++
		a.m.LocalBytes += size
		off += size
	}
	return nil
}

// enqueue files h with the next peer on its candidate list; a
// fingerprint nobody is left to ask for is lost.
func (a *assembly) enqueue(h *hole) error {
	peer, ok := h.nextPeer(a.comm.Rank(), a.comm.Size())
	if !ok {
		return fmt.Errorf("chunk %s lost on all surviving nodes", h.fp.Short())
	}
	a.peers[peer].queue = append(a.peers[peer].queue, h)
	return nil
}

// cut takes the next request off the front of q: as many fingerprints as
// keep the expected reply within collectives.MaxPutBytes, at least one (a
// chunk above the cap travels alone).
func (q *peerQueue) cut() []fingerprint.FP {
	n, payload := 0, int64(0)
	for n < len(q.queue) {
		next := payload + int64(q.queue[n].size)
		if n > 0 && fetch.ReplyBytes(n+1, next) > collectives.MaxPutBytes {
			break
		}
		n, payload = n+1, next
	}
	fps := make([]fingerprint.FP, n)
	for i, h := range q.queue[:n] {
		fps[i] = h.fp
	}
	q.queue = q.queue[n:]
	return fps
}

// fetchHoles fills the holes: it keeps every peer with queued
// fingerprints topped up to fetchDepth requests and consumes replies in
// whatever order they arrive. A record is accepted when its length
// matches the recipe and its SHA-1 the fingerprint; only then is it
// stored (re-provisioning this node) and copied into every hole of that
// fingerprint. Anything else — not found, wrong length, corrupt — is a
// miss, and the fingerprint moves on to its next candidate's queue.
func (a *assembly) fetchHoles() error {
	pipe := fetch.NewPipeline(a.comm, fetchClass)
	for {
		for p := range a.peers {
			q := &a.peers[p]
			for q.inflight < fetchDepth && len(q.queue) > 0 {
				if err := pipe.Ask(p, q.cut()); err != nil {
					return err
				}
				q.inflight++
			}
		}
		if pipe.Outstanding() == 0 {
			return nil
		}
		ex, err := pipe.Next()
		if err != nil {
			return err
		}
		a.peers[ex.Peer].inflight--
		served, servedBytes := 0, int64(0)
		for i, fp := range ex.FPs {
			h, r := a.holes[fp], ex.Records[i]
			if !r.Found || len(r.Data) != int(h.size) || fingerprint.Of(r.Data) != fp {
				if err := a.enqueue(h); err != nil {
					return err
				}
				continue
			}
			if err := a.accept(h, ex.Peer, r.Data); err != nil {
				return err
			}
			served++
			servedBytes += int64(h.size)
		}
		a.fs.Exchange(ex.Peer, len(ex.FPs), served, servedBytes, ex.Elapsed)
	}
}

// accept places verified bytes: into the local store (ErrFailed is
// tolerated — a failed store just stays un-provisioned) and into every
// hole of the fingerprint. The first hole counts as fetched from peer;
// the others as local, which is where a position-by-position walk would
// have found the re-provisioned copy.
func (a *assembly) accept(h *hole, peer int, data []byte) error {
	if err := a.store.PutChunk(h.fp, data); err != nil && !errors.Is(err, storage.ErrFailed) {
		return err
	}
	a.cached = append(a.cached, h.fp)
	for _, off := range h.at {
		copy(a.buf[off:], data)
	}
	a.source[h.first] = int32(peer) + 1
	a.m.FetchedChunks++
	a.m.FetchedBytes += int64(h.size)
	if again := len(h.at) - 1; again > 0 {
		a.refilled++
		a.m.LocalChunks += again
		a.m.LocalBytes += int64(again) * int64(h.size)
	}
	return nil
}

// localObjects is the number of distinct fingerprints served by the local
// store: those that never were a hole, plus the fetched ones whose later
// positions count as local reads. (A store that fails mid-walk may have
// served a fingerprint before it became a hole; that one is not counted.)
func (a *assembly) localObjects() int {
	return a.m.UniqueChunks - len(a.holes) + a.refilled
}

// noteRuns measures sequential locality over the finished walk: a run is
// a maximal stretch of consecutive positions served by the same source
// (the local store, or one particular peer).
func (a *assembly) noteRuns() {
	run := int64(0)
	for i, src := range a.source {
		run++
		if i+1 == len(a.source) || a.source[i+1] != src {
			a.m.RunLengths.Record(run)
			a.m.LargestRun = max(a.m.LargestRun, run)
			run = 0
		}
	}
}
