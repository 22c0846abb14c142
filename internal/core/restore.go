package core

import (
	"cmp"
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
// checked against its length and vouched for by the store's at-rest
// checksum (a corrupt local chunk fails the restore); chunks the store
// cannot serve (discarded natural replicas, or everything after a node
// failure and replacement) are pulled from peers in batched, pipelined
// exchanges — many fingerprints per request, two requests outstanding
// per peer, all peers at once — asking first the designated ranks
// recorded in the restore hints, then every other rank in turn. A
// fetched chunk is verified before anything else happens to it, against
// the at-rest sum its holder's store read it under, taken over the
// fingerprint asked for; a replica that fails is a miss, and the next
// holder is asked. Verified chunks are re-stored locally, so a restore also
// re-provisions a replaced node. Missing metadata comes from its
// replicas, which the dump left on the rank's K-1 partners.
//
// Restore succeeds as long as at most K-1 nodes were lost, the guarantee
// the replication factor buys.
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
// onto rec (a nil track records nothing).
func RestoreOutputCtx(ctx context.Context, c collectives.Comm, store storage.Store, name string, rec *obs.Track) (*RestoreResult, error) {
	return collective(ctx, c, rec, func(t *tracker) (*RestoreResult, error) {
		return restoreOutput(t, store, name)
	})
}

// restoreOutput runs the restore pipeline, its phases timed and
// attributed by t.
func restoreOutput(t *tracker, store storage.Store, name string) (*RestoreResult, error) {
	c := t.c
	me, n := c.Rank(), c.Size()
	restoreStart := time.Now()
	m := metrics.Restore{Rank: me, RunLengths: metrics.NewHistogram()}
	t.slot = m.Phases.Slot
	restoreSpan := t.rec.Begin("restore").Arg("dataset", name)
	defer restoreSpan.End()
	defer t.end() // a failed phase's span ends inside the restore's

	// Local reads go through a fresh Timed wrapper so the restore's
	// read-latency histogram covers exactly this restore. The fetch
	// server answers peers from the raw store: peer-serving reads are the
	// peers' fetch cost, not this rank's local read path.
	timed := storage.NewTimed(store)
	fs := fetch.NewStats(n)
	srv := fetch.Serve(c, store, fetchClass)
	defer srv.Stop()

	t.begin("restore-meta")
	meta, metaFetched, err := loadMeta(c, timed, fs, name)
	if err != nil {
		return nil, fmt.Errorf("rank %d: %w", me, err)
	}
	localBlobReads := 0 // successful local blob reads (meta, holdings record)
	if metaFetched {
		m.MetaFetches = 1
		// The metadata sweep asks one peer at a time, so its share of the
		// Fetch phase is the sum of those round trips.
		m.Phases.Fetch = time.Duration(fs.Latency().Sum())
	} else {
		localBlobReads++
	}
	m.TotalChunks = meta.Recipe.Len()

	t.begin("assemble")
	a := &assembly{comm: c, store: timed, fs: fs, meta: meta, m: &m}
	err = a.walk()
	if err == nil && len(a.holes) > 0 {
		// Exchanges overlap, so the fetch stage is charged as wall time:
		// first ask sent to last reply placed, inside Assemble. It is no
		// phase of its own on the transport: a fault keyed to assemble
		// fires here too.
		fetchSpan := t.rec.Begin("fetch").Arg("fingerprints", fmt.Sprint(len(a.holes)))
		fetchStart := time.Now()
		err = a.fetchHoles()
		m.Phases.Fetch += time.Since(fetchStart)
		fetchSpan.End()
	}
	t.span.Arg("fetched-chunks", fmt.Sprint(m.FetchedChunks))
	if err != nil {
		return nil, fmt.Errorf("rank %d assemble %q: %w", me, name, err)
	}
	a.noteRuns()
	// Every position not fetched was local: read, or copied from the
	// first position of its fingerprint.
	m.LogicalBytes = int64(len(a.buf))
	m.LocalChunks, m.LocalBytes = m.TotalChunks-m.FetchedChunks, m.LogicalBytes-m.FetchedBytes

	t.begin("restore-commit")
	// The re-provisioned references belong to this dataset: set their first
	// positions in its holdings record, so a later Forget releases them too.
	// A record that does not decode is not overwritten: it would leak.
	if len(a.fetched) > 0 {
		var h holdings
		blob, gerr := timed.GetBlob(gcName(name, me))
		if gerr == nil {
			localBlobReads++
		}
		if len(blob) > 0 {
			h, err = unmarshalHoldings(blob)
		}
		i := slices.IndexFunc(h, func(e holding) bool { return e.rank == me })
		if i < 0 {
			i, h = len(h), append(h, newHolding(me, meta.Recipe.Len()))
		}
		if err != nil || h[i].n != meta.Recipe.Len() {
			return nil, fmt.Errorf("rank %d holdings record of %q: %w", me, name, cmp.Or(err, fmt.Errorf("%d positions, its recipe %d", h[i].n, meta.Recipe.Len())))
		}
		for _, p := range a.fetched {
			h[i].set(int(p))
		}
		if err := timed.PutBlob(gcName(name, me), h.marshal()); err != nil && !errors.Is(err, storage.ErrFailed) {
			return nil, err
		}
	}
	// Re-persist fetched metadata locally so future restores are local
	// again; metadata read locally is already there.
	if metaFetched {
		if blob, merr := meta.MarshalBinary(); merr == nil {
			if err := timed.PutBlob(metaName(name, me), blob); err != nil && !errors.Is(err, storage.ErrFailed) {
				return nil, err
			}
		}
	}
	// Best-effort durability for the re-provisioned chunks and metadata
	// on commit-aware engines: losing them to a crash only costs a
	// re-fetch on the next restore, so errors don't fail the restore.
	_ = timed.Commit()

	// All ranks keep serving until everyone has finished assembling.
	t.begin("restore-barrier")
	err = collectives.Barrier(c)
	t.end()
	if err != nil {
		return nil, fmt.Errorf("rank %d restore barrier: %w", me, err)
	}

	// The completion barrier's exit stamp doubles as this rank's wall-clock
	// anchor for cross-rank clock-offset estimation (telemetry plane).
	if st := c.Stats(); !st.LastBarrierExit.IsZero() {
		m.BarrierExit = st.LastBarrierExit
	} else {
		m.BarrierExit = time.Now()
	}
	m.Phases.Total = time.Since(restoreStart)
	// The fetch client's and timed store's instrumentation. (Phases.Fetch
	// is stamped where the fetches happen, as wall time.)
	m.ObjectsTouched = a.localObjects() + localBlobReads
	m.FetchRequests, m.FetchMisses = fs.Requests(), fs.Misses()
	m.PeerFetchChunks, m.PeerFetchBytes = fs.PeerChunks(), fs.PeerBytes()
	m.SourceRanks, m.FetchLatency = fs.SourceRanks(), fs.Latency()
	if reads := timed.ReadLatency(); reads.Count() > 0 {
		m.StoreReadLatency = reads
	}
	restoreSpan.Arg("read-amp-bytes", fmt.Sprintf("%.3f", m.ReadAmplificationBytes()))
	return &RestoreResult{Data: a.buf, Metrics: m}, nil
}

// loadMeta retrieves this rank's RestoreMeta: locally if possible,
// otherwise from the peers holding a replica — the K-1 partners of the
// dump, which neither K nor the shuffle is known to name here, so the
// sweep asks (me+d) mod n for d = 1, 2, … and takes the first replica it
// finds, passing over tombstones. The bool reports whether the blob had
// to come from a peer.
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
			if ok && len(data) > 0 {
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

// readBatch bounds a batch of the walk's reads to this many records, and
// to collectives.MaxPutBytes of the image (a larger chunk is read alone).
const readBatch = 256

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
	// seen is the walk's one fingerprint-keyed table: every distinct
	// fingerprint of the recipe, placed or a hole.
	seen  map[fingerprint.FP]span
	holes []hole
	// repeats are the later positions of holes, copied from the first
	// once every hole is filled.
	repeats []repeat
	peers   []peerQueue
	// The batch being read: its records, their outcomes, and the image
	// offset their Off counts from; pending are its positions in recipe
	// order, first positions and later ones of fingerprints it may hold.
	recs    []storage.Record
	errs    []error
	batchAt int64
	pending []pending
	// fetched lists the first recipe positions of the fetched chunks the
	// local store took (re-provisioned).
	fetched []int32
	// refilled counts fetched fingerprints that filled more than one hole.
	refilled int
}

// span is an entry of the walk's table: the image offset and length of a
// fingerprint's first position and, if the store could not serve it, the
// index of its hole (else -1). It holds no pointer, so the table costs
// the garbage collector nothing.
type span struct {
	off        int64
	size, hole int32
}

// pending is a position of the batch: recipe index i at image offset off,
// and the index of its record, or -1 for a later position.
type pending struct {
	i   int
	off int64
	rec int
}

// repeat copies size bytes at src to dst in the image.
type repeat struct{ dst, src, size int64 }

// hole is a fingerprint the local store could not serve: where its first
// position is, whether later positions repeat it, and how far down its
// candidate list the asking has got.
type hole struct {
	fp    fingerprint.FP
	size  int32
	first int   // recipe index of the first position
	off   int64 // image offset of the first position
	later bool  // the recipe repeats it
	hints []int32
	asked int // candidates consumed: hints first, then the sweep
}

// peerQueue is what is still to be asked of one peer — hole indices, in
// filing order — and how many requests to it await their reply.
type peerQueue struct {
	queue    []int32
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

// walk reads each distinct fingerprint the local store serves once,
// straight into place, and copies the bytes of that first position into
// every later one. First positions are read in batches, one
// Store.ReadRecords each, and settled in recipe order: a first position
// is checked against its recipe length, a later one against the first.
// The walk does not SHA-1 them: every byte entered the store bound to its
// fingerprint, and the store's checksum vouches they have not changed
// since, so a storage.ErrCorrupt fails the walk. A fingerprint the store
// cannot serve otherwise (not found, read error, failed store) becomes a
// hole, queued at the first peer to ask; its later positions wait in
// repeats until the hole is filled.
func (a *assembly) walk() error {
	r := a.meta.Recipe
	total := r.TotalBytes()
	if total < 0 {
		return fmt.Errorf("recipe describes %d bytes", total)
	}
	a.buf = make([]byte, total)
	a.source = make([]int32, r.Len())
	a.seen = make(map[fingerprint.FP]span, r.Len())
	a.peers = make([]peerQueue, a.comm.Size())
	var off int64
	for i, fp := range r.FPs {
		size := int64(r.Sizes[i])
		if size < 0 || off+size > total {
			return a.settle(fmt.Errorf("chunk %d (%s): recipe size %d", i, fp.Short(), size))
		}
		sp, seen := a.seen[fp]
		switch {
		case seen && len(a.recs) > 0 && sp.off >= a.batchAt:
			// The first position may still be in the batch.
			a.pending = append(a.pending, pending{i: i, off: off, rec: -1})
		case seen:
			if err := a.settleLater(i, off, sp); err != nil {
				return a.settle(err)
			}
		default:
			if len(a.recs) == readBatch || len(a.recs) > 0 && off+size-a.batchAt > collectives.MaxPutBytes {
				if err := a.settle(nil); err != nil {
					return err
				}
			}
			if len(a.recs) == 0 {
				a.batchAt = off
			}
			a.pending = append(a.pending, pending{i: i, off: off, rec: len(a.recs)})
			a.recs = append(a.recs, storage.Record{FP: fp, Off: int32(off - a.batchAt), Len: r.Sizes[i]})
			a.seen[fp] = span{off: off, size: r.Sizes[i], hole: -1}
		}
		off += size
	}
	if err := a.settle(nil); err != nil {
		return err
	}
	a.m.UniqueChunks = len(a.seen)
	return nil
}

// settle reads the batch into the image and settles its positions in
// recipe order: a first position is placed, fails the walk or becomes a
// hole; a later one is settled against it. It returns the first error, or
// else next, the error of the position after the batch.
func (a *assembly) settle(next error) error {
	if len(a.recs) == 0 {
		return next
	}
	a.errs = slices.Grow(a.errs[:0], len(a.recs))[:len(a.recs)]
	a.store.ReadRecords(a.buf[a.batchAt:], a.recs, a.errs)
	r := a.meta.Recipe
	for _, p := range a.pending {
		fp, size := r.FPs[p.i], r.Sizes[p.i]
		if p.rec < 0 {
			if err := a.settleLater(p.i, p.off, a.seen[fp]); err != nil {
				return err
			}
			continue
		}
		var wrong storage.LengthError
		switch rerr := a.errs[p.rec]; {
		case rerr == nil:
		case errors.Is(rerr, storage.ErrCorrupt):
			return fmt.Errorf("chunk %d: content does not match fingerprint %s", p.i, fp.Short())
		case errors.As(rerr, &wrong):
			return fmt.Errorf("chunk %d (%s): got %d bytes, recipe says %d", p.i, fp.Short(), wrong.Got, size)
		default:
			hi := int32(len(a.holes))
			a.seen[fp] = span{off: p.off, size: size, hole: hi}
			a.holes = append(a.holes, hole{fp: fp, size: size, first: p.i, off: p.off, hints: a.meta.Hints[fp]})
			if err := a.enqueue(hi); err != nil {
				return err
			}
		}
	}
	a.recs, a.pending = a.recs[:0], a.pending[:0]
	return next
}

// settleLater settles a later position i, at off in the image, of the
// fingerprint whose first position sp describes: the sizes must agree; a
// placed chunk is copied at once, a hole's repeat waits for the hole.
func (a *assembly) settleLater(i int, off int64, sp span) error {
	fp, size := a.meta.Recipe.FPs[i], a.meta.Recipe.Sizes[i]
	switch {
	case sp.hole < 0 && sp.size != size:
		return fmt.Errorf("chunk %d (%s): got %d bytes, recipe says %d", i, fp.Short(), sp.size, size)
	case sp.size != size:
		return fmt.Errorf("chunk %d (%s): recipe says %d bytes here and %d earlier", i, fp.Short(), size, sp.size)
	case sp.hole < 0:
		copy(a.buf[off:off+int64(size)], a.buf[sp.off:])
	default:
		a.holes[sp.hole].later = true
		a.repeats = append(a.repeats, repeat{dst: off, src: sp.off, size: int64(size)})
	}
	return nil
}

// enqueue files hole hi with the next peer on its candidate list; a
// fingerprint nobody is left to ask for is lost.
func (a *assembly) enqueue(hi int32) error {
	h := &a.holes[hi]
	peer, ok := h.nextPeer(a.comm.Rank(), a.comm.Size())
	if !ok {
		return fmt.Errorf("chunk %s lost on all surviving nodes", h.fp.Short())
	}
	a.peers[peer].queue = append(a.peers[peer].queue, hi)
	return nil
}

// cut takes the next request off the front of q: as many holes as keep
// the expected reply within collectives.MaxPutBytes, at least one (a
// chunk above the cap travels alone). It returns the holes' fingerprints
// and the holes themselves, in the same order.
func (q *peerQueue) cut(holes []hole) ([]fingerprint.FP, []int32) {
	n, payload := 0, int64(0)
	for n < len(q.queue) {
		next := payload + int64(holes[q.queue[n]].size)
		if n > 0 && fetch.ReplyBytes(n+1, next) > collectives.MaxPutBytes {
			break
		}
		n, payload = n+1, next
	}
	cut := q.queue[:n:n]
	fps := make([]fingerprint.FP, n)
	for i, hi := range cut {
		fps[i] = holes[hi].fp
	}
	q.queue = q.queue[n:]
	return fps, cut
}

// fetchHoles fills the holes: it keeps every peer with queued
// fingerprints topped up to fetchDepth requests and consumes replies in
// whatever order they arrive, record i of a reply answering hole i of the
// request with the reply's exchange id. A record is accepted when its
// length matches the recipe and its bytes the sum the peer's store checked
// them against, taken over the fingerprint asked for (storage.CheckSum):
// the sum guards the bytes from that store to this rank, and another
// chunk's bytes under their own true sum fail it. Nothing fetched is
// hashed. Only an accepted record is stored (re-provisioning this node,
// under the sum just checked) and placed. Anything else — not found, wrong length, corrupt — is a
// miss, and the hole moves on to its next candidate's queue. A reply goes
// back to the transport once its records are copied. Once every hole is
// filled, the repeated positions are copied from the first.
func (a *assembly) fetchHoles() error {
	pipe := fetch.NewPipeline(a.comm, fetchClass)
	var asked [][]int32 // the holes of every request, by exchange id
	for {
		for p := range a.peers {
			q := &a.peers[p]
			for q.inflight < fetchDepth && len(q.queue) > 0 {
				fps, cut := q.cut(a.holes)
				if err := pipe.Ask(p, fps); err != nil {
					return err
				}
				asked = append(asked, cut)
				q.inflight++
			}
		}
		if pipe.Outstanding() == 0 {
			break
		}
		ex, err := pipe.Next()
		if err != nil {
			return err
		}
		a.peers[ex.Peer].inflight--
		served, servedBytes := 0, int64(0)
		for i, hi := range asked[ex.ID] {
			h, r := &a.holes[hi], ex.Records[i]
			if !r.Found || len(r.Data) != int(h.size) || storage.CheckSum(&h.fp, r.Data, r.Sum) != nil {
				if err := a.enqueue(hi); err != nil {
					return err
				}
				continue
			}
			if err := a.accept(h, ex.Peer, r.Data, r.Sum); err != nil {
				return err
			}
			served++
			servedBytes += int64(h.size)
		}
		pipe.Release(ex)
		a.fs.Exchange(ex.Peer, len(ex.FPs), served, servedBytes, ex.Elapsed)
	}
	for _, rp := range a.repeats {
		copy(a.buf[rp.dst:rp.dst+rp.size], a.buf[rp.src:])
	}
	return nil
}

// accept places verified bytes: into the local store with the sum they
// were checked against (ErrFailed is tolerated — a failed store just stays
// un-provisioned) and at the hole's first position, which counts as
// fetched from peer. Later positions count as local, which is where a
// position-by-position walk would have found the re-provisioned copy.
func (a *assembly) accept(h *hole, peer int, data []byte, sum uint32) error {
	switch err := a.store.PutChunkSum(h.fp, data, sum); {
	case err == nil:
		a.fetched = append(a.fetched, int32(h.first))
	case !errors.Is(err, storage.ErrFailed):
		return err
	}
	copy(a.buf[h.off:], data)
	a.source[h.first] = int32(peer) + 1
	a.m.FetchedChunks++
	a.m.FetchedBytes += int64(h.size)
	if h.later {
		a.refilled++
	}
	return nil
}

// localObjects is the number of distinct fingerprints served by the local
// store: those that never were a hole, plus the fetched ones whose later
// positions count as local reads.
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
