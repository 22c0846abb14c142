package core

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"dedupcr/internal/chunk"
	"dedupcr/internal/collectives"
	"dedupcr/internal/fingerprint"
	"dedupcr/internal/metrics"
	"dedupcr/internal/obs"
	"dedupcr/internal/storage"
)

// tagMeta carries a rank's RestoreMeta to its K-1 partners, which keep
// it as the replicas of its metadata and read its window records by it.
const tagMeta collectives.Tag = 17

// Result is the outcome of one collective dump on one rank.
type Result struct {
	// Metrics is the rank's instrumentation for the dump.
	Metrics metrics.Dump
	// Plan is the communication schedule that was executed; experiments
	// read receive-size distributions and partner maps from it. It is
	// identical on every rank.
	Plan *Plan
	// Global is the broadcast global fingerprint view (GHashes); nil for
	// the baselines, which never build one.
	Global *fingerprint.Table
}

// item is one chunk this rank keeps: it is stored locally and sent to
// the partners whose indices (1..K-1) appear in partners, in ascending
// order. An empty set means store-only. partners may be a row of
// prefixes shared with other items: replace it, never write through it.
type item struct {
	ch chunk.Chunk
	// pos is the chunk's first recipe position, which its records carry.
	pos      int32
	partners []int
	// entry is the chunk's global-view entry when it has designated
	// ranks and fewer than K of them (coll-dedup only): its replica
	// targets are refined after partner identities are known.
	entry *fingerprint.Entry
}

// prefixes returns the partner index sets 1..p for every p in [0, k): row
// p of the result. They are windows of one array, built once per dump and
// shared read-only by every item that sends to its first p partners.
func prefixes(k int) [][]int {
	full := make([]int, max(k-1, 0))
	out := make([][]int, len(full)+1)
	for p := range out {
		if p > 0 {
			full[p-1] = p
		}
		out[p] = full[:p:p]
	}
	return out
}

// tracker keeps a collective pipeline's phase bookkeeping. At most one
// phase is open at a time, and its one name is the error-attribution
// label (failCollective), the phase the transport sees (NotePhase, which
// phase-scoped fault injection keys on), the trace span on rec and the
// phase-table row of the metrics its wall time accrues to. A nil rec
// records no spans, so uninstrumented runs pay two clock reads per phase.
type tracker struct {
	c     collectives.Comm
	rec   *obs.Track
	slot  func(phase string) *time.Duration // the pipeline's phase record
	phase string                            // the phase last begun

	span        *obs.Span
	dst         *time.Duration // the open phase's slot, nil when none is open
	start, last time.Time      // when the open phase began, when end last ran
}

// begin ends the open phase, if any, and opens the named one at that same
// instant: the phases tile the pipeline, bookkeeping included.
func (t *tracker) begin(name string) {
	t.end()
	t.phase = name
	collectives.NotePhase(t.c, name)
	t.span = t.rec.Begin(name)
	t.dst = t.slot(name)
	t.start = t.last
}

// end accrues the open phase's wall time into its slot and ends its span.
// The phase stays the attribution label until the next begin.
func (t *tracker) end() {
	if t.last = time.Now(); t.dst == nil {
		return
	}
	*t.dst += t.last.Sub(t.start)
	t.span.End()
	t.dst = nil
}

// collective runs one collective pipeline on this rank under ctx, the
// scaffold the dump and the restore share: a ctx already done fails before
// anything runs; cancelling ctx mid-way aborts the group; and a failure
// aborts the group and comes back as a *collectives.CollectiveError naming
// the phase the pipeline was in.
func collective[T any](ctx context.Context, c collectives.Comm, rec *obs.Track, run func(*tracker) (T, error)) (T, error) {
	var zero T
	if ctx != nil && ctx.Err() != nil {
		return zero, context.Cause(ctx)
	}
	stop := collectives.WatchContext(ctx, c)
	defer stop()
	// NotePhase labels the goroutine per phase for CPU profiles; drop the
	// last label once the pipeline is done.
	defer obs.ClearPhaseLabel()
	t := &tracker{c: c, rec: rec}
	res, err := run(t)
	if err != nil {
		return zero, failCollective(c, err, t.phase)
	}
	return res, nil
}

// DumpOutput is the paper's collective write primitive: every rank of c
// calls it simultaneously with its local dataset buf; on return the
// dataset is stored on the rank's local store and protected by o.K-1
// additional replicas spread across partner nodes — with coll-dedup,
// counting naturally distributed duplicates toward the replication
// factor.
//
// DumpOutput is collective and synchronizing: all ranks must call it with
// the same Options (except buf, whose size may differ per rank). It is
// equivalent to DumpOutputCtx with a background context.
func DumpOutput(c collectives.Comm, store storage.Store, buf []byte, o Options) (*Result, error) {
	return DumpOutputCtx(context.Background(), c, store, buf, o)
}

// DumpOutputCtx is DumpOutput under a context: cancelling ctx (or passing
// its deadline) aborts the collective on this rank and disseminates the
// abort through the transport, so every rank of the group unblocks
// promptly instead of deadlocking on the missing participant.
//
// Any mid-dump failure — a cancelled context, a dead rank, a store error —
// likewise aborts the group: survivors return a *collectives.CollectiveError
// naming the failed ranks, the pipeline phase, and the cause (match it
// with errors.As, or errors.Is against collectives.ErrAborted and
// collectives.ErrRankFailed). The local store is left consistent: either
// the dump committed fully, or every partial effect was rolled back so
// the dataset name stays Forget-clean. After an abort the communicator is
// poisoned and must be recreated; previously committed datasets remain
// restorable.
func DumpOutputCtx(ctx context.Context, c collectives.Comm, store storage.Store, buf []byte, o Options) (*Result, error) {
	o, err := o.normalized(c.Size())
	if err != nil {
		return nil, err
	}
	return collective(ctx, c, o.Trace, func(t *tracker) (*Result, error) {
		return dumpOutput(t, store, buf, o)
	})
}

// failCollective terminates a collective operation that failed on this
// rank: the communicator is aborted so every blocked peer unblocks and
// observes the failure on its next collective step, and the error is
// wrapped into a *collectives.CollectiveError carrying the pipeline phase.
// The wrap always allocates a fresh CollectiveError: in-proc groups share
// one instance across all ranks, so decorating it in place would race.
func failCollective(c collectives.Comm, err error, phase string) error {
	collectives.Abort(c, err)
	out := err
	var ce *collectives.CollectiveError
	switch {
	case errors.As(err, &ce) && ce.Phase != "":
		phase = ce.Phase
	case ce != nil:
		ce = &collectives.CollectiveError{Ranks: ce.Ranks, Phase: phase, Cause: err}
		out = ce
	default:
		ce = &collectives.CollectiveError{Ranks: []int{c.Rank()}, Phase: phase, Cause: err}
		out = ce
	}
	// Black-box the failure: stamp the taxonomy record in the flight
	// recorder and write a post-mortem bundle (no-op without a configured
	// bundle directory; cascades within the suppression window collapse
	// into the first bundle).
	obs.Logf(obs.KindError, c.Rank(), phase, 0, "%v", out)
	obs.Trigger(obs.Failure{
		Kind: "collective-error", Rank: c.Rank(), Ranks: ce.Ranks,
		Phase: phase, Cause: out.Error(),
	})
	return out
}

// dumpOutput runs the dump pipeline with already-normalized options, its
// phases timed and attributed by t.
func dumpOutput(t *tracker, store storage.Store, buf []byte, o Options) (*Result, error) {
	c := t.c
	me, n := c.Rank(), c.Size()
	m := metrics.Dump{Rank: me, DatasetBytes: int64(len(buf))}
	t.slot = m.Phases.Slot
	dumpStart := time.Now()
	dumpSpan := o.Trace.Begin("dump").
		Arg("approach", o.Approach.String()).
		Arg("bytes", fmt.Sprint(len(buf)))
	defer dumpSpan.End()
	defer t.end() // a failed phase's span ends inside the dump's

	// Phase 1 — chunking and fingerprinting (every byte is hashed once).
	// Both chunkers (fixed and gear) expose their boundary scan separately
	// from hashing (chunk.CutChunker), so the two costs are attributed to
	// their own phases regardless of which spec Options.Chunker selected.
	// Hashing runs on up to Parallelism workers, and phase 2 — the
	// first-occurrence filter, plus the reduction's leaf-table build for
	// coll-dedup — runs as finished chunks stream out in dataset order, so
	// its cost falls into the fingerprint wall time. Every worker count
	// produces the same chunks, the same uniq order and the same leaf
	// table.
	cc, err := chunk.New(o.Chunker)
	if err != nil {
		// Unreachable after normalization validated the spec; fail loudly
		// rather than silently substituting a default chunker.
		return nil, fmt.Errorf("rank %d chunker: %w", me, err)
	}
	t.begin("chunking")
	cuts := cc.Cuts(buf)
	t.begin("fingerprint")
	var leaf *fingerprint.Table // the reduction's leaf table (coll-dedup only)
	if o.Approach == CollDedup {
		leaf = fingerprint.NewTable(o.F, o.K)
	}
	seen := make(map[fingerprint.FP]struct{}, len(cuts))
	uniq := make([]chunk.Chunk, 0, len(cuts))
	first := make([]int32, 0, len(cuts)) // uniq[i]'s first position in chunks (the recipe)
	var pos int32
	chunks, busy := chunk.FromCutsStream(buf, cuts, o.Parallelism, func(span []chunk.Chunk) {
		for _, ch := range span {
			pos++
			if _, ok := seen[ch.FP]; ok {
				continue
			}
			seen[ch.FP] = struct{}{}
			uniq, first = append(uniq, ch), append(first, pos-1)
			if leaf != nil {
				leaf.AddLocal(ch.FP, int32(me))
			}
		}
	})
	m.Phases.FingerprintWorkers = busy
	// Only the leaf table's top-F trim remains of local dedup.
	t.begin("local-dedup")
	if leaf != nil {
		leaf.Trim()
	}
	m.TotalChunks = len(chunks)
	m.HashedBytes = int64(len(buf))
	m.LocalUniqueChunks = len(uniq)

	// Phase 3 — classification. For coll-dedup this runs the collective
	// fingerprint reduction and decides, per chunk: discard (enough
	// natural replicas elsewhere), store only, or store and replicate;
	// replica targets of designated chunks stay provisional until the
	// partner identities are known (phase 5). Its cost files under the
	// reduction phase for coll-dedup (the global view drives it) and
	// under planning for the baselines (plain partner assignment).
	if o.Approach == CollDedup {
		t.begin("reduction")
	} else {
		t.begin("planning")
	}
	items, hints, global, err := classify(c, chunks, uniq, first, leaf, o, &m)
	if err != nil {
		return nil, fmt.Errorf("rank %d classify: %w", me, err)
	}

	// Phase 4 — provisional load vectors and their allgather (Algorithm
	// 1, l. 4-10). These drive the rank shuffle; per-partner splits may
	// still shift in phase 5, totals cannot.
	load := sendLoads(items, o.K)
	pre := c.Stats()
	t.begin("load-exchange")
	sendLoad, err := collectives.AllgatherInt64(c, load)
	if err != nil {
		return nil, fmt.Errorf("rank %d load allgather: %w", me, err)
	}
	m.LoadExchangeBytes = c.Stats().BytesSent - pre.BytesSent

	// Phase 5 — partner selection (Algorithm 2) from the provisional
	// totals, then replica-target refinement: designated ranks re-aim
	// their extra copies at partners that are not already natural
	// holders (a correctness refinement over the paper; see DESIGN.md).
	// The refined per-partner loads are allgathered again so the offset
	// planning (Algorithm 3) stays exact.
	totals := make([]int64, n)
	for r, row := range sendLoad {
		for d := 1; d < o.K; d++ {
			totals[r] += row[d]
		}
	}
	t.begin("planning")
	shuffle := SelectShuffle(totals, o)
	if o.Approach == CollDedup {
		refineTargets(items, shuffle, o.K, me)
		load = sendLoads(items, o.K)
		pre = c.Stats()
		t.begin("load-exchange")
		sendLoad, err = collectives.AllgatherInt64(c, load)
		if err != nil {
			return nil, fmt.Errorf("rank %d refined load allgather: %w", me, err)
		}
		m.LoadExchangeBytes += c.Stats().BytesSent - pre.BytesSent
	}
	t.begin("planning")
	plan, err := NewPlan(shuffle, sendLoad, o.K)
	if err != nil {
		return nil, fmt.Errorf("rank %d plan: %w", me, err)
	}

	// Phase 6 — single-sided exchange: open an exactly-sized window, send
	// this rank's RestoreMeta to its K-1 partners (they keep its replicas
	// and read its records by it), and put each replicated chunk into the
	// partner windows at the planned offsets. The own window is drained in
	// phase 7.
	winSize := plan.WindowSize(me)
	m.WindowBytes = winSize
	t.begin("window-open")
	win := collectives.OpenWindow(c, winSize, c.NextSeq())
	m.PutLatency = metrics.NewHistogram()
	win.OnPut = func(bytes int, d time.Duration) {
		m.PutLatency.Record(d.Nanoseconds())
	}
	win.PutTimeout = o.Retry.PutTimeout
	var putRetries atomic.Int64
	offs := plan.Offsets(me)
	t.begin("put")
	metaBlob, err := (&RestoreMeta{Rank: int32(me), K: int32(o.K), Recipe: chunk.BuildRecipe(chunks), Hints: hints}).MarshalBinary()
	for d := 1; err == nil && d < o.K; d++ {
		to := plan.Partner(me, d)
		err = sendRetry(me, to, o.Retry, &putRetries, func() error { return c.Send(to, tagMeta, metaBlob) })
	}
	if err == nil { // else the metadata did not go out: put nothing
		err = put(win, plan, items, offs, o, me, &m, &putRetries)
	}
	m.PutRetries = putRetries.Load()
	if err != nil {
		return nil, fmt.Errorf("rank %d %w", me, err)
	}

	// Phase 7 — commit: own chunks, then each window frame's records once
	// the frame has landed and passed its checksum (time blocked on the
	// window is WindowWait), read by the senders' RestoreMeta, the holdings
	// record that lets Forget reclaim this dataset, and the metadata: own
	// and the senders' replicas. Every stored reference (a bit of cm.held)
	// and metadata replica — the senders', and those an earlier dump of the
	// name left here (prev) — is tracked so a failure anywhere from here on
	// rolls the local store back to its pre-dump state (see rollbackDump):
	// the consistency half of the abort protocol.
	t.begin("commit")
	regions := make([]region, o.K-1)
	for d := 1; d < o.K; d++ {
		s := plan.Sender(me, d)
		regions[d-1] = region{rank: s, size: plan.SendLoad[s][d]}
	}
	// An earlier dump of the name is replaced: its references are derived
	// before this dump overwrites the metadata they are read from. A record
	// that does not decode or match its metadata: fail, storing nothing.
	var prev holdings
	var prevRefs []fingerprint.FP
	if blob, err := store.GetBlob(gcName(o.Name, me)); err == nil && len(blob) > 0 {
		if prev, prevRefs, err = storedRefs(store, o.Name, blob); err != nil {
			return nil, fmt.Errorf("rank %d earlier dump of %q: %w", me, o.Name, err)
		}
	}
	// A frame of this window holds about min(MaxPutBytes, window) / (4 +
	// chunk size) records: the batch is sized for that once rather than
	// grown on every dump.
	perFrame := min(collectives.MaxPutBytes, winSize) / int64(4+o.Chunker.Size)
	cm := &committer{store: store, m: &m, regions: regions, held: holdings{newHolding(me, len(chunks))},
		batch: make([]storage.Record, 0, perFrame), at: make([]mark, 0, perFrame),
		next: func() ([]byte, uint32, error) {
			t.begin("window-wait")
			frame, sum, err := win.Next()
			if err != nil && err != io.EOF {
				return frame, sum, fmt.Errorf("window: %w", err) // a failed wait is window-wait's
			}
			t.begin("commit")
			return frame, sum, err
		},
		release: func(frame []byte, kept bool) {
			if kept {
				win.Keep(frame)
			} else {
				win.Release(frame)
			}
		}}
	// metas[i] is the RestoreMeta bitmap i of cm.held is read against.
	metas := [][]byte{metaBlob}
	rollback := func() {
		refs, _ := cm.held.refs(func(i int) ([]byte, error) { return metas[i], nil })
		rollbackDump(store, o.Name, me, append(prev.ranks(), cm.held.ranks()...), append(refs, prevRefs...))
	}
	err = func() error {
		for d, r := range regions {
			var err error
			if regions[d].meta, err = c.Recv(r.rank, tagMeta); err != nil {
				return fmt.Errorf("rank %d metadata from %d: %w", me, r.rank, err)
			}
			metas = append(metas, regions[d].meta)
		}
		for _, it := range items {
			if err := store.PutChunkSum(it.ch.FP, it.ch.Data, it.ch.Sum); err != nil {
				return fmt.Errorf("rank %d store chunk: %w", me, err)
			}
			cm.held[0].set(int(it.pos))
			m.StoredChunks++
			m.StoredBytes += int64(len(it.ch.Data))
		}
		if err := cm.commit(); err != nil {
			return fmt.Errorf("rank %d receive: %w", me, err)
		}
		if err := store.PutBlob(gcName(o.Name, me), cm.held.marshal()); err != nil {
			return fmt.Errorf("rank %d holdings record: %w", me, err)
		}
		// The replicas an earlier dump of the name left here are tombstoned,
		// so none survives a change of ring; then own and senders' metadata.
		err := tombstoneMeta(store, o.Name, prev.ranks())
		for i, r := range cm.held.ranks() {
			if err == nil {
				err = store.PutBlob(metaName(o.Name, r), metas[i])
			}
		}
		if err != nil {
			return fmt.Errorf("rank %d persist meta: %w", me, err)
		}
		// Checkpoint-grained durability point: on commit-aware engines
		// (the segment store) this seals the active segment and publishes
		// the manifest atomically, so the whole dump becomes durable as
		// one unit — a crash after this line reopens to this checkpoint, a
		// crash before it to the previous one, never to a torn mix.
		if err := store.Commit(); err != nil {
			return fmt.Errorf("rank %d store commit: %w", me, err)
		}
		return nil
	}()
	if err != nil {
		rollback()
		return nil, err
	}

	// The dump completes collectively once everyone has committed. The
	// barrier's dissemination structure gives the consistency argument its
	// other half: no rank exits the barrier before every rank has entered
	// it, i.e. before every rank has committed. So if the barrier fails,
	// no rank can have completed the dump — every survivor rolls back and
	// the dataset is globally absent, as if the dump never ran.
	t.begin("barrier")
	if err := collectives.Barrier(c); err != nil {
		rollback()
		return nil, fmt.Errorf("rank %d final barrier: %w", me, err)
	}
	// Only now is the earlier dump gone for good: release what it stored.
	// Best-effort like a rollback: a missed release only leaks a refcount.
	if len(prevRefs) > 0 {
		for _, fp := range prevRefs {
			_ = store.ReleaseChunk(fp)
		}
		_ = store.Commit()
	}
	t.end()
	// The completion barrier's exit stamp doubles as this rank's wall-clock
	// anchor for cross-rank clock-offset estimation (telemetry plane).
	if st := c.Stats(); !st.LastBarrierExit.IsZero() {
		m.BarrierExit = st.LastBarrierExit
	} else {
		m.BarrierExit = time.Now()
	}
	m.Phases.Total = time.Since(dumpStart)
	return &Result{Metrics: m, Plan: plan, Global: global}, nil
}

// sendRetry drives one send of the put phase — a window put or the
// metadata — under the dump's retry policy: transient transport failures
// (refused dials, timed-out puts, injected faults) are retried up to
// rp.Attempts times with doubling backoff, counting each retry; aborts,
// rank failures and cancellations are final and returned immediately. A
// failed send neither reached the target nor handed its buffer over, so
// the retry sends the same bytes (a put, at the same offset).
func sendRetry(me, target int, rp RetryPolicy, retries *atomic.Int64, send func() error) error {
	backoff := rp.Backoff
	for attempt := 1; ; attempt++ {
		err := send()
		if err == nil || attempt >= rp.Attempts || !collectives.IsTransient(err) {
			return err
		}
		retries.Add(1)
		obs.Logf(obs.KindRetry, me, "put", 0, "send to rank %d retry %d/%d: %v", target, attempt, rp.Attempts, err)
		if backoff > 0 {
			time.Sleep(backoff)
			backoff *= 2
		}
	}
}

// putPartner pushes every item destined for partner index d into the
// target's window: region bytes of records starting at off. The offset
// planning (Algorithm 3) makes that region one contiguous run, so the
// records — u32 recipe position | payload each, positions ascending (the
// receiver reads size and fingerprint from this rank's RestoreMeta) — go
// straight into a put frame, handed to the window once per MaxPutBytes
// of region; a record larger than that travels alone. Each frame's
// checksum folds the sums its chunks carry from ingest (recordSums): the
// payload is not read again. A handed-over frame is never touched again:
// the next records go into a new one. The per-partner regions are
// disjoint by construction, so putPartner calls for different d never
// touch the same window bytes — which is what makes them safe to run
// concurrently. Returns the chunks and payload bytes gathered, which is
// what was sent unless an error is returned too.
func putPartner(win *collectives.Window, me, target int, off, region int64, items []item, d int, rp RetryPolicy, retries *atomic.Int64) (int, int64, error) {
	var chunks int
	var bytes int64
	var frame []byte
	var sums recordSums
	used := 0 // record bytes in frame
	flush := func() error {
		if err := sendRetry(me, target, rp, retries, func() error { return win.PutFrame(target, off, frame, sums.crc) }); err != nil {
			return fmt.Errorf("put to %d: %w", target, err)
		}
		off += int64(used)
		region -= int64(used)
		frame, used, sums.crc = nil, 0, 0
		return nil
	}
	for _, it := range items {
		if !slices.Contains(it.partners, d) {
			continue
		}
		data := it.ch.Data
		if used > 0 && used+4+len(data) > collectives.MaxPutBytes {
			if err := flush(); err != nil {
				return chunks, bytes, err
			}
		}
		if frame == nil {
			frame = win.NewFrame(max(4+len(data), int(min(region, collectives.MaxPutBytes))))
		}
		frame = binary.BigEndian.AppendUint32(frame, uint32(it.pos))
		frame = append(frame, data...)
		sums.add(uint32(it.pos), it.ch.Sum)
		used += 4 + len(data)
		chunks++
		bytes += int64(len(data))
	}
	var err error
	if used > 0 {
		err = flush()
	}
	return chunks, bytes, err
}

// put pushes every item into the partner windows: one record stream per
// partner index (putPartner). min(o.Parallelism, K-1) workers claim the
// partner indices in ascending order, the calling goroutine being worker
// 0 and the rest goroutines of their own; once a stream fails no worker
// claims another. With one worker every stream runs on the caller in
// partner order, stopping at the first that fails, so a FaultPlan's send
// schedule is deterministic. Each stream lands at its planned offsets
// whatever the worker count, so the windows every peer drains are
// byte-identical; only the interleaving across partners changes.
// Per-partner counters are summed in partner order afterwards, keeping
// the metrics deterministic too, and each stream records its own trace
// span, attributed via the partner arg.
func put(win *collectives.Window, plan *Plan, items []item, offs []int64, o Options, me int, m *metrics.Dump, retries *atomic.Int64) error {
	type putResult struct {
		chunks int
		bytes  int64
		busy   time.Duration
		err    error
	}
	results := make([]putResult, o.K-1)
	stream := func(d int) error {
		start := time.Now()
		sp := o.Trace.Begin("put-worker").
			Arg("partner", fmt.Sprint(d)).
			Arg("target", fmt.Sprint(plan.Partner(me, d)))
		chunks, bytes, err := putPartner(win, me, plan.Partner(me, d), offs[d], plan.SendLoad[me][d], items, d, o.Retry, retries)
		sp.End()
		results[d-1] = putResult{chunks, bytes, time.Since(start), err}
		return err
	}
	var next atomic.Int32
	var failed atomic.Bool
	work := func() {
		for !failed.Load() {
			d := int(next.Add(1))
			if d >= o.K {
				return
			}
			if stream(d) != nil {
				failed.Store(true)
			}
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < min(o.Parallelism, o.K-1); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	m.Phases.PutWorkers = make([]time.Duration, o.K-1)
	var firstErr error
	for d, r := range results {
		m.SentChunks += r.chunks
		m.SentBytes += r.bytes
		m.Phases.PutWorkers[d] = r.busy
		if r.err != nil && firstErr == nil {
			firstErr = r.err
		}
	}
	return firstErr
}

// classify decides the fate of every chunk under the selected approach.
// It returns the chunks to keep (with their replication depth), the
// location hints for discarded chunks, and the global view (coll-dedup
// only). leaf is the trimmed reduction leaf table of this rank's unique
// fingerprints (coll-dedup only), built as they were hashed. first[i] is
// uniq[i]'s recipe position.
func classify(c collectives.Comm, all, uniq []chunk.Chunk, first []int32, leaf *fingerprint.Table, o Options, m *metrics.Dump) ([]item, map[fingerprint.FP][]int32, *fingerprint.Table, error) {
	rows := prefixes(o.K)
	switch o.Approach {
	case NoDedup:
		// Full replication: every chunk, duplicates included, is stored
		// and pushed to all K-1 partners. No redundancy is identified,
		// so the whole dataset counts as unique content.
		items := make([]item, len(all))
		for i, ch := range all {
			items[i] = item{ch: ch, pos: int32(i), partners: rows[o.K-1]}
		}
		m.UniqueContentBytes = m.DatasetBytes
		return items, nil, nil, nil

	case LocalDedup:
		items := make([]item, len(uniq))
		for i, ch := range uniq {
			items[i] = item{ch: ch, pos: first[i], partners: rows[o.K-1]}
			m.UniqueContentBytes += int64(len(ch.Data))
		}
		return items, nil, nil, nil

	case CollDedup:
		global, err := reduceGlobal(c, leaf, m)
		if err != nil {
			return nil, nil, nil, err
		}
		me := int32(c.Rank())
		items := make([]item, 0, len(uniq))
		hints := make(map[fingerprint.FP][]int32)
		for i, ch := range uniq {
			e := global.Lookup(ch.FP)
			if e == nil {
				// Treated as globally unique: classic replication.
				items = append(items, item{ch: ch, pos: first[i], partners: rows[o.K-1]})
				m.UniqueContentBytes += int64(len(ch.Data))
				continue
			}
			// Chunks in the global view are counted once group-wide: by
			// their first designated rank.
			if len(e.Ranks) > 0 && e.Ranks[0] == me {
				m.UniqueContentBytes += int64(len(ch.Data))
			}
			idx := e.RankIndex(me)
			if idx < 0 {
				// Other ranks are designated: the desired replication
				// factor is (or will be made) satisfied without us. The
				// hint aliases the global view's rank storage, which
				// nothing writes after the broadcast.
				hints[ch.FP] = e.Ranks
				continue
			}
			d := len(e.Ranks)
			if d >= o.K {
				// Enough natural replicas: store locally, send nothing.
				items = append(items, item{ch: ch, pos: first[i]})
				continue
			}
			// K-D missing replicas, distributed round-robin over the D
			// designated ranks; we serve the slots congruent to our
			// index in the designated list.
			p := roundRobinShare(o.K, d, idx)
			items = append(items, item{ch: ch, pos: first[i], partners: rows[p], entry: e})
		}
		return items, hints, global, nil

	default:
		return nil, nil, nil, fmt.Errorf("core: unknown approach %v", o.Approach)
	}
}

// refineTargets re-aims the extra replicas of designated chunks once
// partner identities are fixed by the shuffle. The paper sends the K-D
// missing copies to the designated ranks' first partners, which can land
// a copy on a rank that is itself a natural holder, silently lowering
// the distinct-node count below K. Because every rank shares the global
// view and the shuffle, all designated ranks can deterministically agree
// on targets that avoid holders and each other, falling back to the
// paper's behaviour only when the partner sets leave no choice.
//
// Only this rank's items are rewritten, but the slot walk below evolves
// identically on every designated rank of a fingerprint, so their target
// choices are consistent without communication.
func refineTargets(items []item, shuffle []int, k int, me int) {
	n := len(shuffle)
	pos := make([]int, n)
	for p, r := range shuffle {
		pos[r] = p
	}
	partnerOf := func(rank, d int) int { return shuffle[(pos[rank]+d)%n] }

	for i := range items {
		e := items[i].entry
		if e == nil || len(items[i].partners) == 0 {
			continue
		}
		d := len(e.Ranks)
		missing := k - d
		// Walk the round-robin slots exactly as every designated rank
		// does, tracking covered nodes; record the choices made by me.
		taken := make(map[int]bool, k)
		for _, r := range e.Ranks {
			taken[int(r)] = true
		}
		used := make(map[[2]int]bool, k) // (sender, partner index) pairs used
		// Rotate the partner-index search start per fingerprint so
		// copies spread evenly over partner slots group-wide; a fixed
		// start would funnel every first copy at partner 1, breaking
		// the even per-partner split Algorithm 2's balancing assumes.
		start := 1 + int(e.FP[0])%(k-1)
		var mine []int
		for j := 0; j < missing; j++ {
			sender := e.Ranks[j%d]
			chosen := -1
			// First choice: first unused partner index (scanning from
			// the rotated start) whose rank is not already a holder or
			// target.
			for o := 0; o < k-1; o++ {
				di := 1 + (start-1+o)%(k-1)
				if !used[[2]int{int(sender), di}] && !taken[partnerOf(int(sender), di)] {
					chosen = di
					break
				}
			}
			if chosen < 0 {
				// Fallback (paper behaviour): first unused index.
				for o := 0; o < k-1; o++ {
					di := 1 + (start-1+o)%(k-1)
					if !used[[2]int{int(sender), di}] {
						chosen = di
						break
					}
				}
			}
			if chosen < 0 {
				continue // sender exhausted all partners
			}
			used[[2]int{int(sender), chosen}] = true
			taken[partnerOf(int(sender), chosen)] = true
			if int(sender) == me {
				mine = append(mine, chosen)
			}
		}
		slices.Sort(mine)
		items[i].partners = mine
	}
}

// roundRobinShare returns how many of the k-d missing replicas fall to
// the designated rank with index idx among d designated ranks: the count
// of slots j in [0, k-d) with j mod d == idx.
func roundRobinShare(k, d, idx int) int {
	if missing := k - d; idx < min(d, missing) {
		return (missing - idx + d - 1) / d // slots idx, idx+d, ... below missing
	}
	return 0
}

// reduceGlobal runs the collective fingerprint reduction: local leaf
// tables merged pairwise up a binomial tree (HMERGE) and the surviving
// top-F view broadcast to everyone.
//
// The caller (classify, under dumpOutput's tracker) has already published
// the reduction phase before this helper blocks.
func reduceGlobal(c collectives.Comm, leaf *fingerprint.Table, m *metrics.Dump) (*fingerprint.Table, error) {
	blob, err := leaf.MarshalBinary()
	if err != nil {
		return nil, err
	}
	pre := c.Stats()
	out, err := collectives.Allreduce(c, blob, fingerprint.MergeWire)
	if err != nil {
		return nil, fmt.Errorf("fingerprint allreduce: %w", err)
	}
	m.ReductionBytes = c.Stats().BytesSent - pre.BytesSent
	m.ReductionRounds = bits.Len(uint(c.Size() - 1)) // ⌈log2 n⌉
	// The transport timed each level of the HMERGE tree this rank took
	// part in; surface them so the reduction cost can be read round by
	// round (the paper's hierarchic-merge analysis).
	m.Phases.ReductionRoundTimes = c.Stats().ReduceRounds
	global := new(fingerprint.Table)
	if err := global.UnmarshalBinary(out); err != nil {
		return nil, fmt.Errorf("decode global view: %w", err)
	}
	return global, nil
}

// sendLoads builds the paper's Load vector in bytes: Load[0] is the local
// store load, Load[d] the record bytes sent to partner d. Record framing
// (4 bytes per chunk) is included so offsets line up with the wire.
func sendLoads(items []item, k int) []int64 {
	load := make([]int64, k)
	for _, it := range items {
		load[0] += int64(len(it.ch.Data))
		rec := int64(4 + len(it.ch.Data))
		for _, d := range it.partners {
			load[d] += rec
		}
	}
	return load
}

// region is a sender's run of records in the window, and its RestoreMeta.
type region struct {
	rank int
	size int64
	meta []byte
}

// recordSums is a put frame's checksum as it is built: the CRC-32C over
// u32 recipe position ‖ u32 sum (fingerprint.ChunkSum) of each record in
// the frame, in order. The sender folds the sums its chunks carry from
// ingest; the receiver folds the sums it takes of the bytes it parsed,
// under the fingerprints of the sender's recipe.
type recordSums struct {
	crc uint32
	rec [8]byte
}

func (f *recordSums) add(pos, sum uint32) {
	binary.BigEndian.PutUint32(f.rec[:4], pos)
	binary.BigEndian.PutUint32(f.rec[4:], sum)
	f.crc = collectives.Checksum(f.crc, f.rec[:])
}

// errCrossesFrame is the committer's error for a record that does not end
// in the put frame it begins in: putPartner starts a new frame only
// between records, so no honest sender puts one.
var errCrossesFrame = errors.New("crosses the end of its put frame")

// committer stores the record stream of a dump's window, frame by frame
// as the frames land in window-offset order, and sets a bit of its
// sender's holdings bitmap for every record stored, so a failure rolls
// back exactly those (rollbackDump). The window is the senders' regions
// back to back, in Plan order; a record is u32 position | payload, wholly
// inside one frame, and the committer reads the size and fingerprint at
// that position of the sender's recipe in place: nothing is hashed.
// Positions must rise strictly within a region, stay in the recipe and
// not overrun the region, and a record must end in the frame it begins
// in (errCrossesFrame). Each record is summed once, under that
// fingerprint, and the sum folded into its frame's checksum (recordSums),
// which is checked once the frame is spent: the check covers the bytes
// and binds them to the recipe's fingerprint, so another chunk's bytes at
// a position fail it. Only then are the frame's records stored with their
// sums, as one batch (Store.PutRecords) that hands the frame over. Once
// that batch is stored, a frame the store did not keep goes back to the
// transport and one it kept is the store's (release). No record of a
// frame that fails its sum, or that the parse fails in, reaches the store.
type committer struct {
	store   storage.Store
	m       *metrics.Dump
	regions []region
	held    holdings                       // a bitmap per region begun, over its sender's recipe, after any the caller set
	next    func() ([]byte, uint32, error) // the next frame and its sum; io.EOF after the last
	release func(frame []byte, kept bool)  // gives a frame back, or keeps it if the store did, if set
	frame   []byte                         // the current frame
	p       []byte                         // the unread rest of it
	sums    recordSums                     // the current frame's records so far
	want    uint32                         // the current frame's sum, its sender's
	batch   []storage.Record               // the current frame's records
	at      []mark                         // where each of them sits in the holdings
}

// mark is a record's bit: its recipe position in held[h].
type mark struct{ h, pos int32 }

// commit stores every record of the stream.
func (c *committer) commit() error {
	var off int64 // window offset of the next byte
	for _, r := range c.regions {
		// The next record may name a position in [next, count).
		rec := metaRecipe(r.meta)
		end, count, next := off+r.size, int64(chunk.RecipeCount(rec)), int64(0)
		c.held = append(c.held, newHolding(r.rank, int(count)))
		h := int32(len(c.held) - 1)
		for off < end {
			if end-off < 4 {
				return fmt.Errorf("window record header truncated at offset %d", off)
			}
			// A record that begins where its frame ends begins the next frame.
			if len(c.p) == 0 {
				if err := c.advance(); err == io.EOF {
					return fmt.Errorf("window ends at offset %d, inside its regions", off)
				} else if err != nil {
					return err
				}
			}
			if len(c.p) < 4 {
				return fmt.Errorf("window record header at offset %d %w", off, errCrossesFrame)
			}
			pos := int64(binary.BigEndian.Uint32(c.p))
			if pos < next || pos >= count {
				return fmt.Errorf("window record at offset %d names recipe position %d, want one in [%d, %d)", off, pos, next, count)
			}
			next = pos + 1
			fp, n := chunk.RecipeEntry(rec, int(pos))
			size := int64(n)
			if off += 4; size > end-off {
				return fmt.Errorf("window record of %d bytes overruns its region at offset %d", size, off)
			}
			if size > int64(len(c.p)-4) {
				return fmt.Errorf("window record of %d bytes at offset %d %w", size, off, errCrossesFrame)
			}
			at, data := len(c.frame)-len(c.p)+4, c.p[4:4+size] // the payload and its offset in the frame
			c.p = c.p[4+size:]
			off += size
			r := storage.Record{FP: *fp, Off: int32(at), Len: int32(size), Sum: fingerprint.ChunkSum(fp, data)}
			c.sums.add(uint32(pos), r.Sum)
			c.batch, c.at = append(c.batch, r), append(c.at, mark{h, int32(pos)})
		}
	}
	// The last frame must be spent and checked, and no frame may follow.
	if len(c.p) == 0 {
		if err := c.advance(); err == io.EOF {
			return nil
		} else if err != nil {
			return err
		}
	}
	return fmt.Errorf("window holds bytes beyond its %d-byte regions", off)
}

// advance checks the spent frame against its sender's checksum, stores
// its records, setting their bits and counting them, and moves on to the
// next frame.
func (c *committer) advance() error {
	if c.sums.crc != c.want {
		return collectives.ErrChecksum
	}
	if len(c.batch) > 0 {
		n, kept, err := c.store.PutRecords(c.frame, c.batch)
		for i, r := range c.batch[:n] {
			c.held[c.at[i].h].set(int(c.at[i].pos))
			c.m.RecvChunks++
			c.m.RecvBytes += int64(r.Len)
		}
		if err != nil {
			return err
		}
		if c.release != nil {
			c.release(c.frame, kept)
		}
	}
	c.batch, c.at = c.batch[:0], c.at[:0]
	p, want, err := c.next()
	if err != nil {
		return err
	}
	c.frame, c.p, c.sums.crc, c.want = p, p, 0, want
	return nil
}
