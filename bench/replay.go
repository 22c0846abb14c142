package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"dedupcr"
)

// The traced run. End-to-end numbers come from runEndToEnd with nothing
// switched on; this file produces the per-layer numbers by replaying the
// dump and restore pipelines stage by stage through each layer's public
// functions, on all ranks concurrently, with the workload's own inputs,
// transport and store engine, and a span around every call.
//
// The replay is not the dump: classification, record encoding, metadata
// exchange and the glue between stages are core's own and have no public
// entry point. What the stages do not cover is reported as core.self_ms,
// the difference between the real dump's median makespan and the sum of
// the replayed stages, so stages + self account for the makespan by
// construction.

const (
	// Root spans: the children of dumpRoot are the stages that sit on the
	// dump's blocking path; the other two hold read-side stages and side
	// probes, which no dump waits for.
	dumpRoot  = "dump_replay"
	readRoot  = "read_replay"
	probeRoot = "probes"

	// fetchProbe bounds the chunks each rank fetches from its neighbour,
	// putDupProbe the duplicate puts, barrierProbe the back-to-back
	// barriers behind collectives.barrier_us.
	fetchProbe   = 2048
	putDupProbe  = 4096
	barrierProbe = 8
)

// rankReplay is what one rank's replay leaves behind for its peers (the
// fetch stage asks the neighbour for chunks it is known to hold), for the
// probes and for the metric reduction.
type rankReplay struct {
	leafBlob   []byte   // marshalled leaf table
	stored     []fpT    // what the rank's store holds, in put order
	storedData [][]byte // parallel to stored; aliases the buffer or the window
	chunks     int
	putBytes   int64 // record bytes put into partner windows
	storeBytes int64 // chunk bytes handed to PutChunk
	getBytes   int64
	fetchBytes int64
	dupPuts    int // duplicate PutChunk calls of the refcount probe
	tableBytes int // wire size of the global view
	tableLen   int // entries of the global view

	mu      sync.Mutex
	putLat  []time.Duration // guarded by mu: Window.OnPut may run concurrently
	fetchRT []time.Duration
}

func (rr *rankReplay) putLatencies() []time.Duration {
	rr.mu.Lock()
	defer rr.mu.Unlock()
	return rr.putLat
}

// replayRank runs the whole replay on one rank.
func (c *cluster) replayRank(r int, plan *planT, k *track, all []*rankReplay) error {
	me := all[r]
	comm, buf, n := c.comms[r], c.bufs[r], c.w.N
	o := c.opts // selectShuffle reads Shuffle, which workload.options always sets
	f := o.F
	if f == 0 {
		f = dedupcr.DefaultF
	}
	workers := o.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	serial := workers == 1

	// ---- dump side ----
	k.begin("bench", dumpRoot)
	cc, err := newChunker(o.Chunker)
	if err != nil {
		return err
	}
	var cuts []int
	k.time("chunk", "cuts", func() { cuts = cc.Cuts(buf) })
	var chunks []chunkT
	if serial {
		k.time("chunk", "fromcuts", func() { chunks = fromCuts(buf, cuts) })
	} else {
		k.time("chunk", "stream", func() { chunks, _ = fromCutsStream(buf, cuts, o.Parallelism, nil) })
	}
	me.chunks = len(chunks)
	fps := make([]fpT, len(chunks))
	for i := range chunks {
		fps[i] = chunks[i].FP
	}

	var leaf *tableT
	k.time("fingerprint", "local_table", func() { leaf = localTable(fps, int32(r), f, o.K) })
	if err := k.do("fingerprint", "table_marshal", func() (err error) { me.leafBlob, err = leaf.MarshalBinary(); return }); err != nil {
		return err
	}
	// The HMERGE callback is the one core hands to Allreduce: decode both
	// sides, merge, encode. Its pieces nest under the allreduce span.
	merge := func(acc, other []byte) (out []byte, err error) {
		k.begin("fingerprint", "merge_callback")
		defer k.end()
		var a, b tableT
		if err := k.do("fingerprint", "table_unmarshal", func() error {
			if err := a.UnmarshalBinary(acc); err != nil {
				return err
			}
			return b.UnmarshalBinary(other)
		}); err != nil {
			return nil, err
		}
		k.time("fingerprint", "merge", func() { a.Merge(&b) })
		err = k.do("fingerprint", "table_marshal", func() (err error) { out, err = a.MarshalBinary(); return })
		return out, err
	}
	var view []byte
	if err := k.do("collectives", "allreduce", func() (err error) { view, err = allreduce(comm, me.leafBlob, merge); return }); err != nil {
		return err
	}
	var global tableT
	if err := k.do("fingerprint", "table_unmarshal", func() error { return global.UnmarshalBinary(view) }); err != nil {
		return err
	}
	me.tableBytes, me.tableLen = len(view), global.Len()

	// Load exchange, shuffle, refined load exchange, plan: the volumes are
	// the real dump's (classification is core's own and not replayed).
	var sendLoad [][]int64
	gather := func() (err error) { sendLoad, err = allgatherInt64(comm, plan.SendLoad[r]); return }
	if err := k.do("collectives", "allgather", gather); err != nil {
		return err
	}
	totals := make([]int64, n)
	for rank, row := range sendLoad {
		for d := 1; d < o.K; d++ {
			totals[rank] += row[d]
		}
	}
	var shuffle []int
	k.time("core", "shuffle", func() { shuffle = selectShuffle(totals, o) })
	if err := k.do("collectives", "allgather", gather); err != nil {
		return err
	}
	var p *planT
	if err := k.do("core", "plan", func() (err error) { p, err = newPlan(shuffle, sendLoad, o.K); return }); err != nil {
		return err
	}

	// Records are encoded before the put stage: encoding is core's cost,
	// the stage times the window alone. The stream holds the rank's
	// distinct chunks last-first, so the private region (what a real dump
	// replicates) is sent before any shared page.
	uniq := distinct(chunks)
	stream := make([]byte, 0, len(buf)+4*len(uniq))
	recLens := make([]int, 0, len(uniq))
	for i := len(uniq) - 1; i >= 0; i-- {
		stream = binary.BigEndian.AppendUint32(stream, uint32(len(uniq[i].Data)))
		stream = append(stream, uniq[i].Data...)
		recLens = append(recLens, 4+len(uniq[i].Data))
	}

	var win *windowT
	k.time("collectives", "window_open", func() { win = openWindow(comm, p.WindowSize(r), comm.NextSeq()) })
	win.OnPut = func(_ int, d time.Duration) {
		me.mu.Lock()
		me.putLat = append(me.putLat, d)
		me.mu.Unlock()
	}
	offs := p.Offsets(r)
	putTo := func(d int) error {
		return putVolume(win, p.Partner(r, d), offs[d], p.SendLoad[r][d], stream, recLens)
	}
	err = k.do("collectives", "put", func() error {
		if serial || o.K <= 2 {
			for d := 1; d < o.K; d++ {
				if err := putTo(d); err != nil {
					return err
				}
			}
			return nil
		}
		// One goroutine per partner window, as the parallel dump does.
		errs := make([]error, o.K)
		var wg sync.WaitGroup
		for d := 1; d < o.K; d++ {
			wg.Add(1)
			go func(d int) {
				defer wg.Done()
				errs[d] = putTo(d)
			}(d)
		}
		wg.Wait()
		return firstError(errs)
	})
	if err != nil {
		return err
	}
	me.putBytes = p.TotalSend(r)
	var recvBuf []byte
	if err := k.do("collectives", "window_wait", func() (err error) { recvBuf, err = win.Wait(); return }); err != nil {
		return err
	}

	// Commit: the rank's own share first (Load[0] bytes, private region
	// first), then what the window received, fingerprinted on arrival as
	// the dump does.
	store := c.stores[r]
	own := p.SendLoad[r][0]
	for i := len(uniq) - 1; i >= 0 && own > 0; i-- {
		me.stored = append(me.stored, uniq[i].FP)
		me.storedData = append(me.storedData, uniq[i].Data)
		own -= int64(len(uniq[i].Data))
	}
	err = k.do("fingerprint", "hash_received", func() error {
		for cur := 0; cur < len(recvBuf); {
			if cur+4 > len(recvBuf) {
				return fmt.Errorf("window record header truncated at %d", cur)
			}
			size := int(binary.BigEndian.Uint32(recvBuf[cur:]))
			cur += 4
			if cur+size > len(recvBuf) {
				return fmt.Errorf("window record of %d bytes overruns the window at %d", size, cur)
			}
			data := recvBuf[cur : cur+size]
			cur += size
			me.stored = append(me.stored, fpOf(data))
			me.storedData = append(me.storedData, data)
		}
		return nil
	})
	if err != nil {
		return err
	}
	err = k.do("storage", "put", func() error {
		for i, fp := range me.stored {
			if err := store.PutChunk(fp, me.storedData[i]); err != nil {
				return err
			}
			me.storeBytes += int64(len(me.storedData[i]))
		}
		return nil
	})
	if err != nil {
		return err
	}
	if err := k.do("storage", "commit", func() error { return storeCommit(store) }); err != nil {
		return err
	}
	if err := k.do("collectives", "barrier", func() error { return barrier(comm) }); err != nil {
		return err
	}
	k.end() // dumpRoot

	// ---- read side ----
	k.begin("bench", readRoot)
	err = k.do("storage", "get", func() error {
		for _, fp := range me.stored {
			data, err := store.GetChunk(fp)
			if err != nil {
				return err
			}
			me.getBytes += int64(len(data))
		}
		return nil
	})
	if err != nil {
		return err
	}
	recipe := recipeT{FPs: fps, Sizes: make([]int32, len(chunks))}
	for i := range chunks {
		recipe.Sizes[i] = int32(len(chunks[i].Data))
	}
	next := 0 // Assemble asks for the chunks in recipe order
	var rebuilt []byte
	err = k.do("chunk", "recipe_assemble", func() (err error) {
		rebuilt, err = recipe.Assemble(func(fpT) ([]byte, error) {
			data := chunks[next].Data
			next++
			return data, nil
		})
		return
	})
	if err != nil {
		return err
	}
	if !bytes.Equal(rebuilt, buf) {
		return fmt.Errorf("rank %d: replayed recipe does not rebuild the buffer", r)
	}
	// Every rank serves its store and pulls from its right neighbour what
	// that neighbour is known to hold (its stored list was complete before
	// the dump-side barrier).
	srv := fetchServe(comm, store, fetchClass)
	peer := (r + 1) % n
	want := all[peer].stored
	if len(want) > fetchProbe {
		want = want[:fetchProbe]
	}
	err = k.do("fetch", "chunk", func() error {
		for _, fp := range want {
			start := time.Now()
			data, ok, err := fetchChunk(comm, fetchClass, peer, fp)
			if err != nil {
				return err
			}
			if !ok {
				return fmt.Errorf("rank %d does not serve chunk %s it stored", peer, fp.Short())
			}
			me.fetchRT = append(me.fetchRT, time.Since(start))
			me.fetchBytes += int64(len(data))
		}
		return nil
	})
	// Servers stop only after every rank has stopped asking.
	if berr := barrier(comm); err == nil {
		err = berr
	}
	srv.Stop()
	if err != nil {
		return err
	}
	k.end() // readRoot

	// ---- side probes: the paths this workload's dump does not take, and
	// costs that only show in isolation ----
	k.begin("bench", probeRoot)
	// Hashing alone and hashing plus building the chunk slice, back to
	// back so that chunk.materialise_share compares like with like.
	k.time("fingerprint", "batchof", func() { hashOnly(buf, cuts) })
	k.time("chunk", "fromcuts_probe", func() { fromCuts(buf, cuts) })
	if serial {
		k.time("chunk", "stream", func() { fromCutsStream(buf, cuts, 0, nil) })
	}
	dups := me.stored
	if len(dups) > putDupProbe {
		dups = dups[:putDupProbe]
	}
	me.dupPuts = len(dups)
	err = k.do("storage", "put_dup", func() error {
		for i, fp := range dups {
			if err := store.PutChunk(fp, me.storedData[i]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	if err := barrier(comm); err != nil { // align, so the probe times the barrier and not the skew
		return err
	}
	err = k.do("collectives", "barrier_probe", func() error {
		for i := 0; i < barrierProbe; i++ {
			if err := barrier(comm); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	if c.w.Seg {
		// Close + recovery of a store holding one committed dump.
		err = k.do("storage", "reopen", func() error {
			if err := store.(io.Closer).Close(); err != nil {
				return err
			}
			reopened, err := dedupcr.NewSegStore(c.dirs[r])
			if err != nil {
				return err
			}
			c.stores[r] = reopened
			return nil
		})
		if err != nil {
			return err
		}
	}
	k.end() // probeRoot
	return nil
}

// distinct keeps the first occurrence of every fingerprint, in order.
func distinct(chunks []chunkT) []chunkT {
	seen := make(map[fpT]struct{}, len(chunks))
	out := make([]chunkT, 0, len(chunks))
	for _, ch := range chunks {
		if _, dup := seen[ch.FP]; !dup {
			seen[ch.FP] = struct{}{}
			out = append(out, ch)
		}
	}
	return out
}

// putVolume puts exactly volume bytes of records into target's window
// from off on, walking the encoded record stream (cyclically, should the
// planned volume exceed it). The last record is cut short when the volume
// is not a whole number of records; it stays a well-formed record.
func putVolume(win *windowT, target int, off, volume int64, stream []byte, recLens []int) error {
	if volume > 0 && len(recLens) == 0 {
		return fmt.Errorf("put: %d bytes planned but the rank has no chunks", volume)
	}
	pos := 0
	for i := 0; volume > 0; i++ {
		if i == len(recLens) {
			i, pos = 0, 0
		}
		rec := stream[pos : pos+recLens[i]]
		pos += recLens[i]
		if int64(len(rec)) > volume {
			if volume < 4 {
				return fmt.Errorf("put: %d trailing bytes cannot hold a record", volume)
			}
			cut := make([]byte, volume)
			binary.BigEndian.PutUint32(cut, uint32(volume-4))
			copy(cut[4:], rec[4:])
			rec = cut
		}
		if err := win.Put(target, off, rec); err != nil {
			return err
		}
		off += int64(len(rec))
		volume -= int64(len(rec))
	}
	return nil
}

// hashOnly fingerprints the spans between cuts in FromCuts' batches and
// keeps nothing: FromCuts minus building the chunk slice.
func hashOnly(buf []byte, cuts []int) {
	const batch = 64
	var fps [batch]fpT
	var spans [batch][]byte
	prev := 0
	for base := 0; base < len(cuts); base += batch {
		n := len(cuts) - base
		if n > batch {
			n = batch
		}
		for j := 0; j < n; j++ {
			spans[j] = buf[prev:cuts[base+j]]
			prev = cuts[base+j]
		}
		batchOf(fps[:n], spans[:n]...)
	}
}

// mergeAllocs counts the heap allocations of one Table.Merge of two leaf
// tables, on the calling goroutine while no rank is running.
func mergeAllocs(blobA, blobB []byte) (float64, error) {
	var a, b tableT
	if err := a.UnmarshalBinary(blobA); err != nil {
		return 0, err
	}
	if err := b.UnmarshalBinary(blobB); err != nil {
		return 0, err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	a.Merge(&b)
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs - m0.Mallocs), nil
}

// dirBytes sums the sizes of the regular files under the given roots.
func dirBytes(roots []string) (int64, error) {
	var total int64
	for _, root := range roots {
		err := filepath.Walk(root, func(_ string, info os.FileInfo, err error) error {
			if err == nil && info.Mode().IsRegular() {
				total += info.Size()
			}
			return err
		})
		if err != nil {
			return 0, err
		}
	}
	return total, nil
}

// tracedIter is what one traced iteration measured outside the spans.
type tracedIter struct {
	dump     dumpSample
	forget   time.Duration
	diskRate float64 // disk bytes per live byte after the real dump (seg)
	ranks    []*rankReplay
	allocs   float64 // Table.Merge allocations
}

// runTraced produces one workload's per-layer metrics and its trace.
// Every iteration runs one real dump + restore + Forget (for the
// makespan the stages are held against, the transport counters and the
// plan whose volumes the replay moves) and one replay on fresh stores;
// afterwards the same number of NoDedup dumps gives the paper's
// full-replication baseline.
func runTraced(w workload, seed int64, dir string, iters int) (workloadResult, *tracer, error) {
	res := workloadResult{Workload: w}
	fail := func(err error) (workloadResult, *tracer, error) {
		if res.Attempted == 0 {
			res.Attempted = 1
		}
		if res.Failed == 0 {
			res.Failed = 1
		}
		return res, nil, err
	}
	c, _, err := setUp(w, seed, dir)
	if err != nil {
		return fail(err)
	}
	defer c.close()
	tr := newTracer(w.N)
	its := make([]tracedIter, iters)
	for i := range its {
		it := &its[i]
		var plan *planT
		err := c.hygiene(func() error {
			var err error
			it.dump, err = c.dump(c.opts)
			res.Attempted += w.N
			res.Failed += it.dump.failed
			if err != nil {
				return err
			}
			plan = it.dump.plan
			if w.Seg {
				disk, err := dirBytes(c.dirs)
				if err != nil {
					return err
				}
				it.diskRate = float64(disk) / float64(it.dump.stored)
			}
			rs, err := c.restore(w.W)
			res.Attempted += w.N
			res.Failed += rs.failed
			if err != nil {
				return err
			}
			var errs []error
			it.forget, errs = runRanks(w.N, func(r int) error { return dedupcr.Forget(c.stores[r], c.opts.Name, r) })
			return firstError(errs)
		})
		if err != nil {
			return fail(fmt.Errorf("traced iteration %d: %w", i, err))
		}
		err = c.hygiene(func() error {
			if err := c.openStores(); err != nil {
				return err
			}
			it.ranks = make([]*rankReplay, w.N)
			for r := range it.ranks {
				it.ranks[r] = new(rankReplay)
				tr.ranks[r].iter = i
			}
			runtime.GC()
			_, errs := runRanks(w.N, func(r int) error { return c.replayRank(r, plan, tr.ranks[r], it.ranks) })
			if err := firstError(errs); err != nil {
				return err
			}
			var err error
			it.allocs, err = mergeAllocs(it.ranks[0].leafBlob, it.ranks[1].leafBlob)
			// Keep the numbers, drop what they were measured on: the
			// windows and tables of ten iterations kept alive would weigh
			// on the collector during the later ones.
			for _, rr := range it.ranks {
				rr.leafBlob, rr.stored, rr.storedData = nil, nil, nil
			}
			return err
		})
		if err != nil {
			return fail(fmt.Errorf("replay %d: %w", i, err))
		}
	}

	noDedup, err := w.options(dedupcr.NoDedup)
	if err != nil {
		return fail(err)
	}
	baseline := make([]dumpSample, iters)
	for i := range baseline {
		err := c.hygiene(func() (err error) {
			baseline[i], err = c.dump(noDedup)
			res.Attempted += w.N
			res.Failed += baseline[i].failed
			return err
		})
		if err != nil {
			return fail(fmt.Errorf("no-dedup dump %d: %w", i, err))
		}
	}
	res.Samples = iters
	res.PerLayer = perLayerMetrics(w, tr, its, baseline)
	return res, tr, nil
}

// perLayerMetrics reduces spans and counters to the per-layer metrics, in
// the order of perLayerDefs. Every timing is a median over iterations of
// a per-iteration figure; a stage's per-iteration time is the mean over
// ranks of the time each rank spent in it (ranks time-share the cores, so
// every rank's busy time is on the blocking path), except where only some
// ranks do the work (the HMERGE callback), where it is the busiest
// rank's. Rates are the whole group's bytes over that time.
func perLayerMetrics(w workload, tr *tracer, its []tracedIter, baseline []dumpSample) []metricValue {
	n := len(its)
	logical := w.logicalBytes()
	stage := func(layer, name string) []float64 { return tr.perIteration(n, named(layer, name), mean) }
	busiest := func(layer, name string) []float64 { return tr.perIteration(n, named(layer, name), maxOf) }
	// sumRanks adds up one per-rank counter for every iteration.
	sumRanks := func(get func(*rankReplay) float64) []float64 {
		out := make([]float64, n)
		for i, it := range its {
			for _, rr := range it.ranks {
				out[i] += get(rr)
			}
		}
		return out
	}
	// rate is the median over iterations of group bytes over stage time.
	rate := func(bytes, millis []float64) float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = mbps(int64(bytes[i]), millis[i])
		}
		return median(out)
	}
	constant := func(v float64) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = v
		}
		return out
	}
	// pooled quantiles of per-rank latency samples, per iteration.
	latency := func(get func(*rankReplay) []time.Duration, q float64) float64 {
		out := make([]float64, n)
		for i, it := range its {
			var pool []float64
			for _, rr := range it.ranks {
				for _, d := range get(rr) {
					pool = append(pool, float64(d)/float64(time.Microsecond))
				}
			}
			if len(pool) > 0 {
				out[i] = quantile(pool, q)
			}
		}
		return median(out)
	}

	var dumpMs, forgetMs, disk, msgs, payload, rounds, collShare, allocs []float64
	for _, it := range its {
		d := float64(it.dump.makespan) / float64(time.Millisecond)
		dumpMs = append(dumpMs, d)
		forgetMs = append(forgetMs, float64(it.forget)/float64(time.Millisecond))
		disk = append(disk, it.diskRate)
		msgs = append(msgs, float64(it.dump.net.msgs))
		payload = append(payload, float64(it.dump.net.sent))
		rounds = append(rounds, float64(it.dump.net.rounds))
		collShare = append(collShare, float64(it.dump.net.coll)/float64(w.N)/float64(it.dump.makespan))
		allocs = append(allocs, it.allocs)
	}
	var baseMs, baseNet []float64
	for _, s := range baseline {
		baseMs = append(baseMs, float64(s.makespan)/float64(time.Millisecond))
		baseNet = append(baseNet, float64(s.net.sent)/float64(logical))
	}

	// Stages on the blocking path: the direct children of the dump root.
	dumpRootIDs := make(map[int]bool)
	for _, k := range tr.ranks {
		for _, s := range k.spans {
			if s.Name == dumpRoot {
				dumpRootIDs[s.ID] = true
			}
		}
	}
	stages := tr.perIteration(n, func(s span) bool { return dumpRootIDs[s.Parent] }, mean)
	self := median(dumpMs) - median(stages)

	hashonly, fromcuts := stage("fingerprint", "batchof"), stage("chunk", "fromcuts_probe")
	materialise := make([]float64, n)
	for i := range materialise {
		if fromcuts[i] > 0 {
			materialise[i] = 1 - hashonly[i]/fromcuts[i]
		}
	}
	if w.Parallelism == 1 {
		fromcuts = stage("chunk", "fromcuts") // the dump's own stage
	}
	allreduceMs, callback := stage("collectives", "allreduce"), busiest("fingerprint", "merge_callback")
	mergeShare := make([]float64, n)
	for i := range mergeShare {
		if allreduceMs[i] > 0 {
			mergeShare[i] = callback[i] / allreduceMs[i]
		}
	}
	putPlusCommit := stage("storage", "put")
	for i, c := range stage("storage", "commit") {
		putPlusCommit[i] += c
	}
	barrierUs := stage("collectives", "barrier_probe")
	for i := range barrierUs {
		barrierUs[i] *= 1e3 / barrierProbe
	}
	dupKops := make([]float64, n)
	for i, t := range stage("storage", "put_dup") {
		var ops float64
		for _, rr := range its[i].ranks {
			ops += float64(rr.dupPuts)
		}
		if t > 0 {
			dupKops[i] = ops / t // ops per millisecond = kop/s
		}
	}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	all := constant(float64(logical))

	values := map[string]float64{
		"chunk.cuts_mbps":            rate(all, stage("chunk", "cuts")),
		"chunk.fromcuts_mbps":        rate(all, fromcuts),
		"chunk.materialise_share":    median(materialise),
		"chunk.stream_mbps":          rate(all, stage("chunk", "stream")),
		"chunk.recipe_assemble_mbps": rate(all, stage("chunk", "recipe_assemble")),
		"chunk.chunks_per_rank":      median(scale(sumRanks(func(rr *rankReplay) float64 { return float64(rr.chunks) }), 1/float64(w.N))),

		"fingerprint.batchof_mbps":       rate(all, hashonly),
		"fingerprint.local_table_ms":     median(stage("fingerprint", "local_table")),
		"fingerprint.merge_ms":           median(busiest("fingerprint", "merge")),
		"fingerprint.merge_allocs":       median(allocs),
		"fingerprint.table_marshal_ms":   median(busiest("fingerprint", "table_marshal")),
		"fingerprint.table_unmarshal_ms": median(busiest("fingerprint", "table_unmarshal")),
		"fingerprint.table_wire_bytes":   float64(its[0].ranks[0].tableBytes),
		"fingerprint.table_entries":      float64(its[0].ranks[0].tableLen),

		"collectives.allreduce_ms":          median(allreduceMs),
		"collectives.allreduce_merge_share": median(mergeShare),
		"collectives.allgather_ms":          median(stage("collectives", "allgather")),
		"collectives.barrier_us":            median(barrierUs),
		"collectives.window_put_mbps":       rate(sumRanks(func(rr *rankReplay) float64 { return float64(rr.putBytes) }), stage("collectives", "put")),
		"collectives.put_us_p50":            latency((*rankReplay).putLatencies, 0.50),
		"collectives.put_us_p99":            latency((*rankReplay).putLatencies, 0.99),
		"collectives.msgs_per_dump":         median(msgs),
		"collectives.bytes_per_dump":        median(payload),
		"collectives.coll_rounds_per_dump":  median(rounds),
		"collectives.coll_time_share":       median(collShare),

		"core.shuffle_us":                         1e3 * median(stage("core", "shuffle")),
		"core.plan_us":                            1e3 * median(stage("core", "plan")),
		"core.self_ms":                            self,
		"core.self_share":                         self / median(dumpMs),
		"core.forget_ms":                          median(forgetMs),
		"core.nodedup_dump_mbps":                  mbps(logical, median(baseMs)),
		"core.nodedup_net_bytes_per_logical_byte": median(baseNet),

		"storage.put_mbps":                 rate(sumRanks(func(rr *rankReplay) float64 { return float64(rr.storeBytes) }), putPlusCommit),
		"storage.put_dup_kops":             median(dupKops),
		"storage.commit_ms":                median(stage("storage", "commit")),
		"storage.get_mbps":                 rate(sumRanks(func(rr *rankReplay) float64 { return float64(rr.getBytes) }), stage("storage", "get")),
		"storage.reopen_ms":                median(stage("storage", "reopen")),
		"storage.disk_bytes_per_live_byte": median(disk),
		"storage.usage_bytes":              float64(its[0].dump.stored),

		"fetch.chunk_rtt_us_p50": latency(func(rr *rankReplay) []time.Duration { return rr.fetchRT }, 0.50),
		"fetch.chunk_rtt_us_p99": latency(func(rr *rankReplay) []time.Duration { return rr.fetchRT }, 0.99),
		"fetch.chunk_mbps":       rate(sumRanks(func(rr *rankReplay) float64 { return float64(rr.fetchBytes) }), stage("fetch", "chunk")),
	}
	out := make([]metricValue, 0, len(perLayerDefs))
	for _, d := range perLayerDefs {
		out = append(out, d.value(values[d.Name], 0))
	}
	return out
}
