package hybrid

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"dedupcr/internal/collectives"
	"dedupcr/internal/erasure"
	"dedupcr/internal/fetch"
	"dedupcr/internal/fingerprint"
	"dedupcr/internal/metrics"
	"dedupcr/internal/storage"
)

// fetchClass is the fetch-service protocol class of hybrid restores
// (distinct from the plain restore's so both could even run in parallel).
const fetchClass fetch.Class = 1

// Restore is the collective inverse of Protect. Chunks missing locally
// are pulled from designated holders; if the rank's own data shard was
// lost with its node, it is rebuilt from the group's surviving data and
// parity shards via Reed-Solomon reconstruction. Tolerates any K-1 node
// losses.
func Restore(c collectives.Comm, store storage.Store, name string) ([]byte, error) {
	buf, _, err := RestoreOutput(c, store, name)
	return buf, err
}

// RestoreOutput is Restore returning the rank's restore instrumentation
// alongside the buffer: the same metrics.Restore the plain restore
// produces, with the erasure-reconstruction time under Phases.Recover and
// rebuilt chunks under RecoveredChunks.
func RestoreOutput(c collectives.Comm, store storage.Store, name string) ([]byte, metrics.Restore, error) {
	me, n := c.Rank(), c.Size()
	restoreStart := time.Now()
	rm := metrics.Restore{Rank: me, RunLengths: metrics.NewHistogram()}
	timed := storage.NewTimed(store)
	fs := fetch.NewStats(n)
	// Peer requests are served from the raw store so peer-serving reads
	// do not pollute this rank's local read-latency histogram.
	srv := fetch.Serve(c, store, fetchClass)
	defer srv.Stop()

	collectives.NotePhase(c, "restore-meta")
	phaseStart := time.Now()
	m, metaFetched, err := loadMeta(c, timed, fs, name)
	rm.Phases.Meta = time.Since(phaseStart)
	if err != nil {
		return nil, rm, fmt.Errorf("rank %d: %w", me, err)
	}
	localBlobReads := 0
	if metaFetched {
		rm.MetaFetches = 1
	} else {
		localBlobReads++
	}
	rm.TotalChunks = m.Recipe.Len()
	rm.UniqueChunks = len(m.Recipe.Unique())
	ge := geometry{n: n, g: int(m.Group)}

	// Eager shard recovery: a replaced node rebuilds its data shard and
	// re-provisions its chunks BEFORE anyone assembles, so that peers
	// whose discarded chunks lived only on now-dead designated holders
	// find them again after the barrier.
	collectives.NotePhase(c, "shard-recover")
	var shardChunks map[fingerprint.FP][]byte
	if _, berr := timed.GetBlob(shardBlob(name, me)); berr != nil && len(m.ShardFPs) > 0 {
		phaseStart = time.Now()
		shard, rerr := recoverShard(c, timed, fs, m, ge, name)
		if rerr != nil {
			return nil, rm, fmt.Errorf("rank %d: %w", me, rerr)
		}
		shardChunks, rerr = parseShard(shard, m.ShardFPs)
		rm.Phases.Recover = time.Since(phaseStart)
		if rerr != nil {
			return nil, rm, fmt.Errorf("rank %d: %w", me, rerr)
		}
		rm.RecoveredChunks += len(shardChunks)
		for fp, data := range shardChunks {
			cache(timed, fp, data)
		}
	} else if berr == nil {
		localBlobReads++
	}
	phaseStart = time.Now()
	err = collectives.Barrier(c)
	rm.Phases.Barrier += time.Since(phaseStart)
	if err != nil {
		return nil, rm, fmt.Errorf("rank %d recovery barrier: %w", me, err)
	}

	// Run-length tracking over the sequential recipe walk: the shard path
	// counts as its own source (id n — beyond any peer rank), so locality
	// runs distinguish local hits, each peer, and shard-rebuilt chunks.
	localFPs := make(map[fingerprint.FP]bool)
	const noSource = -2
	shardSource := n
	curSource, curRun := noSource, int64(0)
	endRun := func() {
		if curRun > 0 {
			rm.RunLengths.Record(curRun)
			if curRun > rm.LargestRun {
				rm.LargestRun = curRun
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
	var lazyRecover time.Duration

	collectives.NotePhase(c, "assemble")
	phaseStart = time.Now()
	buf, err := m.Recipe.Assemble(func(fp fingerprint.FP) ([]byte, error) {
		if data, err := timed.GetChunk(fp); err == nil {
			rm.LocalChunks++
			rm.LocalBytes += int64(len(data))
			localFPs[fp] = true
			note(-1)
			return data, nil
		}
		// Designated holders first.
		for _, r := range m.Hints[fp] {
			if int(r) == me {
				continue
			}
			data, ok, err := fs.Chunk(c, fetchClass, int(r), fp)
			if err != nil {
				return nil, err
			}
			if ok {
				rm.FetchedChunks++
				rm.FetchedBytes += int64(len(data))
				note(int(r))
				cache(timed, fp, data)
				return data, nil
			}
		}
		// Shard path: rebuild this rank's data shard once.
		if shardChunks == nil {
			t0 := time.Now()
			shard, err := recoverShard(c, timed, fs, m, ge, name)
			if err != nil {
				return nil, err
			}
			shardChunks, err = parseShard(shard, m.ShardFPs)
			lazyRecover += time.Since(t0)
			if err != nil {
				return nil, err
			}
			rm.RecoveredChunks += len(shardChunks)
		}
		if data, ok := shardChunks[fp]; ok {
			note(shardSource)
			cache(timed, fp, data)
			return data, nil
		}
		// Last resort: sweep all ranks.
		for d := 1; d < n; d++ {
			peer := (me + d) % n
			data, ok, err := fs.Chunk(c, fetchClass, peer, fp)
			if err != nil {
				return nil, err
			}
			if ok {
				rm.FetchedChunks++
				rm.FetchedBytes += int64(len(data))
				note(peer)
				cache(timed, fp, data)
				return data, nil
			}
		}
		return nil, fmt.Errorf("chunk %s unrecoverable", fp.Short())
	})
	endRun()
	// Lazily-triggered reconstruction happened inside the assemble loop;
	// move it to Recover so the phase decomposition stays disjoint.
	rm.Phases.Assemble = time.Since(phaseStart) - lazyRecover
	rm.Phases.Recover += lazyRecover
	if err != nil {
		return nil, rm, fmt.Errorf("rank %d assemble %q: %w", me, name, err)
	}
	rm.LogicalBytes = int64(len(buf))

	collectives.NotePhase(c, "restore-barrier")
	phaseStart = time.Now()
	err = collectives.Barrier(c)
	rm.Phases.Barrier += time.Since(phaseStart)
	if err != nil {
		return nil, rm, fmt.Errorf("rank %d restore barrier: %w", me, err)
	}
	if st := c.Stats(); !st.LastBarrierExit.IsZero() {
		rm.BarrierExit = st.LastBarrierExit
	} else {
		rm.BarrierExit = time.Now()
	}
	rm.Phases.Total = time.Since(restoreStart)
	rm.ObjectsTouched = len(localFPs) + localBlobReads
	rm.FetchRequests = fs.Requests()
	rm.FetchMisses = fs.Misses()
	rm.PeerFetchChunks = fs.PeerChunks()
	rm.PeerFetchBytes = fs.PeerBytes()
	rm.SourceRanks = fs.SourceRanks()
	rm.FetchLatency = fs.Latency()
	rm.Phases.Fetch = time.Duration(rm.FetchLatency.Sum())
	if reads := timed.ReadLatency(); reads.Count() > 0 {
		rm.StoreReadLatency = reads
	}
	return buf, rm, nil
}

// cache best-effort re-provisions a recovered chunk locally.
func cache(store storage.Store, fp fingerprint.FP, data []byte) {
	if err := store.PutChunk(fp, data); err != nil && !errors.Is(err, storage.ErrFailed) {
		// Non-failure storage errors surface on the next read; restores
		// must not abort over a cache write.
		return
	}
}

// loadMeta retrieves this rank's metadata locally or from the neighbour
// replicas. The bool reports whether the blob came from a peer.
func loadMeta(c collectives.Comm, store storage.Store, fs *fetch.Stats, name string) (*meta, bool, error) {
	me, n := c.Rank(), c.Size()
	blobName := metaBlob(name, me)
	fetched := false
	blob, err := store.GetBlob(blobName)
	if err != nil {
		for d := 1; d < n; d++ {
			data, ok, rerr := fs.Blob(c, fetchClass, (me+d)%n, blobName)
			if rerr != nil {
				return nil, false, rerr
			}
			if ok {
				blob, fetched = data, true
				break
			}
		}
		if blob == nil {
			return nil, false, fmt.Errorf("hybrid metadata %q unrecoverable", blobName)
		}
	}
	m := new(meta)
	if err := m.unmarshal(blob); err != nil {
		return nil, false, err
	}
	return m, fetched, nil
}

// recoverShard returns this rank's data shard: from the local store when
// it survived, otherwise by Reed-Solomon reconstruction from the group's
// surviving shards.
func recoverShard(c collectives.Comm, store storage.Store, fs *fetch.Stats, m *meta, ge geometry, name string) ([]byte, error) {
	me := c.Rank()
	if shard, err := store.GetBlob(shardBlob(name, me)); err == nil {
		return shard, nil
	}
	group := ge.groupOf(me)
	members := ge.members(group)
	parity := int(m.K) - 1

	// Collect surviving shards: data from members, parity from holders.
	shards := make([][]byte, len(members)+parity)
	var padded int64
	myIdx := -1
	for i, r := range members {
		if r == me {
			myIdx = i
			continue
		}
		data, ok, err := fs.Blob(c, fetchClass, r, shardBlob(name, r))
		if err != nil {
			return nil, err
		}
		if ok {
			shards[i] = data
		}
	}
	for p := 0; p < parity; p++ {
		holder := ge.parityHolder(group, p)
		blobName := parityBlob(name, group, p)
		var data []byte
		var ok bool
		if holder == me {
			if b, err := store.GetBlob(blobName); err == nil {
				data, ok = b, true
			}
		} else {
			var err error
			data, ok, err = fs.Blob(c, fetchClass, holder, blobName)
			if err != nil {
				return nil, err
			}
		}
		if ok {
			shards[len(members)+p] = data
			if int64(len(data)) > padded {
				padded = int64(len(data))
			}
		}
	}
	if padded == 0 {
		// No parity shard reachable: reconstruction needs all data
		// shards — ours is gone, so the shard is lost. (Cannot happen
		// within the K-1 failure budget.)
		return nil, fmt.Errorf("shard of rank %d unrecoverable: no parity shard reachable", me)
	}
	// Pad surviving data shards to the parity length.
	for i := range members {
		if shards[i] != nil {
			shards[i] = pad(shards[i], padded)
		}
	}
	coder, err := erasure.New(len(members), parity)
	if err != nil {
		return nil, err
	}
	if err := coder.Reconstruct(shards); err != nil {
		return nil, fmt.Errorf("rank %d group %d reconstruction: %w", me, group, err)
	}
	shard := shards[myIdx][:m.ShardLen]
	// Re-provision the rebuilt shard locally.
	if err := store.PutBlob(shardBlob(name, me), shard); err != nil && !errors.Is(err, storage.ErrFailed) {
		return nil, err
	}
	return shard, nil
}

// parseShard splits a framed shard back into chunks and verifies them
// against the expected fingerprints.
func parseShard(shard []byte, fps []fingerprint.FP) (map[fingerprint.FP][]byte, error) {
	out := make(map[fingerprint.FP][]byte, len(fps))
	cur := 0
	for i, fp := range fps {
		if cur+4 > len(shard) {
			return nil, fmt.Errorf("shard record %d header truncated", i)
		}
		size := int(binary.BigEndian.Uint32(shard[cur:]))
		cur += 4
		if cur+size > len(shard) {
			return nil, fmt.Errorf("shard record %d overruns shard", i)
		}
		data := shard[cur : cur+size]
		cur += size
		if fingerprint.Of(data) != fp {
			return nil, fmt.Errorf("shard record %d does not match fingerprint %s", i, fp.Short())
		}
		out[fp] = data
	}
	if cur != len(shard) {
		return nil, fmt.Errorf("%d trailing bytes in shard", len(shard)-cur)
	}
	return out, nil
}
