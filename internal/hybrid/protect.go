package hybrid

import (
	"encoding/binary"
	"fmt"

	"dedupcr/internal/chunk"
	"dedupcr/internal/collectives"
	"dedupcr/internal/erasure"
	"dedupcr/internal/fingerprint"
	"dedupcr/internal/metrics"
	"dedupcr/internal/storage"
)

// Protect is the hybrid collective primitive: like core.DumpOutput it
// persists buf with K-level protection, but the chunks lacking K natural
// replicas are covered by group Reed-Solomon parity instead of K-1 full
// partner copies.
func Protect(c collectives.Comm, store storage.Store, buf []byte, o Options) (*Report, error) {
	o, err := o.normalized(c.Size())
	if err != nil {
		return nil, err
	}
	me, n := c.Rank(), c.Size()
	ge := geometry{n: n, g: o.Group}
	rep := &Report{DatasetBytes: int64(len(buf))}

	// Chunk, dedup locally, reduce globally — the coll-dedup front end.
	chunks := chunk.NewFixed(o.ChunkSize).Split(buf)
	recipe := chunk.BuildRecipe(chunks)
	uniq := localDedup(chunks)
	global, err := reduceGlobal(c, uniq, o)
	if err != nil {
		return nil, fmt.Errorf("rank %d: %w", me, err)
	}

	// Classify: keep (store locally), remainder (erasure-protect), or
	// discard (other designated holders cover it).
	var keep, remainder []chunk.Chunk
	hints := make(map[fingerprint.FP][]int32)
	for _, ch := range uniq {
		e := global.Lookup(ch.FP)
		if e == nil {
			keep = append(keep, ch)
			remainder = append(remainder, ch)
			continue
		}
		if e.RankIndex(int32(me)) < 0 {
			hints[ch.FP] = append([]int32(nil), e.Ranks...)
			continue
		}
		keep = append(keep, ch)
		if len(e.Ranks) >= o.K {
			rep.NaturalReplicas++
			continue
		}
		// Under-duplicated: every designated holder adds it to its
		// shard, so the chunk survives even if all D holders die (their
		// shards are reconstructable).
		remainder = append(remainder, ch)
	}

	// Build this rank's data shard: framed remainder chunks.
	var shard []byte
	shardFPs := make([]fingerprint.FP, 0, len(remainder))
	for _, ch := range remainder {
		shard = binary.BigEndian.AppendUint32(shard, uint32(len(ch.Data)))
		shard = append(shard, ch.Data...)
		shardFPs = append(shardFPs, ch.FP)
		rep.RemainderChunks++
		rep.RemainderBytes += int64(len(ch.Data))
	}

	// Everyone learns every shard size; groups pad to their maximum.
	sizes, err := collectives.AllgatherInt64(c, []int64{int64(len(shard))})
	if err != nil {
		return nil, fmt.Errorf("rank %d shard size allgather: %w", me, err)
	}
	padded := groupPaddedSize(ge, sizes, ge.groupOf(me))

	// Gather shards at the group leader, encode, distribute parity.
	myGroup := ge.groupOf(me)
	members := ge.members(myGroup)
	parity := o.K - 1
	// With no parity to compute (K=1) the gather is skipped entirely on
	// BOTH sides — an unmatched send would linger in the leader's
	// mailbox and corrupt a later Protect on the same communicator.
	if parity > 0 && me != ge.leader(myGroup) {
		if err := c.Send(ge.leader(myGroup), tagShardGather, pad(shard, padded)); err != nil {
			return nil, fmt.Errorf("rank %d shard gather send: %w", me, err)
		}
		rep.GatherBytesSent += padded
	} else if parity > 0 && len(members) > 0 {
		data := make([][]byte, len(members))
		for i, r := range members {
			if r == me {
				data[i] = pad(shard, padded)
				continue
			}
			blob, err := c.Recv(r, tagShardGather)
			if err != nil {
				return nil, fmt.Errorf("leader %d recv shard from %d: %w", me, r, err)
			}
			data[i] = blob
		}
		coder, err := erasure.New(len(members), parity)
		if err != nil {
			return nil, err
		}
		pshards, err := coder.Encode(data)
		if err != nil {
			return nil, fmt.Errorf("leader %d encode group %d: %w", me, myGroup, err)
		}
		for p, ps := range pshards {
			holder := ge.parityHolder(myGroup, p)
			frame := binary.BigEndian.AppendUint32(nil, uint32(myGroup))
			frame = binary.BigEndian.AppendUint32(frame, uint32(p))
			frame = append(frame, ps...)
			if err := c.Send(holder, tagShardGather, frame); err != nil {
				return nil, fmt.Errorf("leader %d parity to %d: %w", me, holder, err)
			}
			rep.ParityBytesSent += int64(len(ps))
		}
	}

	// Receive and store the parity shards this rank holds for other
	// groups. The set is globally computable, so no handshake is needed.
	if parity > 0 {
		for g := 0; g < ge.groups(); g++ {
			for p := 0; p < parity; p++ {
				if ge.parityHolder(g, p) != me {
					continue
				}
				frame, err := c.Recv(ge.leader(g), tagShardGather)
				if err != nil {
					return nil, fmt.Errorf("rank %d parity recv: %w", me, err)
				}
				if len(frame) < 8 {
					return nil, fmt.Errorf("rank %d malformed parity frame", me)
				}
				fg := int(binary.BigEndian.Uint32(frame))
				fp := int(binary.BigEndian.Uint32(frame[4:]))
				if err := store.PutBlob(parityBlob(o.Name, fg, fp), frame[8:]); err != nil {
					return nil, err
				}
				rep.StoredParityBytes += int64(len(frame) - 8)
			}
		}
	}

	// Commit: kept chunks, own data shard, metadata (replicated to the
	// K-1 naive neighbours, as in the plain scheme).
	for _, ch := range keep {
		if err := store.PutChunk(ch.FP, ch.Data); err != nil {
			return nil, err
		}
	}
	if err := store.PutBlob(shardBlob(o.Name, me), shard); err != nil {
		return nil, err
	}
	m := &meta{
		Rank: int32(me), K: int32(o.K), Group: int32(o.Group),
		Recipe: recipe, Hints: hints, ShardFPs: shardFPs,
		ShardLen: int64(len(shard)),
	}
	blob, err := m.marshal()
	if err != nil {
		return nil, err
	}
	if err := store.PutBlob(metaBlob(o.Name, me), blob); err != nil {
		return nil, err
	}
	for d := 1; d < o.K; d++ {
		if err := c.Send((me+d)%n, tagMetaXchg, blob); err != nil {
			return nil, err
		}
	}
	for d := 1; d < o.K; d++ {
		from := (me - d + n) % n
		peerBlob, err := c.Recv(from, tagMetaXchg)
		if err != nil {
			return nil, err
		}
		if err := store.PutBlob(metaBlob(o.Name, from), peerBlob); err != nil {
			return nil, err
		}
	}
	// Durability point before the completion barrier: once any rank exits
	// the barrier, every rank's checkpoint is already crash-safe.
	if err := storage.Commit(store); err != nil {
		return nil, fmt.Errorf("rank %d store commit: %w", me, err)
	}
	if err := collectives.Barrier(c); err != nil {
		return nil, fmt.Errorf("rank %d barrier: %w", me, err)
	}
	return rep, nil
}

// localDedup keeps first occurrences (shared with core's semantics).
func localDedup(chunks []chunk.Chunk) []chunk.Chunk {
	seen := make(map[fingerprint.FP]struct{}, len(chunks))
	out := make([]chunk.Chunk, 0, len(chunks))
	for _, ch := range chunks {
		if _, ok := seen[ch.FP]; ok {
			continue
		}
		seen[ch.FP] = struct{}{}
		out = append(out, ch)
	}
	return out
}

// reduceGlobal mirrors the coll-dedup fingerprint reduction.
func reduceGlobal(c collectives.Comm, uniq []chunk.Chunk, o Options) (*fingerprint.Table, error) {
	leaf := fingerprint.NewTable(o.F, o.K)
	for _, ch := range uniq {
		leaf.AddLocal(ch.FP, int32(c.Rank()))
	}
	leaf.Trim()
	blob, err := leaf.MarshalBinary()
	if err != nil {
		return nil, err
	}
	out, err := collectives.Allreduce(c, blob, fingerprint.MergeWire)
	if err != nil {
		return nil, fmt.Errorf("fingerprint allreduce: %w", err)
	}
	global := new(fingerprint.Table)
	if err := global.UnmarshalBinary(out); err != nil {
		return nil, err
	}
	return global, nil
}

// groupPaddedSize returns the padded shard size of a group: its members'
// maximum.
func groupPaddedSize(ge geometry, sizes [][]int64, group int) int64 {
	var max int64
	for _, r := range ge.members(group) {
		if sizes[r][0] > max {
			max = sizes[r][0]
		}
	}
	if max == 0 {
		max = 1 // erasure shards must be non-empty
	}
	return max
}

// pad zero-extends b to size.
func pad(b []byte, size int64) []byte {
	out := make([]byte, size)
	copy(out, b)
	return out
}

// TrafficSummary aggregates reports for the ablation bench.
func TrafficSummary(reports []Report) (sent int64, maxSent int64) {
	vals := make([]int64, len(reports))
	for i, r := range reports {
		vals[i] = r.GatherBytesSent + r.ParityBytesSent
		sent += vals[i]
	}
	return sent, metrics.Max(vals)
}
