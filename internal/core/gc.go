package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"dedupcr/internal/chunk"
	"dedupcr/internal/fingerprint"
	"dedupcr/internal/obs"
	"dedupcr/internal/storage"
)

// Checkpoint garbage collection. Every dump records, per node, which
// recipe positions it stored a chunk reference for: a holdings record of
// one bitmap per recipe the node holds — its own, and each sender's whose
// metadata replica it keeps. The references are read off the RestoreMeta
// blobs in the same store when needed, so an old dataset is forgotten with
// reference-counting precision: chunks shared with a newer checkpoint
// survive, everything else is reclaimed.

// gcName names the blob holding a dataset's holdings record on one rank.
func gcName(dataset string, rank int) string {
	return fmt.Sprintf("%s/gc-rank%06d", dataset, rank)
}

// holdingsMagic opens a holdings record. A reference list of the earlier
// formats opens with its u32 reference count, which never reaches it (the
// list would be 24 GB long): it does not decode.
const holdingsMagic = 0x484f4c44 // "HOLD"

// holding is one recipe's bitmap: bit i is set when the rank stored a
// reference for position i of rank's recipe of n positions.
type holding struct {
	rank, n int
	bits    []byte
}

func newHolding(rank, n int) holding {
	return holding{rank: rank, n: n, bits: make([]byte, (n+7)/8)}
}

func (h holding) set(i int) { h.bits[i>>3] |= 1 << (i & 7) }

// holdings is a dataset's holdings record on one rank, its own bitmap
// first.
type holdings []holding

// ranks returns the ranks whose recipes the bitmaps cover.
func (h holdings) ranks() []int {
	out := make([]int, len(h))
	for i, e := range h {
		out[i] = e.rank
	}
	return out
}

// marshal encodes the record: u32 magic | u32 m | m × (u32 rank | u32 n |
// ⌈n/8⌉ bitmap bytes).
func (h holdings) marshal() []byte {
	buf := binary.BigEndian.AppendUint32(nil, holdingsMagic)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(h)))
	for _, e := range h {
		buf = binary.BigEndian.AppendUint32(buf, uint32(e.rank))
		buf = append(binary.BigEndian.AppendUint32(buf, uint32(e.n)), e.bits...)
	}
	return buf
}

// unmarshalHoldings decodes a record written by marshal. A count is
// checked against the bytes that follow it before it sizes anything.
func unmarshalHoldings(data []byte) (holdings, error) {
	if len(data) < 8 || binary.BigEndian.Uint32(data) != holdingsMagic {
		return nil, fmt.Errorf("core: not a holdings record (%d bytes)", len(data))
	}
	m, data := binary.BigEndian.Uint32(data[4:]), data[8:]
	if int64(m) > int64(len(data)/8) {
		return nil, fmt.Errorf("core: holdings record claims %d bitmaps in %d bytes", m, len(data))
	}
	h := make(holdings, m)
	for i := range h {
		if len(data) < 8 {
			return nil, fmt.Errorf("core: holdings bitmap %d truncated", i)
		}
		rank, n := int(binary.BigEndian.Uint32(data)), int64(binary.BigEndian.Uint32(data[4:]))
		if data = data[8:]; (n+7)/8 > int64(len(data)) || slices.ContainsFunc(h[:i], func(e holding) bool { return e.rank == rank }) {
			return nil, fmt.Errorf("core: holdings bitmap %d (rank %d, %d positions) malformed in %d bytes", i, rank, n, len(data))
		}
		h[i] = holding{rank: rank, n: int(n), bits: append([]byte(nil), data[:(n+7)/8]...)}
		data = data[(n+7)/8:]
	}
	if len(data) != 0 {
		return nil, fmt.Errorf("core: %d trailing bytes after holdings record", len(data))
	}
	return h, nil
}

// refs derives the references the record stands for: the fingerprint at
// every set position of each bitmap, read in place from the recipe of the
// RestoreMeta blob meta returns for that bitmap's index. A bitmap whose
// length differs from its recipe's count fails.
func (h holdings) refs(meta func(i int) ([]byte, error)) ([]fingerprint.FP, error) {
	var refs []fingerprint.FP
	for i, e := range h {
		blob, err := meta(i)
		if err != nil {
			return nil, fmt.Errorf("metadata of rank %d: %w", e.rank, err)
		}
		rec := metaRecipe(blob)
		if count := chunk.RecipeCount(rec); count != e.n {
			return nil, fmt.Errorf("core: holdings bitmap of rank %d has %d positions, its recipe %d", e.rank, e.n, count)
		}
		for p := range e.n {
			if e.bits[p>>3]&(1<<(p&7)) != 0 {
				fp, _ := chunk.RecipeEntry(rec, p)
				refs = append(refs, *fp)
			}
		}
	}
	return refs, nil
}

// storedRefs decodes a holdings record of name and derives its references
// from the metadata blobs in store.
func storedRefs(store storage.Store, name string, blob []byte) (holdings, []fingerprint.FP, error) {
	h, err := unmarshalHoldings(blob)
	if err != nil {
		return nil, nil, err
	}
	refs, err := h.refs(func(i int) ([]byte, error) { return store.GetBlob(metaName(name, h[i].rank)) })
	return h, refs, err
}

// tombstoneMeta overwrites the dataset's restore metadata of the given
// ranks with tombstones.
func tombstoneMeta(store storage.Store, name string, ranks []int) error {
	for _, r := range ranks {
		if err := store.PutBlob(metaName(name, r), nil); err != nil {
			return err
		}
	}
	return nil
}

// rollbackDump undoes a partially committed dump on this node: every
// chunk reference in refs is released, and the dataset's blobs — holdings
// record, own restore metadata, and the metadata replicas of the ranks in
// held (its senders' and an earlier dump's) — are tombstoned. The store
// ends up as if the dump never ran here, so a later Forget of the failed
// dataset reports storage.ErrNotFound like any unknown name. Best-effort
// by design: it runs on error paths where the store itself may be
// failing, and a missed release only leaks a refcount, never corrupts a
// committed dataset.
func rollbackDump(store storage.Store, name string, rank int, held []int, refs []fingerprint.FP) {
	obs.Logf(obs.KindRollback, rank, "", 0, "rolling back dump %q (%d refs)", name, len(refs))
	obs.Trigger(obs.Failure{
		Kind: "rollback", Rank: rank,
		Cause: fmt.Sprintf("dump %q rolled back after failure", name),
	})
	for _, fp := range refs {
		_ = store.ReleaseChunk(fp)
	}
	_ = store.PutBlob(gcName(name, rank), nil)
	_ = tombstoneMeta(store, name, append([]int{rank}, held...))
	// Make the rollback itself durable on commit-aware engines, so a
	// crash right after an aborted dump does not resurrect its refs.
	_ = store.Commit()
}

// Forget releases this node's storage for a dataset dumped earlier under
// name: every chunk reference the dump added is dropped, deleting chunks
// whose count reaches zero, and the dataset's metadata blobs are
// overwritten with tombstones. Local and non-collective — each node
// forgets independently; a dataset is fully reclaimed once every node has
// forgotten it.
//
// Forgetting a dataset that was never dumped (or was already forgotten)
// on this node returns storage.ErrNotFound. A holdings record that does
// not decode, or does not match its metadata, fails before anything is
// released.
func Forget(store storage.Store, name string, rank int) error {
	blob, err := store.GetBlob(gcName(name, rank))
	if err != nil {
		return err
	}
	if len(blob) == 0 {
		return fmt.Errorf("forget %q: %w", name, storage.ErrNotFound)
	}
	h, refs, err := storedRefs(store, name, blob)
	if err != nil {
		return fmt.Errorf("forget %q: %w", name, err)
	}
	for _, fp := range refs {
		if err := store.ReleaseChunk(fp); err != nil && !errors.Is(err, storage.ErrNotFound) {
			return fmt.Errorf("forget %q: %w", name, err)
		}
	}
	// Tombstone the holdings record, the restore metadata and the replicas
	// held for other ranks, so repeated forgets fail cleanly and restores
	// stop finding the dataset.
	if err := store.PutBlob(gcName(name, rank), nil); err != nil {
		return err
	}
	if err := tombstoneMeta(store, name, append([]int{rank}, h.ranks()...)); err != nil {
		return err
	}
	// Persist the releases and tombstones as one durable step on
	// commit-aware engines; this is also what turns the released chunks
	// into compactable garbage in the segment store.
	return store.Commit()
}
