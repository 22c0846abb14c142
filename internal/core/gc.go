package core

import (
	"encoding/binary"
	"errors"
	"fmt"

	"dedupcr/internal/fingerprint"
	"dedupcr/internal/obs"
	"dedupcr/internal/storage"
)

// Checkpoint garbage collection. Every dump records, per node, the exact
// multiset of chunk references it added to the local store (own kept
// chunks plus chunks received for partners), so an old dataset can later
// be forgotten with reference-counting precision: chunks shared with a
// newer checkpoint — the common case, since consecutive checkpoints
// overlap heavily — survive, everything else is reclaimed. The record
// also names the ranks whose metadata replicas the node holds, which
// change with the shuffle from one dump to the next.

// gcName names the blob holding a dataset's local reference list.
func gcName(dataset string, rank int) string {
	return fmt.Sprintf("%s/gc-rank%06d", dataset, rank)
}

// gcList is a dataset's reclamation record on one rank: every chunk
// reference the rank stored for it, and the ranks whose restore-metadata
// replicas of it the rank holds.
type gcList struct {
	refs []fingerprint.FP
	held []int
}

// marshal encodes the list: u32 count | fingerprints | u32 count | u32
// ranks. The header distinguishes an empty dataset's list from a
// tombstone.
func (g gcList) marshal() []byte {
	buf := make([]byte, 0, 8+len(g.refs)*fingerprint.Size+4*len(g.held))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(g.refs)))
	for _, fp := range g.refs {
		buf = append(buf, fp[:]...)
	}
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(g.held)))
	for _, r := range g.held {
		buf = binary.BigEndian.AppendUint32(buf, uint32(r))
	}
	return buf
}

// unmarshalGC decodes a list written by marshal.
func unmarshalGC(data []byte) (g gcList, err error) {
	if len(data) < 8 {
		return g, fmt.Errorf("core: gc list truncated")
	}
	n, data := int(binary.BigEndian.Uint32(data)), data[4:]
	if n > (len(data)-4)/fingerprint.Size {
		return g, fmt.Errorf("core: gc list has %d bytes for %d references", len(data), n)
	}
	g.refs = make([]fingerprint.FP, n)
	for i := range g.refs {
		g.refs[i] = fingerprint.FP(data[i*fingerprint.Size:])
	}
	data = data[n*fingerprint.Size:]
	if h := int(binary.BigEndian.Uint32(data)); len(data) != 4+4*h {
		return g, fmt.Errorf("core: gc list has %d bytes for %d metadata replicas", len(data)-4, h)
	}
	for data = data[4:]; len(data) > 0; data = data[4:] {
		g.held = append(g.held, int(binary.BigEndian.Uint32(data)))
	}
	return g, nil
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
// chunk reference the failed dump stored is released, and the dataset's
// blobs — reference list, own restore metadata, and the metadata replicas
// this rank may hold of it (held: its senders' and an earlier dump's) —
// are tombstoned. The store ends up as if the dump never ran here, so a
// later Forget of the failed dataset reports storage.ErrNotFound like any
// unknown name. Best-effort by design: it runs on error paths where the
// store itself may be failing, and a missed release only leaks a
// refcount, never corrupts a committed dataset.
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
	_ = storage.Commit(store)
}

// Forget releases this node's storage for a dataset dumped earlier under
// name: every chunk reference the dump added is dropped, deleting chunks
// whose count reaches zero, and the dataset's metadata blobs are
// overwritten with tombstones. Local and non-collective — each node
// forgets independently; a dataset is fully reclaimed once every node has
// forgotten it.
//
// Forgetting a dataset that was never dumped (or was already forgotten)
// on this node returns storage.ErrNotFound.
func Forget(store storage.Store, name string, rank int) error {
	blob, err := store.GetBlob(gcName(name, rank))
	if err != nil {
		return err
	}
	if len(blob) == 0 {
		return fmt.Errorf("forget %q: %w", name, storage.ErrNotFound)
	}
	g, err := unmarshalGC(blob)
	if err != nil {
		return err
	}
	for _, fp := range g.refs {
		if err := store.ReleaseChunk(fp); err != nil && !errors.Is(err, storage.ErrNotFound) {
			return fmt.Errorf("forget %q: %w", name, err)
		}
	}
	// Tombstone the reference list, the restore metadata and the replicas
	// held for other ranks, so repeated forgets fail cleanly and restores
	// stop finding the dataset.
	if err := store.PutBlob(gcName(name, rank), nil); err != nil {
		return err
	}
	if err := tombstoneMeta(store, name, append([]int{rank}, g.held...)); err != nil {
		return err
	}
	// Persist the releases and tombstones as one durable step on
	// commit-aware engines; this is also what turns the released chunks
	// into compactable garbage in the segment store.
	return storage.Commit(store)
}
