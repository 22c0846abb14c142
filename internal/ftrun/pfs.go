package ftrun

import (
	"encoding/binary"
	"errors"
	"fmt"

	"dedupcr/internal/chunk"
	"dedupcr/internal/collectives"
	"dedupcr/internal/core"
	"dedupcr/internal/fingerprint"
	"dedupcr/internal/storage"
)

// Multi-level checkpointing (the SCR/FTI-style architecture the paper's
// related work describes): partner-replicated node-local checkpoints are
// the fast first level; every few epochs a checkpoint is drained to a
// parallel file system — slow, but it survives any number of node losses.
// The PFS is modelled as one shared content-addressed Store, so the drain
// also deduplicates across ranks for free.

// pfsLatest names the PFS blob recording the newest drained epoch.
const pfsLatest = "ftrun/pfs-latest"

// pfsRecipeName names a rank's dataset recipe on the PFS.
func pfsRecipeName(prefix string, epoch, rank int) string {
	return fmt.Sprintf("%s-%06d/pfs-recipe-rank%06d", prefix, epoch, rank)
}

// FlushPFS drains the newest local checkpoint to the shared parallel
// file system store. Collective: every rank reassembles its dataset
// (pulling chunks from peers where its local store does not hold them)
// and writes recipe + chunks to pfs; the shared content addressing
// deduplicates across ranks on the PFS too. Each rank commits its recipe
// and chunks before rank 0 writes and commits the newest-epoch record, so
// on a store with a commit point the record never names an epoch whose
// data could be lost. Returns the drained epoch.
func (rt *Runtime) FlushPFS(pfs storage.Store) (int, error) {
	epoch, err := rt.newestEpoch()
	if err != nil {
		return -1, err
	}
	if epoch < 0 {
		return -1, ErrNoCheckpoint
	}
	name := rt.ckptName(epoch)
	img, err := core.Restore(rt.comm, rt.store, name)
	if err != nil {
		return -1, fmt.Errorf("ftrun: pfs flush of epoch %d: %w", epoch, err)
	}
	// Drain with the dump's own chunker spec, so the PFS copy is cut
	// exactly like the node-local one.
	cc, err := chunk.New(rt.opts.Chunker)
	if err != nil {
		return -1, fmt.Errorf("ftrun: pfs flush of epoch %d: %w", epoch, err)
	}
	chunks := chunk.FromCuts(img, cc.Cuts(img))
	recipe := chunk.BuildRecipe(chunks)
	for _, ch := range chunks {
		if err := pfs.PutChunkSum(ch.FP, ch.Data, ch.Sum); err != nil {
			return -1, fmt.Errorf("ftrun: pfs chunk write: %w", err)
		}
	}
	blob, err := recipe.MarshalBinary()
	if err != nil {
		return -1, err
	}
	if err := pfs.PutBlob(pfsRecipeName(rt.opts.Name, epoch, rt.comm.Rank()), blob); err != nil {
		return -1, err
	}
	if err := pfs.Commit(); err != nil {
		return -1, fmt.Errorf("ftrun: pfs commit: %w", err)
	}
	// Rank 0 records the newest drained epoch once everyone is done.
	if err := collectives.Barrier(rt.comm); err != nil {
		return -1, err
	}
	if rt.comm.Rank() == 0 {
		var rec [8]byte
		binary.BigEndian.PutUint64(rec[:], uint64(epoch))
		if err := pfs.PutBlob(pfsLatest, rec[:]); err != nil {
			return -1, err
		}
		if err := pfs.Commit(); err != nil {
			return -1, fmt.Errorf("ftrun: pfs commit: %w", err)
		}
	}
	if err := collectives.Barrier(rt.comm); err != nil {
		return -1, err
	}
	return epoch, nil
}

// RestartFromPFS restores the newest PFS checkpoint into the registered
// regions — the last line of defence when more than K-1 nodes (or the
// whole machine) died. Collective only in the trivial sense: each rank
// reads its own recipe and chunks from the shared store.
func (rt *Runtime) RestartFromPFS(pfs storage.Store) (int, error) {
	img, epoch, err := rt.pfsImage(pfs)
	if err != nil {
		return -1, err
	}
	if err := rt.loadImage(img); err != nil {
		return -1, err
	}
	rt.epoch = epoch
	return epoch, nil
}

// RestartAppFromPFS is the application-mode variant of RestartFromPFS.
func (rt *Runtime) RestartAppFromPFS(pfs storage.Store, app Checkpointable) (int, error) {
	img, epoch, err := rt.pfsImage(pfs)
	if err != nil {
		return -1, err
	}
	if err := app.RestoreImage(img); err != nil {
		return -1, err
	}
	rt.epoch = epoch
	return epoch, nil
}

func (rt *Runtime) pfsImage(pfs storage.Store) ([]byte, int, error) {
	blob, err := pfs.GetBlob(pfsLatest)
	if err != nil || len(blob) != 8 {
		if errors.Is(err, storage.ErrNotFound) || len(blob) != 8 {
			return nil, -1, ErrNoCheckpoint
		}
		return nil, -1, err
	}
	epoch := int(binary.BigEndian.Uint64(blob))
	recBlob, err := pfs.GetBlob(pfsRecipeName(rt.opts.Name, epoch, rt.comm.Rank()))
	if err != nil {
		return nil, -1, fmt.Errorf("ftrun: pfs recipe for epoch %d: %w", epoch, err)
	}
	var recipe chunk.Recipe
	if err := recipe.UnmarshalBinary(recBlob); err != nil {
		return nil, -1, err
	}
	img, err := recipe.Assemble(func(fp fingerprint.FP) ([]byte, error) {
		return pfs.GetChunk(fp)
	})
	if err != nil {
		return nil, -1, fmt.Errorf("ftrun: pfs assemble epoch %d: %w", epoch, err)
	}
	return img, epoch, nil
}
