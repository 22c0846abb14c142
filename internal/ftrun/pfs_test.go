package ftrun

import (
	"bytes"
	"fmt"
	"testing"

	"dedupcr/internal/apps/hpccg"
	"dedupcr/internal/chunk"
	"dedupcr/internal/collectives"
	"dedupcr/internal/core"
	"dedupcr/internal/storage"
)

func TestFlushAndRestartFromPFS(t *testing.T) {
	const n = 6
	cluster := storage.NewCluster(n)
	pfs := storage.NewMem() // the shared parallel file system
	images := make([][]byte, n)

	// Phase 1: run, checkpoint locally, drain to the PFS.
	err := collectives.Run(n, func(c collectives.Comm) error {
		rt := New(c, cluster.Node(c.Rank()), testOpts())
		app := hpccg.New(c.Rank(), n, hpccg.Config{NX: 6, NY: 6, NZ: 6})
		for i := 0; i < 3; i++ {
			app.Step()
		}
		if _, err := rt.CheckpointApp(app); err != nil {
			return err
		}
		epoch, err := rt.FlushPFS(pfs)
		if err != nil {
			return err
		}
		if epoch != 0 {
			return fmt.Errorf("flushed epoch %d, want 0", epoch)
		}
		images[c.Rank()] = app.CheckpointImage()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// The PFS deduplicates across ranks: shared pages stored once.
	var raw int64
	for _, img := range images {
		raw += int64(len(img))
	}
	used, _ := pfs.Usage()
	if used >= raw {
		t.Errorf("PFS holds %d bytes for %d raw; cross-rank dedup missing", used, raw)
	}

	// Phase 2: catastrophic loss — every node's local storage dies.
	// Only the PFS level survives.
	for r := 0; r < n; r++ {
		cluster.FailNodes(r)
		cluster.Replace(r)
	}
	err = collectives.Run(n, func(c collectives.Comm) error {
		rt := New(c, cluster.Node(c.Rank()), testOpts())
		app := hpccg.New(c.Rank(), n, hpccg.Config{NX: 6, NY: 6, NZ: 6})
		// Local restart must fail first (nothing survived).
		if _, err := rt.RestartApp(app); err != ErrNoCheckpoint {
			return fmt.Errorf("local restart after total loss: %v, want ErrNoCheckpoint", err)
		}
		epoch, err := rt.RestartAppFromPFS(pfs, app)
		if err != nil {
			return err
		}
		if epoch != 0 {
			return fmt.Errorf("PFS restart epoch %d, want 0", epoch)
		}
		if !bytes.Equal(app.CheckpointImage(), images[c.Rank()]) {
			return fmt.Errorf("rank %d PFS restart produced wrong state", c.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFlushPFSWithoutCheckpoint(t *testing.T) {
	const n = 2
	cluster := storage.NewCluster(n)
	pfs := storage.NewMem()
	err := collectives.Run(n, func(c collectives.Comm) error {
		rt := New(c, cluster.Node(c.Rank()), testOpts())
		if _, err := rt.FlushPFS(pfs); err != ErrNoCheckpoint {
			return fmt.Errorf("got %v, want ErrNoCheckpoint", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRestartFromEmptyPFS(t *testing.T) {
	const n = 2
	cluster := storage.NewCluster(n)
	pfs := storage.NewMem()
	err := collectives.Run(n, func(c collectives.Comm) error {
		rt := New(c, cluster.Node(c.Rank()), testOpts())
		rt.Register("s", 64)
		if _, err := rt.RestartFromPFS(pfs); err != ErrNoCheckpoint {
			return fmt.Errorf("got %v, want ErrNoCheckpoint", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTransparentModePFSRoundTrip(t *testing.T) {
	const n = 4
	cluster := storage.NewCluster(n)
	pfs := storage.NewMem()
	err := collectives.Run(n, func(c collectives.Comm) error {
		rt := New(c, cluster.Node(c.Rank()), testOpts())
		state := rt.Register("state", 2048)
		for i := range state {
			state[i] = byte(i ^ c.Rank())
		}
		if _, err := rt.Checkpoint(); err != nil {
			return err
		}
		if _, err := rt.FlushPFS(pfs); err != nil {
			return err
		}
		for i := range state {
			state[i] = 0
		}
		if _, err := rt.RestartFromPFS(pfs); err != nil {
			return err
		}
		for i := range state {
			if state[i] != byte(i^c.Rank()) {
				return fmt.Errorf("rank %d: state not restored from PFS", c.Rank())
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestFlushPFSUsesDumpChunker pins that the PFS drain cuts the image with
// the runtime's own chunker spec, not a fixed default: a {Fixed, 256}
// runtime drains 256-byte chunks, a {Gear, 512} runtime drains exactly
// gear's cuts, and both restart from the PFS byte-exactly.
func TestFlushPFSUsesDumpChunker(t *testing.T) {
	const n = 4
	for _, spec := range []chunk.Spec{{Algo: chunk.AlgoFixed, Size: 256}, {Algo: chunk.AlgoGear, Size: 512}} {
		cluster := storage.NewCluster(n)
		pfs := storage.NewMem()
		opts := core.Options{K: 2, Approach: core.CollDedup, Chunker: spec}
		images := make([][]byte, n)
		err := collectives.Run(n, func(c collectives.Comm) error {
			rt := New(c, cluster.Node(c.Rank()), opts)
			app := hpccg.New(c.Rank(), n, hpccg.Config{NX: 6, NY: 6, NZ: 6})
			app.Step()
			img := app.CheckpointImage()
			if len(img) <= 2*chunk.DefaultSize {
				return fmt.Errorf("image of %d bytes too small to tell chunk sizes apart", len(img))
			}
			images[c.Rank()] = img
			if _, err := rt.CheckpointApp(app); err != nil {
				return err
			}
			if _, err := rt.FlushPFS(pfs); err != nil {
				return err
			}
			blob, err := pfs.GetBlob(pfsRecipeName(rt.opts.Name, 0, c.Rank()))
			if err != nil {
				return err
			}
			var recipe chunk.Recipe
			if err := recipe.UnmarshalBinary(blob); err != nil {
				return err
			}
			cc, err := chunk.New(spec)
			if err != nil {
				return err
			}
			cuts := cc.Cuts(img)
			if recipe.Len() != len(cuts) {
				return fmt.Errorf("%s: PFS recipe has %d chunks, the spec cuts %d", spec, recipe.Len(), len(cuts))
			}
			prev := 0
			for i, end := range cuts {
				if int(recipe.Sizes[i]) != end-prev {
					return fmt.Errorf("%s: PFS chunk %d is %d bytes, the spec cuts %d", spec, i, recipe.Sizes[i], end-prev)
				}
				if spec.Algo == chunk.AlgoFixed && i < len(cuts)-1 && recipe.Sizes[i] != 256 {
					return fmt.Errorf("%s: PFS chunk %d is %d bytes, want 256", spec, i, recipe.Sizes[i])
				}
				prev = end
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < n; r++ {
			cluster.FailNodes(r)
			cluster.Replace(r)
		}
		err = collectives.Run(n, func(c collectives.Comm) error {
			rt := New(c, cluster.Node(c.Rank()), opts)
			app := hpccg.New(c.Rank(), n, hpccg.Config{NX: 6, NY: 6, NZ: 6})
			if _, err := rt.RestartAppFromPFS(pfs, app); err != nil {
				return err
			}
			if !bytes.Equal(app.CheckpointImage(), images[c.Rank()]) {
				return fmt.Errorf("%s: rank %d PFS restart produced wrong state", spec, c.Rank())
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestSegStoresCommitWhatFtrunWrites pins that ftrun commits the blobs it
// writes on stores with a commit point: the node stores and the PFS are
// segment stores, and after a checkpoint and again after a PFS flush
// their directories are reopened without Close (a kill after the calls
// returned). The local newest-epoch record and the PFS checkpoint must
// each survive.
func TestSegStoresCommitWhatFtrunWrites(t *testing.T) {
	const n = 3
	dirs := make([]string, n+1) // n node stores, then the PFS
	for i := range dirs {
		dirs[i] = t.TempDir()
	}
	// reopen simulates the kill: the previous stores are abandoned, not
	// closed (Close would commit).
	var stores []*storage.SegStore
	reopen := func() {
		stores = make([]*storage.SegStore, len(dirs))
		for i := range dirs {
			s, err := storage.NewSegStore(dirs[i], storage.SegConfig{SegmentTarget: 4 << 10})
			if err != nil {
				t.Fatal(err)
			}
			stores[i] = s
		}
	}
	fill := func(state []byte, rank int) {
		for i := range state {
			state[i] = byte(i*7 ^ rank)
		}
	}
	restored := func(label string, state []byte, rank int, epoch int, err error) error {
		if err != nil || epoch != 0 {
			return fmt.Errorf("rank %d: restart %s after reopen = %d, %v; want epoch 0", rank, label, epoch, err)
		}
		want := make([]byte, len(state))
		fill(want, rank)
		if !bytes.Equal(state, want) {
			return fmt.Errorf("rank %d: state not restored %s", rank, label)
		}
		return nil
	}
	phase := func(body func(rt *Runtime, state []byte, rank int) error) {
		t.Helper()
		reopen()
		err := collectives.Run(n, func(c collectives.Comm) error {
			rt := New(c, stores[c.Rank()], testOpts())
			return body(rt, rt.Register("state", 8192), c.Rank())
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	phase(func(rt *Runtime, state []byte, rank int) error {
		fill(state, rank)
		_, err := rt.Checkpoint()
		return err
	})
	phase(func(rt *Runtime, state []byte, rank int) error {
		epoch, err := rt.Restart()
		if err := restored("locally", state, rank, epoch, err); err != nil {
			return err
		}
		_, err = rt.FlushPFS(stores[n])
		return err
	})
	phase(func(rt *Runtime, state []byte, rank int) error {
		epoch, err := rt.RestartFromPFS(stores[n])
		return restored("from the PFS", state, rank, epoch, err)
	})
	for _, s := range stores {
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
