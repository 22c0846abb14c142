package ftrun

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"

	"dedupcr/internal/apps/hpccg"
	"dedupcr/internal/chunk"
	"dedupcr/internal/collectives"
	"dedupcr/internal/core"
	"dedupcr/internal/storage"
)

func testOpts() core.Options {
	return core.Options{K: 3, Approach: core.CollDedup, Chunker: chunk.Spec{Size: 256}}
}

func TestTransparentModeRoundTrip(t *testing.T) {
	const n = 6
	cluster := storage.NewCluster(n)
	err := collectives.Run(n, func(c collectives.Comm) error {
		rt := New(c, cluster.Node(c.Rank()), testOpts())
		state := rt.Register("state", 4096)
		aux := rt.Register("aux", 1000)
		for i := range state {
			state[i] = byte(i * (c.Rank() + 1))
		}
		copy(aux, []byte(fmt.Sprintf("aux-of-%d", c.Rank())))
		if _, err := rt.Checkpoint(); err != nil {
			return err
		}
		// Clobber and restart.
		for i := range state {
			state[i] = 0xFF
		}
		epoch, err := rt.Restart()
		if err != nil {
			return err
		}
		if epoch != 0 {
			return fmt.Errorf("restarted from epoch %d, want 0", epoch)
		}
		for i := range state {
			if state[i] != byte(i*(c.Rank()+1)) {
				return fmt.Errorf("rank %d state[%d] not restored", c.Rank(), i)
			}
		}
		if string(aux[:len(fmt.Sprintf("aux-of-%d", c.Rank()))]) != fmt.Sprintf("aux-of-%d", c.Rank()) {
			return fmt.Errorf("rank %d aux region not restored", c.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRestartPicksNewestEpoch(t *testing.T) {
	const n = 4
	cluster := storage.NewCluster(n)
	err := collectives.Run(n, func(c collectives.Comm) error {
		rt := New(c, cluster.Node(c.Rank()), testOpts())
		state := rt.Register("s", 512)
		for epoch := 0; epoch < 3; epoch++ {
			for i := range state {
				state[i] = byte(epoch*50 + c.Rank())
			}
			if _, err := rt.Checkpoint(); err != nil {
				return err
			}
		}
		for i := range state {
			state[i] = 0
		}
		epoch, err := rt.Restart()
		if err != nil {
			return err
		}
		if epoch != 2 {
			return fmt.Errorf("restarted epoch %d, want 2", epoch)
		}
		if state[0] != byte(2*50+c.Rank()) {
			return fmt.Errorf("rank %d restored stale state", c.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRestartAfterNodeLoss(t *testing.T) {
	const n, failed = 8, 5
	cluster := storage.NewCluster(n)
	images := make([][]byte, n)
	// Phase 1: run, checkpoint.
	err := collectives.Run(n, func(c collectives.Comm) error {
		rt := New(c, cluster.Node(c.Rank()), testOpts())
		app := hpccg.New(c.Rank(), n, hpccg.Config{NX: 6, NY: 6, NZ: 6})
		for i := 0; i < 3; i++ {
			app.Step()
		}
		if _, err := rt.CheckpointApp(app); err != nil {
			return err
		}
		images[c.Rank()] = app.CheckpointImage()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// The node dies (local storage and the epoch blob are gone) and is
	// replaced with blank storage.
	cluster.FailNodes(failed)
	cluster.Replace(failed)
	// Phase 2: restart everywhere, including the replaced node.
	err = collectives.Run(n, func(c collectives.Comm) error {
		rt := New(c, cluster.Node(c.Rank()), testOpts())
		app := hpccg.New(c.Rank(), n, hpccg.Config{NX: 6, NY: 6, NZ: 6})
		epoch, err := rt.RestartApp(app)
		if err != nil {
			return err
		}
		if epoch != 0 {
			return fmt.Errorf("restarted epoch %d, want 0", epoch)
		}
		if !bytes.Equal(app.CheckpointImage(), images[c.Rank()]) {
			return fmt.Errorf("rank %d state differs after restart", c.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTruncateReclaimsOldEpochs(t *testing.T) {
	const n = 6
	cluster := storage.NewCluster(n)
	err := collectives.Run(n, func(c collectives.Comm) error {
		rt := New(c, cluster.Node(c.Rank()), testOpts())
		state := rt.Register("s", 4096)
		for epoch := 0; epoch < 4; epoch++ {
			for i := range state {
				state[i] = byte(epoch*37 + i + c.Rank())
			}
			if _, err := rt.Checkpoint(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	before, _ := cluster.TotalUsage()

	// Keep only the newest two epochs on every node.
	err = collectives.Run(n, func(c collectives.Comm) error {
		rt := New(c, cluster.Node(c.Rank()), testOpts())
		rt.Register("s", 4096)
		// Adopt the epoch position of the existing checkpoints.
		if _, err := rt.Restart(); err != nil {
			return err
		}
		if err := rt.Truncate(2); err != nil {
			return err
		}
		if err := rt.Truncate(0); err == nil {
			return fmt.Errorf("Truncate(0) accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	after, _ := cluster.TotalUsage()
	if after >= before {
		t.Fatalf("truncation reclaimed nothing: %d -> %d bytes", before, after)
	}

	// The newest epoch must still restart.
	err = collectives.Run(n, func(c collectives.Comm) error {
		rt := New(c, cluster.Node(c.Rank()), testOpts())
		state := rt.Register("s", 4096)
		epoch, err := rt.Restart()
		if err != nil {
			return err
		}
		if epoch != 3 {
			return fmt.Errorf("restarted epoch %d, want 3", epoch)
		}
		if state[0] != byte(3*37+c.Rank()) {
			return fmt.Errorf("rank %d restored stale state after truncation", c.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRestartWithNoCheckpoint(t *testing.T) {
	const n = 3
	cluster := storage.NewCluster(n)
	err := collectives.Run(n, func(c collectives.Comm) error {
		rt := New(c, cluster.Node(c.Rank()), testOpts())
		rt.Register("s", 64)
		_, err := rt.Restart()
		if err != ErrNoCheckpoint {
			return fmt.Errorf("got %v, want ErrNoCheckpoint", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestImageRegionMismatchRejected(t *testing.T) {
	const n = 2
	cluster := storage.NewCluster(n)
	err := collectives.Run(n, func(c collectives.Comm) error {
		rt := New(c, cluster.Node(c.Rank()), core.Options{K: 1, Approach: core.LocalDedup, Chunker: chunk.Spec{Size: 256}})
		rt.Register("a", 128)
		if _, err := rt.Checkpoint(); err != nil {
			return err
		}
		// A differently shaped runtime must refuse the image.
		rt2 := New(c, cluster.Node(c.Rank()), core.Options{K: 1, Approach: core.LocalDedup, Chunker: chunk.Spec{Size: 256}})
		rt2.Register("b", 128)
		if _, err := rt2.Restart(); err == nil {
			return fmt.Errorf("mismatched region layout accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestLoadImageRejectsRegionCount: an image whose region count differs
// from the registered regions is refused at the count, before the count
// sizes the header table.
func TestLoadImageRejectsRegionCount(t *testing.T) {
	rt := &Runtime{}
	rt.Register("a", 16)
	img, err := rt.image()
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []uint32{0, 2, 1 << 20} {
		bad := append([]byte(nil), img...)
		binary.BigEndian.PutUint32(bad, n)
		want := fmt.Sprintf("ftrun: image has %d regions, runtime tracks 1", n)
		if err := rt.loadImage(bad); err == nil || err.Error() != want {
			t.Errorf("count %d: %v, want %q", n, err, want)
		}
	}
}

// TestNewRejectsBadK: an invalid replication factor is caught at
// construction and surfaced by every operation — none of which may reach
// a collective step, since a misconfigured rank would deadlock the group.
func TestNewRejectsBadK(t *testing.T) {
	const n = 2
	cluster := storage.NewCluster(n)
	err := collectives.Run(n, func(c collectives.Comm) error {
		for _, k := range []int{-3, 0, n + 1} {
			rt := New(c, cluster.Node(c.Rank()), core.Options{K: k})
			rt.Register("state", 64)
			if _, err := rt.Checkpoint(); err == nil {
				return fmt.Errorf("Checkpoint accepted K=%d", k)
			}
			if _, err := rt.Restart(); err == nil {
				return fmt.Errorf("Restart accepted K=%d", k)
			}
			if err := rt.Truncate(1); err == nil {
				return fmt.Errorf("Truncate accepted K=%d", k)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointCtxCancelled: a cancelled context fails the checkpoint
// fast with the cancellation cause, on every rank, before any collective
// step can block.
func TestCheckpointCtxCancelled(t *testing.T) {
	const n = 2
	cluster := storage.NewCluster(n)
	cause := errors.New("job preempted")
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(cause)
	err := collectives.Run(n, func(c collectives.Comm) error {
		rt := New(c, cluster.Node(c.Rank()), core.Options{K: 2, Approach: core.CollDedup, Chunker: chunk.Spec{Size: 256}})
		rt.Register("state", 1024)
		if _, err := rt.CheckpointCtx(ctx); !errors.Is(err, cause) {
			return fmt.Errorf("rank %d: %v, want the cancellation cause", c.Rank(), err)
		}
		if _, err := rt.RestartCtx(ctx); !errors.Is(err, cause) {
			return fmt.Errorf("rank %d restart: %v, want the cancellation cause", c.Rank(), err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
