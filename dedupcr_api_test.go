package dedupcr_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"dedupcr"
	"dedupcr/internal/collectives"
	"dedupcr/internal/fingerprint"
	"dedupcr/internal/storage"
)

// Every frame buffer given back to a free list is overwritten (see
// collectives.PoisonFrames).
func init() { collectives.PoisonFrames() }

// Compile-time lock on the public API surface: the legacy
// background-context entry points and their context-first counterparts
// must keep these exact signatures. A change here is an API break and
// should be a conscious decision, not a drive-by.
var (
	_ func(int, func(dedupcr.Comm) error) error                                                            = dedupcr.Run
	_ func(context.Context, int, func(context.Context, dedupcr.Comm) error) error                          = dedupcr.RunCtx
	_ func(dedupcr.Comm, dedupcr.Store, []byte, dedupcr.Options) (*dedupcr.Result, error)                  = dedupcr.DumpOutput
	_ func(context.Context, dedupcr.Comm, dedupcr.Store, []byte, dedupcr.Options) (*dedupcr.Result, error) = dedupcr.DumpOutputCtx
	_ func(dedupcr.Comm, dedupcr.Store, string) ([]byte, error)                                            = dedupcr.Restore
	_ func(context.Context, dedupcr.Comm, dedupcr.Store, string) ([]byte, error)                           = dedupcr.RestoreCtx
	_ func(dedupcr.Comm, error)                                                                            = dedupcr.Abort
	_ func(dedupcr.Comm, error)                                                                            = dedupcr.Kill
	_ func(dedupcr.Comm, dedupcr.FaultPlan) dedupcr.Comm                                                   = dedupcr.InjectFaults
	_ func(error) []int                                                                                    = dedupcr.FailedRanks

	_ func(*dedupcr.Runtime) (*dedupcr.Result, error)                  = (*dedupcr.Runtime).Checkpoint
	_ func(*dedupcr.Runtime, context.Context) (*dedupcr.Result, error) = (*dedupcr.Runtime).CheckpointCtx
	_ func(*dedupcr.Runtime) (int, error)                              = (*dedupcr.Runtime).Restart
	_ func(*dedupcr.Runtime, context.Context) (int, error)             = (*dedupcr.Runtime).RestartCtx

	// Chunker-spec API: Options selects chunking through a first-class
	// spec (algo + size); the two algorithm constants and the CLI
	// parser are part of the locked surface.
	_ dedupcr.ChunkerSpec                       = dedupcr.ChunkerSpec{Algo: dedupcr.ChunkerGear, Size: 4096}
	_ []dedupcr.ChunkerAlgo                     = []dedupcr.ChunkerAlgo{dedupcr.ChunkerFixed, dedupcr.ChunkerGear}
	_ func(string) (dedupcr.ChunkerAlgo, error) = dedupcr.ParseChunker
	_ dedupcr.Options                           = dedupcr.Options{Chunker: dedupcr.ChunkerSpec{Algo: dedupcr.ChunkerGear}}
)

// TestCollectiveErrorTaxonomy pins the errors.Is/As contract of the
// failure model as seen through the facade.
func TestCollectiveErrorTaxonomy(t *testing.T) {
	cause := errors.New("disk on fire")
	ce := &dedupcr.CollectiveError{Ranks: []int{2, 5}, Phase: "put", Cause: cause}
	wrapped := fmt.Errorf("checkpoint 7: %w", ce)

	if !errors.Is(wrapped, dedupcr.ErrAborted) {
		t.Error("CollectiveError does not match ErrAborted")
	}
	if !errors.Is(wrapped, dedupcr.ErrRankFailed) {
		t.Error("CollectiveError with ranks does not match ErrRankFailed")
	}
	if !errors.Is(wrapped, cause) {
		t.Error("root cause unreachable through the chain")
	}
	var got *dedupcr.CollectiveError
	if !errors.As(wrapped, &got) || got.Phase != "put" {
		t.Errorf("errors.As lost the CollectiveError: %+v", got)
	}
	if ranks := dedupcr.FailedRanks(wrapped); !slices.Equal(ranks, []int{2, 5}) {
		t.Errorf("FailedRanks = %v, want [2 5]", ranks)
	}

	// An unattributed abort (context deadline, explicit Abort) is
	// ErrAborted but not ErrRankFailed.
	plain := &dedupcr.CollectiveError{Cause: cause}
	if !errors.Is(plain, dedupcr.ErrAborted) {
		t.Error("unattributed abort does not match ErrAborted")
	}
	if errors.Is(plain, dedupcr.ErrRankFailed) {
		t.Error("unattributed abort matches ErrRankFailed")
	}
	if dedupcr.FailedRanks(errors.New("unrelated")) != nil {
		t.Error("FailedRanks invented ranks for an unrelated error")
	}
}

// TestPublicAPICancellation checks that an already-cancelled context
// surfaces promptly through the context-first entry points.
func TestPublicAPICancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cluster := dedupcr.NewCluster(2)
	err := dedupcr.RunCtx(ctx, 2, func(ctx context.Context, c dedupcr.Comm) error {
		_, err := dedupcr.DumpOutputCtx(ctx, c, cluster.Node(c.Rank()), make([]byte, 4096), dedupcr.Options{K: 1})
		return err
	})
	if err == nil {
		t.Fatal("cancelled run reported success")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("cancellation cause lost: %v", err)
	}
}

// rejectingStore misses every chunk the restore walk reads, so a restore
// fetches the chunks from peers, and then fails the write that
// re-provisions them: a store error in the middle of the restore, after
// peers started serving.
type rejectingStore struct {
	dedupcr.Store
	err error
}

func (s rejectingStore) ReadRecords(_ []byte, recs []storage.Record, errs []error) {
	for i := range recs {
		errs[i] = s.err
	}
}

func (s rejectingStore) PutChunkSum(fingerprint.FP, []byte, uint32) error { return s.err }

// TestRestoreAbortsGroupOnStoreError checks that the context-less
// Restore aborts the group when one rank fails: every peer, blocked in
// the fetch service or the completion barrier, returns a typed
// *CollectiveError naming the restore phase it was in instead of waiting
// forever; the failed rank's names assemble, where its store failed.
func TestRestoreAbortsGroupOnStoreError(t *testing.T) {
	const n, broken = 4, 1
	cluster := dedupcr.NewCluster(n)
	err := dedupcr.Run(n, func(c dedupcr.Comm) error {
		buf := bytes.Repeat([]byte(fmt.Sprintf("rank%d ", c.Rank())), 4096)
		_, err := dedupcr.DumpOutput(c, cluster.Node(c.Rank()), buf, dedupcr.Options{
			K: 2, Approach: dedupcr.CollDedup, Chunker: dedupcr.ChunkerSpec{Size: 256}, Name: "abort",
		})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}

	cause := errors.New("device rejects writes")
	errs := make([]error, n)
	done := make(chan error, 1)
	go func() {
		var mu sync.Mutex
		done <- dedupcr.Run(n, func(c dedupcr.Comm) error {
			store := cluster.Node(c.Rank())
			if c.Rank() == broken {
				store = rejectingStore{store, cause}
			}
			_, err := dedupcr.Restore(c, store, "abort")
			mu.Lock()
			errs[c.Rank()] = err
			mu.Unlock()
			return nil
		})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("peers of the failed rank are still blocked in Restore")
	}
	for r, err := range errs {
		var ce *dedupcr.CollectiveError
		if !errors.As(err, &ce) {
			t.Errorf("rank %d: %v, want a *CollectiveError", r, err)
			continue
		}
		switch {
		case r == broken && ce.Phase != "assemble":
			t.Errorf("rank %d: phase %q, want \"assemble\", where its store failed", r, ce.Phase)
		case !slices.Contains([]string{"restore-meta", "assemble", "restore-commit", "restore-barrier"}, ce.Phase):
			t.Errorf("rank %d: phase %q, want a restore phase", r, ce.Phase)
		}
		if ranks := dedupcr.FailedRanks(err); !slices.Equal(ranks, []int{broken}) {
			t.Errorf("rank %d: failed ranks %v, want [%d]", r, ranks, broken)
		}
	}
	if !errors.Is(errs[broken], cause) {
		t.Errorf("rank %d lost the store error: %v", broken, errs[broken])
	}
}

// TestPublicAPIRoundTrip exercises the library exactly as a downstream
// user would: through the root package only.
func TestPublicAPIRoundTrip(t *testing.T) {
	const n, k = 6, 3
	cluster := dedupcr.NewCluster(n)
	err := dedupcr.Run(n, func(c dedupcr.Comm) error {
		shared := bytes.Repeat([]byte("shared-config "), 512)
		private := bytes.Repeat([]byte(fmt.Sprintf("rank%d ", c.Rank())), 1024)
		buf := append(append([]byte{}, shared...), private...)

		res, err := dedupcr.DumpOutput(c, cluster.Node(c.Rank()), buf, dedupcr.Options{
			K: k, Approach: dedupcr.CollDedup, Name: "api",
		})
		if err != nil {
			return err
		}
		if res.Metrics.DatasetBytes != int64(len(buf)) {
			return fmt.Errorf("metrics wrong")
		}
		got, err := dedupcr.Restore(c, cluster.Node(c.Rank()), "api")
		if err != nil {
			return err
		}
		if !bytes.Equal(got, buf) {
			return fmt.Errorf("rank %d restore mismatch", c.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Forget via the facade.
	for r := 0; r < n; r++ {
		if err := dedupcr.Forget(cluster.Node(r), "api", r); err != nil {
			t.Fatal(err)
		}
	}
	if b, c := cluster.TotalUsage(); b != 0 || c != 0 {
		t.Fatalf("storage not reclaimed: %d bytes / %d chunks", b, c)
	}
}

// TestPublicAPIChunkerSpec dumps and restores through every chunking
// algorithm the spec API can name, exactly as a downstream user would.
func TestPublicAPIChunkerSpec(t *testing.T) {
	const n, k = 4, 2
	for _, algo := range []dedupcr.ChunkerAlgo{dedupcr.ChunkerFixed, dedupcr.ChunkerGear} {
		cluster := dedupcr.NewCluster(n)
		err := dedupcr.Run(n, func(c dedupcr.Comm) error {
			buf := bytes.Repeat([]byte(fmt.Sprintf("rank%d chunker %s ", c.Rank()%2, algo)), 2048)
			_, err := dedupcr.DumpOutput(c, cluster.Node(c.Rank()), buf, dedupcr.Options{
				K: k, Approach: dedupcr.CollDedup, Name: "spec",
				Chunker: dedupcr.ChunkerSpec{Algo: algo, Size: 256},
			})
			if err != nil {
				return err
			}
			got, err := dedupcr.Restore(c, cluster.Node(c.Rank()), "spec")
			if err != nil {
				return err
			}
			if !bytes.Equal(got, buf) {
				return fmt.Errorf("rank %d: %s restore mismatch", c.Rank(), algo)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("chunker %s: %v", algo, err)
		}
	}

}

// TestPublicAPIRuntime drives the checkpoint-restart runtime through the
// facade.
func TestPublicAPIRuntime(t *testing.T) {
	const n = 4
	cluster := dedupcr.NewCluster(n)
	err := dedupcr.Run(n, func(c dedupcr.Comm) error {
		rt := dedupcr.NewRuntime(c, cluster.Node(c.Rank()), dedupcr.Options{
			K: 2, Approach: dedupcr.CollDedup, Chunker: dedupcr.ChunkerSpec{Size: 256},
		})
		state := rt.Register("state", 1024)
		for i := range state {
			state[i] = byte(i + c.Rank())
		}
		if _, err := rt.Checkpoint(); err != nil {
			return err
		}
		for i := range state {
			state[i] = 0
		}
		if _, err := rt.Restart(); err != nil {
			return err
		}
		if state[5] != byte(5+c.Rank()) {
			return fmt.Errorf("rank %d state not restored", c.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
