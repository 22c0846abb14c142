package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"dedupcr/internal/chunk"
	"dedupcr/internal/collectives"
	"dedupcr/internal/fingerprint"
	"dedupcr/internal/metrics"
	"dedupcr/internal/obs"
	"dedupcr/internal/storage"
)

// faultOpts is the standard configuration of the failure tests: K=2 so a
// single node loss stays recoverable, coll-dedup so every pipeline phase
// (reduction included) actually runs.
func faultOpts(name string) Options {
	return Options{K: 2, Approach: CollDedup, Chunker: chunk.Spec{Size: testPage}, Name: name}
}

// runRanks drives body once per rank over a fresh in-proc group and
// returns the per-rank errors, failing the test if any rank is still
// blocked after deadline — the "no survivor hangs" assertion of the
// abort protocol.
func runRanks(t *testing.T, n int, deadline time.Duration, body func(c collectives.Comm) error) []error {
	t.Helper()
	g, err := collectives.NewGroup(n)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })
	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		c, err := g.Comm(r)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(r int, c collectives.Comm) {
			defer wg.Done()
			errs[r] = body(c)
		}(r, c)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(deadline):
		t.Fatalf("ranks still blocked after %v", deadline)
	}
	return errs
}

// cleanDump writes one successful checkpoint of the standard workload and
// returns the per-rank buffers.
func cleanDump(t *testing.T, n int, cluster *storage.Cluster, name string) [][]byte {
	t.Helper()
	buffers := make([][]byte, n)
	var mu sync.Mutex
	err := collectives.Run(n, func(c collectives.Comm) error {
		buf := testBuffer(c.Rank(), 6, 4, 3, 2+c.Rank()%3)
		mu.Lock()
		buffers[c.Rank()] = buf
		mu.Unlock()
		_, err := DumpOutput(c, cluster.Node(c.Rank()), buf, faultOpts(name))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return buffers
}

// TestDumpKillPerPhase is the failure matrix of the abort protocol: a
// 4-rank dump with one rank killed in each collective phase must (1)
// surface a typed CollectiveError on every rank within the deadline, the
// victim's naming the phase it was killed in,
// (2) leave every store rolled back to its pre-dump state, and (3) keep
// the previous committed checkpoint fully restorable.
func TestDumpKillPerPhase(t *testing.T) {
	const n, victim = 4, 2
	for _, phase := range []string{"reduction", "load-exchange", "put", "window-wait", "commit"} {
		t.Run(phase, func(t *testing.T) {
			cluster := storage.NewCluster(n)
			buffers := cleanDump(t, n, cluster, "ckpt-0")
			baseBytes, baseChunks := cluster.TotalUsage()

			plan := collectives.FaultPlan{Faults: []collectives.Fault{
				{Kind: collectives.FaultKill, Rank: victim, Phase: phase, Peer: collectives.AnyRank},
			}}
			start := time.Now()
			errs := runRanks(t, n, 5*time.Second, func(c collectives.Comm) error {
				fc := collectives.InjectFaults(c, plan)
				// New private content: the rollback must actually release
				// chunks, not just decrement shared refcounts back.
				buf := testBuffer(c.Rank(), 6, 4, 3, 5)
				buf = append(buf, page(fmt.Sprintf("epoch1-%d", c.Rank()))...)
				_, err := DumpOutputCtx(context.Background(), fc, cluster.Node(c.Rank()), buf, faultOpts("ckpt-1"))
				return err
			})
			if elapsed := time.Since(start); elapsed > 2*time.Second {
				t.Errorf("survivors took %v to unblock, want < 2s", elapsed)
			}
			for r := 0; r < n; r++ {
				if errs[r] == nil {
					t.Fatalf("rank %d reported success with rank %d killed in %q", r, victim, phase)
				}
				var ce *collectives.CollectiveError
				if !errors.As(errs[r], &ce) {
					t.Fatalf("rank %d returned untyped error: %v", r, errs[r])
				}
				if r == victim {
					// The operation the kill fires on fails at once, so the
					// victim's error names the phase it was killed in.
					if ce.Phase != phase {
						t.Errorf("victim's error names phase %q, want %q", ce.Phase, phase)
					}
					continue
				}
				if !errors.Is(errs[r], collectives.ErrAborted) {
					t.Errorf("rank %d error does not match ErrAborted: %v", r, errs[r])
				}
				if ranks := collectives.FailedRanks(errs[r]); len(ranks) != 1 || ranks[0] != victim {
					t.Errorf("rank %d blames ranks %v, want [%d]", r, ranks, victim)
				}
				if !errors.Is(errs[r], collectives.ErrInjected) {
					t.Errorf("rank %d lost the injected root cause: %v", r, errs[r])
				}
			}

			// Consistency: the aborted dump must leave no trace — usage
			// back to the previous checkpoint's, metadata tombstoned.
			gotBytes, gotChunks := cluster.TotalUsage()
			if gotBytes != baseBytes || gotChunks != baseChunks {
				t.Errorf("store usage after aborted dump: %d bytes / %d chunks, want %d / %d (phase %q)",
					gotBytes, gotChunks, baseBytes, baseChunks, phase)
			}
			for r := 0; r < n; r++ {
				if left := blobState(cluster.Node(r), n, "ckpt-1"); len(left) > 0 {
					t.Errorf("rank %d kept %d blobs of the aborted dump (its own or replicas)", r, len(left))
				}
			}

			// The previous checkpoint survives the abort, byte-exact. The
			// aborted communicator is poisoned by design; restore runs on a
			// fresh group.
			err := collectives.Run(n, func(c collectives.Comm) error {
				got, err := Restore(c, cluster.Node(c.Rank()), "ckpt-0")
				if err != nil {
					return err
				}
				if !bytes.Equal(got, buffers[c.Rank()]) {
					return fmt.Errorf("rank %d: ckpt-0 corrupted by aborted ckpt-1", c.Rank())
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// countingPuts counts the chunks a store is asked to put: own chunks one
// by one, received records a batch at a time.
type countingPuts struct {
	storage.Store
	puts int
}

func (s *countingPuts) PutChunkSum(fp fingerprint.FP, data []byte, sum uint32) error {
	s.puts++
	return s.Store.PutChunkSum(fp, data, sum)
}

func (s *countingPuts) PutRecords(payload []byte, recs []storage.Record) (int, bool, error) {
	s.puts += len(recs)
	return s.Store.PutRecords(payload, recs)
}

// TestDumpKillInDrainRollsBack: a rank killed inside the drain — its own
// chunks and its first window frame committed, its second frame awaited
// — and every survivor roll their stores back to the pre-dump state:
// usage, and reference counts too, since forgetting the one committed
// checkpoint then empties every store.
func TestDumpKillInDrainRollsBack(t *testing.T) {
	const n, victim, slabs = 4, 2, 3
	cluster := storage.NewCluster(n)
	cleanDump(t, n, cluster, "ckpt-0")
	baseBytes, baseChunks := cluster.TotalUsage()
	plan := collectives.FaultPlan{Faults: []collectives.Fault{
		{Kind: collectives.FaultKill, Rank: victim, Phase: "window-wait", Peer: collectives.AnyRank, After: 1},
	}}
	stores := make([]*countingPuts, n)
	errs := runRanks(t, n, 5*time.Second, func(c collectives.Comm) error {
		// Rank-private data spanning several slabs: with K=2 each window
		// arrives as slabs frames from one partner.
		o := faultOpts("ckpt-1")
		o.Chunker.Size = slabChunk
		stores[c.Rank()] = &countingPuts{Store: cluster.Node(c.Rank())}
		_, err := DumpOutputCtx(context.Background(), collectives.InjectFaults(c, plan), stores[c.Rank()], slabStreamBuffer(c.Rank(), slabs), o)
		return err
	})
	for r, err := range errs {
		if err == nil {
			t.Fatalf("rank %d reported success with rank %d killed in the drain", r, victim)
		}
	}
	own := (len(slabStreamBuffer(victim, slabs)) + slabChunk - 1) / slabChunk
	if stores[victim].puts <= own {
		t.Fatalf("victim stored %d chunks before the kill, want its %d own chunks and a frame's worth", stores[victim].puts, own)
	}
	if b, c := cluster.TotalUsage(); b != baseBytes || c != baseChunks {
		t.Errorf("store usage after the aborted dump: %d bytes / %d chunks, want %d / %d", b, c, baseBytes, baseChunks)
	}
	for r := 0; r < n; r++ {
		if err := Forget(cluster.Node(r), "ckpt-0", r); err != nil {
			t.Fatal(err)
		}
	}
	if b, c := cluster.TotalUsage(); b != 0 || c != 0 {
		t.Errorf("forgetting the only committed checkpoint left %d bytes / %d chunks: the rollback leaked references", b, c)
	}
}

// TestDumpKillThenNodeLossRestore combines both failure planes: an
// aborted dump (communication fault) followed by losing the victim's
// store (node fault). K=2 keeps the surviving checkpoint restorable and
// re-provisions the replacement node.
func TestDumpKillThenNodeLossRestore(t *testing.T) {
	const n, victim = 4, 2
	cluster := storage.NewCluster(n)
	buffers := cleanDump(t, n, cluster, "ckpt-0")

	plan := collectives.FaultPlan{Faults: []collectives.Fault{
		{Kind: collectives.FaultKill, Rank: victim, Phase: "put", Peer: collectives.AnyRank},
	}}
	errs := runRanks(t, n, 5*time.Second, func(c collectives.Comm) error {
		fc := collectives.InjectFaults(c, plan)
		_, err := DumpOutputCtx(context.Background(), fc, cluster.Node(c.Rank()), testBuffer(c.Rank(), 6, 4, 3, 5), faultOpts("ckpt-1"))
		return err
	})
	for r, err := range errs {
		if err == nil {
			t.Fatalf("rank %d dump succeeded despite the kill", r)
		}
	}

	// The killed rank's node is lost with it; a replacement comes up empty.
	cluster.FailNodes(victim)
	cluster.Replace(victim)
	err := collectives.Run(n, func(c collectives.Comm) error {
		got, err := Restore(c, cluster.Node(c.Rank()), "ckpt-0")
		if err != nil {
			return err
		}
		if !bytes.Equal(got, buffers[c.Rank()]) {
			return fmt.Errorf("rank %d restore mismatch after node loss", c.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRestoreKillPerPhase is the restore's failure matrix: the victim's
// node is wiped, so it fetches its metadata and chunks from the others,
// and it is killed in each restore phase in which it makes a collective
// call. Every phase-keyed fault fires only if the restore published that
// phase (NotePhase), every survivor fails blaming the victim, every
// rank's error names a restore phase — the victim's the keyed one — and
// the injected fault is recorded under the phase it was keyed to.
func TestRestoreKillPerPhase(t *testing.T) {
	const n, victim = 4, 2
	for _, phase := range []string{"restore-meta", "assemble", "restore-barrier"} {
		t.Run(phase, func(t *testing.T) {
			cluster := storage.NewCluster(n)
			cleanDump(t, n, cluster, "ckpt-0")
			cluster.FailNodes(victim)
			cluster.Replace(victim)

			rec := obs.New(obs.DefaultRingSize)
			defer obs.SetDefault(obs.SetDefault(rec))
			plan := collectives.FaultPlan{Faults: []collectives.Fault{
				{Kind: collectives.FaultKill, Rank: victim, Phase: phase, Peer: collectives.AnyRank},
			}}
			errs := runRanks(t, n, 5*time.Second, func(c collectives.Comm) error {
				fc := collectives.InjectFaults(c, plan)
				_, err := RestoreOutputCtx(context.Background(), fc, cluster.Node(c.Rank()), "ckpt-0", nil)
				return err
			})
			for r := 0; r < n; r++ {
				if errs[r] == nil {
					t.Fatalf("rank %d restored with rank %d killed in %q", r, victim, phase)
				}
				var ce *collectives.CollectiveError
				if !errors.As(errs[r], &ce) {
					t.Fatalf("rank %d returned untyped error: %v", r, errs[r])
				}
				switch {
				case r == victim && ce.Phase != phase:
					t.Errorf("victim's error names phase %q, want %q", ce.Phase, phase)
				case !slices.Contains(metrics.RestorePhaseNames, ce.Phase):
					t.Errorf("rank %d error names phase %q, want a restore phase", r, ce.Phase)
				}
				if ranks := collectives.FailedRanks(errs[r]); len(ranks) != 1 || ranks[0] != victim {
					t.Errorf("rank %d blames ranks %v, want [%d]", r, ranks, victim)
				}
				if !errors.Is(errs[r], collectives.ErrInjected) {
					t.Errorf("rank %d lost the injected root cause: %v", r, errs[r])
				}
			}
			fired := 0
			for _, e := range rec.Events() {
				if e.Kind != obs.KindFault {
					continue
				}
				fired++
				if e.Rank != victim || e.Phase != phase {
					t.Errorf("injected fault recorded on rank %d in phase %q, want rank %d in %q", e.Rank, e.Phase, victim, phase)
				}
			}
			if fired == 0 {
				t.Errorf("no injected fault recorded")
			}
		})
	}
}

// TestRetryPolicyRecoversTransientFaults injects a bounded burst of
// transient send failures into the put phase — past its one metadata send
// (K=2), onto the first window put and its first retry; the per-operation
// RetryPolicy must absorb them, the dump must succeed, and the retries
// must be visible in the metrics.
func TestRetryPolicyRecoversTransientFaults(t *testing.T) {
	const n, flaky = 4, 1
	cluster := storage.NewCluster(n)
	plan := collectives.FaultPlan{Faults: []collectives.Fault{
		{Kind: collectives.FaultError, Rank: flaky, Phase: "put", Peer: collectives.AnyRank, After: 1, Times: 2},
	}}
	buffers := make([][]byte, n)
	var retries int64
	var mu sync.Mutex
	var failed *failedPuts
	errs := runRanks(t, n, 10*time.Second, func(c collectives.Comm) error {
		fc := &failedPuts{FaultyComm: collectives.InjectFaults(c, plan)}
		if c.Rank() == flaky {
			failed = fc
		}
		// Rank-private content under local dedup: every rank has chunks
		// to push, so the flaky rank's put path definitely runs.
		buf := testBuffer(c.Rank(), 0, 0, 2, 8)
		o := faultOpts("retry")
		o.Approach = LocalDedup
		o.Retry = RetryPolicy{Attempts: 3, Backoff: time.Millisecond}
		res, err := DumpOutputCtx(context.Background(), fc, cluster.Node(c.Rank()), buf, o)
		if err != nil {
			return err
		}
		mu.Lock()
		buffers[c.Rank()] = buf
		retries += res.Metrics.PutRetries
		mu.Unlock()
		return nil
	})
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: retry policy did not absorb the fault: %v", r, err)
		}
	}
	if retries < 2 {
		t.Errorf("PutRetries = %d, want >= 2 (one per injected failure)", retries)
	}
	if len(failed.offsets) != 2 {
		t.Errorf("%d window puts failed, want both injected failures on puts", len(failed.offsets))
	}
	err := collectives.Run(n, func(c collectives.Comm) error {
		got, err := Restore(c, cluster.Node(c.Rank()), "retry")
		if err != nil {
			return err
		}
		if !bytes.Equal(got, buffers[c.Rank()]) {
			return fmt.Errorf("rank %d restore mismatch", c.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRetryPolicyGivesUpOnAbort: a retry policy must not retry through a
// collective abort — the attempts bound is irrelevant once the group has
// given up.
func TestRetryPolicyGivesUpOnAbort(t *testing.T) {
	const n, victim = 4, 2
	cluster := storage.NewCluster(n)
	plan := collectives.FaultPlan{Faults: []collectives.Fault{
		{Kind: collectives.FaultKill, Rank: victim, Phase: "put", Peer: collectives.AnyRank},
	}}
	start := time.Now()
	errs := runRanks(t, n, 5*time.Second, func(c collectives.Comm) error {
		fc := collectives.InjectFaults(c, plan)
		o := faultOpts("giveup")
		// A pathological policy: were aborts retried, 100 attempts with
		// doubling backoff would blow far past the deadline.
		o.Retry = RetryPolicy{Attempts: 100, Backoff: 50 * time.Millisecond}
		_, err := DumpOutputCtx(context.Background(), fc, cluster.Node(c.Rank()), testBuffer(c.Rank(), 6, 4, 3, 5), o)
		return err
	})
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("aborted dump took %v; retry policy retried a final error", elapsed)
	}
	for r, err := range errs {
		if err == nil {
			t.Fatalf("rank %d dump succeeded despite the kill", r)
		}
	}
}

// TestDumpCtxTimeoutTCP is the acceptance check of the cancellation
// plumbing on the socket transport: a missing participant plus a context
// deadline must unblock every present rank, promptly and typed.
func TestDumpCtxTimeoutTCP(t *testing.T) {
	const n, late = 4, 3
	comms, err := collectives.StartLocalTCP(n)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, c := range comms {
			c.Close()
		}
	}()
	cluster := storage.NewCluster(n)
	errs := make([]error, n)
	start := time.Now()
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			if r == late {
				// This rank never joins the dump: the classic lost
				// participant that would deadlock the group forever.
				time.Sleep(1200 * time.Millisecond)
				return
			}
			ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
			defer cancel()
			_, errs[r] = DumpOutputCtx(ctx, comms[r], cluster.Node(r), testBuffer(r, 6, 4, 3, 5), faultOpts("tcp"))
		}(r)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("ranks still blocked after 5s")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("ranks took %v to unblock, want < 2s", elapsed)
	}
	// Every present rank gets the typed abort. The structured
	// DeadlineExceeded cause survives only on ranks whose own watcher won
	// the abort race — a gossip-received abort carries the remote cause as
	// wire text — but the globally first aborter is always local-cause, so
	// at least one rank must match.
	var sawDeadline bool
	for r := 0; r < n; r++ {
		if r == late {
			continue
		}
		if !errors.Is(errs[r], collectives.ErrAborted) {
			t.Errorf("rank %d: %v, want ErrAborted", r, errs[r])
		}
		if errors.Is(errs[r], context.DeadlineExceeded) {
			sawDeadline = true
		}
	}
	if !sawDeadline {
		t.Errorf("no rank carried the structured deadline cause: %v", errs)
	}
}

// TestDumpCtxPreCancelled: an already-cancelled context fails fast with
// the cancellation cause, before any collective step.
func TestDumpCtxPreCancelled(t *testing.T) {
	cause := errors.New("shutdown requested")
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(cause)
	errs := runRanks(t, 2, 2*time.Second, func(c collectives.Comm) error {
		_, err := DumpOutputCtx(ctx, c, storage.NewMem(), make([]byte, 1024), faultOpts("pre"))
		return err
	})
	for r, err := range errs {
		if !errors.Is(err, cause) {
			t.Errorf("rank %d: %v, want the cancellation cause", r, err)
		}
	}
}
