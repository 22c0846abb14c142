package collectives

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"
)

// waitRanks runs body once per rank of the given comms concurrently and
// collects the per-rank errors, failing the test if any rank is still
// blocked after the deadline — the anti-deadlock assertion of the abort
// protocol.
func waitRanks(t *testing.T, comms []Comm, deadline time.Duration, body func(c Comm) error) []error {
	t.Helper()
	errs := make([]error, len(comms))
	done := make(chan struct{})
	var wg sync.WaitGroup
	for i, c := range comms {
		wg.Add(1)
		go func(i int, c Comm) {
			defer wg.Done()
			errs[i] = body(c)
		}(i, c)
	}
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(deadline):
		t.Fatalf("ranks still blocked after %v", deadline)
	}
	return errs
}

func inprocComms(t *testing.T, n int) (*Group, []Comm) {
	t.Helper()
	g, err := NewGroup(n)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })
	comms := make([]Comm, n)
	for i := range comms {
		c, err := g.Comm(i)
		if err != nil {
			t.Fatal(err)
		}
		comms[i] = c
	}
	return g, comms
}

func tcpComms(t *testing.T, n int) []Comm {
	t.Helper()
	tc, err := StartLocalTCP(n)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		for _, c := range tc {
			c.Close()
		}
	})
	comms := make([]Comm, n)
	for i, c := range tc {
		comms[i] = c
	}
	return comms
}

// TestAbortUnblocksInproc: ranks 1..n-1 block in a barrier that can never
// complete (rank 0 never joins); rank 0's abort must unblock them all,
// promptly and with the typed error.
func TestAbortUnblocksInproc(t *testing.T) {
	const n = 4
	_, comms := inprocComms(t, n)
	cause := errors.New("operator gave up")
	errs := waitRanks(t, comms, 2*time.Second, func(c Comm) error {
		if c.Rank() == 0 {
			time.Sleep(50 * time.Millisecond)
			Abort(c, cause)
			return nil
		}
		return Barrier(c)
	})
	for r := 1; r < n; r++ {
		if !errors.Is(errs[r], ErrAborted) {
			t.Errorf("rank %d: %v, want ErrAborted", r, errs[r])
		}
		if !errors.Is(errs[r], cause) {
			t.Errorf("rank %d lost the abort cause: %v", r, errs[r])
		}
	}
}

// TestKillUnblocksInproc: killing one rank mid-collective must surface on
// every survivor as ErrRankFailed naming the dead rank.
func TestKillUnblocksInproc(t *testing.T) {
	const n, victim = 4, 2
	_, comms := inprocComms(t, n)
	errs := waitRanks(t, comms, 2*time.Second, func(c Comm) error {
		if c.Rank() == victim {
			time.Sleep(50 * time.Millisecond)
			Kill(c, errors.New("simulated crash"))
			return nil
		}
		// Cascade exactly like the dump pipeline: a rank that observes a
		// failure aborts, so peers blocked on *it* unblock too.
		if err := Barrier(c); err != nil {
			Abort(c, err)
			return err
		}
		return nil
	})
	for r := 0; r < n; r++ {
		if r == victim {
			continue
		}
		if !errors.Is(errs[r], ErrRankFailed) {
			t.Errorf("rank %d: %v, want ErrRankFailed", r, errs[r])
		}
		if ranks := FailedRanks(errs[r]); len(ranks) != 1 || ranks[0] != victim {
			t.Errorf("rank %d blames %v, want [%d]", r, ranks, victim)
		}
	}
}

// TestAbortUnblocksTCP is the socket-transport version of the abort
// dissemination: the aborting rank's gossip must reach peers that are
// blocked in a barrier, within the deadline.
func TestAbortUnblocksTCP(t *testing.T) {
	const n = 4
	comms := tcpComms(t, n)
	cause := errors.New("deadline policy")
	errs := waitRanks(t, comms, 2*time.Second, func(c Comm) error {
		if c.Rank() == 0 {
			time.Sleep(50 * time.Millisecond)
			Abort(c, cause)
			return nil
		}
		return Barrier(c)
	})
	for r := 1; r < n; r++ {
		if !errors.Is(errs[r], ErrAborted) {
			t.Errorf("rank %d: %v, want ErrAborted", r, errs[r])
		}
	}
}

// TestKillUnblocksTCP: a killed TCP rank drops its connections with no
// notification; the survivors must detect the death through connection
// loss and fail their pending receives rather than hang.
func TestKillUnblocksTCP(t *testing.T) {
	const n, victim = 4, 1
	comms := tcpComms(t, n)
	errs := waitRanks(t, comms, 4*time.Second, func(c Comm) error {
		// First barrier establishes the full connection mesh; connection
		// loss is only observable on connections that exist.
		if err := Barrier(c); err != nil {
			return fmt.Errorf("warm-up barrier: %w", err)
		}
		if c.Rank() == victim {
			Kill(c, errors.New("power loss"))
			return nil
		}
		if err := Barrier(c); err != nil {
			Abort(c, err)
			return err
		}
		return nil
	})
	for r := 0; r < n; r++ {
		if r == victim {
			continue
		}
		if errs[r] == nil {
			t.Errorf("rank %d completed a barrier with a dead participant", r)
		}
	}
}

// TestWatchContext: cancelling the watched context aborts the comm with
// the cancellation cause — before WatchContext returns when the context
// is already cancelled, soon after the cancellation otherwise; the stop
// function is idempotent and a stopped watcher never aborts.
func TestWatchContext(t *testing.T) {
	cause := errors.New("user hit ctrl-c")
	for _, tc := range []struct {
		name        string
		cancelFirst bool
	}{
		{"already cancelled", true},
		{"cancelled while watching", false},
	} {
		_, comms := inprocComms(t, 2)
		ctx, cancel := context.WithCancelCause(context.Background())
		if tc.cancelFirst {
			cancel(cause)
		}
		stop := WatchContext(ctx, comms[0])
		cancel(cause) // a no-op when already cancelled
		errs := waitRanks(t, comms, 2*time.Second, func(c Comm) error {
			// The registration-time abort is synchronous: the very
			// first barrier fails. The watcher goroutine's abort is
			// not ordered against a barrier that is already running,
			// so there the ranks keep meeting until it lands.
			for {
				if err := Barrier(c); err != nil || tc.cancelFirst {
					return err
				}
			}
		})
		stop()
		for r, err := range errs {
			if !errors.Is(err, ErrAborted) || !errors.Is(err, cause) {
				t.Errorf("%s: rank %d: %v, want aborted with cause", tc.name, r, err)
			}
		}
	}

	// A stopped watcher must not abort on a later cancellation.
	_, comms2 := inprocComms(t, 2)
	ctx2, cancel2 := context.WithCancel(context.Background())
	stop2 := WatchContext(ctx2, comms2[0])
	stop2()
	stop2() // idempotent
	cancel2()
	time.Sleep(20 * time.Millisecond)
	if err := comms2[0].Send(1, 7, []byte("x")); err != nil {
		t.Errorf("send after released watcher: %v", err)
	}

	// nil contexts and contexts without Done are no-ops.
	WatchContext(nil, comms2[0])()
	WatchContext(context.Background(), comms2[0])()
}

// TestRunCtxCancelStorm hammers the context-cancellation path under the
// race detector: many short groups, each cancelled at a slightly
// different point of a barrier loop, must all terminate and leak no
// goroutines.
func TestRunCtxCancelStorm(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 30; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		go func(delay time.Duration) {
			time.Sleep(delay)
			cancel()
		}(time.Duration(i%7) * 100 * time.Microsecond)
		err := RunCtx(ctx, 4, func(ctx context.Context, c Comm) error {
			for {
				if err := Barrier(c); err != nil {
					return err
				}
			}
		})
		if err == nil {
			t.Fatalf("iteration %d: cancelled run reported success", i)
		}
		cancel()
	}
	// Give transient teardown goroutines a moment, then check for leaks.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+5 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Errorf("goroutines: %d before storm, %d after", before, runtime.NumGoroutine())
}

// TestFaultPlanDeterminism: the same plan, seed and serial operation
// order must fire the same faults. Self-sends on a 1-rank group make the
// drop pattern observable: a marker sent after the probes bounds the
// drain (per-stream FIFO order is guaranteed).
func TestFaultPlanDeterminism(t *testing.T) {
	const n = 64
	run := func() map[int]bool {
		g, err := NewGroup(1)
		if err != nil {
			t.Fatal(err)
		}
		defer g.Close()
		base, _ := g.Comm(0)
		c := InjectFaults(base, FaultPlan{Seed: 42, Faults: []Fault{
			{Kind: FaultDrop, Rank: AnyRank, Peer: AnyRank, Prob: 0.5},
		}})
		for i := 0; i < n; i++ {
			if err := c.Send(0, Tag(100), []byte{byte(i)}); err != nil {
				t.Fatal(err)
			}
		}
		if err := base.Send(0, Tag(100), []byte{0xFF}); err != nil {
			t.Fatal(err)
		}
		got := make(map[int]bool)
		for {
			data, err := base.Recv(0, Tag(100))
			if err != nil {
				t.Fatal(err)
			}
			if data[0] == 0xFF {
				return got
			}
			got[int(data[0])] = true
		}
	}
	a, b := run(), run()
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			t.Fatalf("fault schedule diverged at op %d", i)
		}
	}
	if len(a) == 0 || len(a) == n {
		t.Errorf("Prob=0.5 delivered %d/%d sends; expected a mix", len(a), n)
	}
}

// TestFaultKindsThroughComm covers drop, delay and error end to end on a
// 2-rank group.
func TestFaultKindsThroughComm(t *testing.T) {
	_, comms := inprocComms(t, 2)

	// FaultError: the first send fails, the second succeeds.
	c0 := InjectFaults(comms[0], FaultPlan{Faults: []Fault{
		{Kind: FaultError, Rank: AnyRank, Peer: AnyRank, Times: 1},
	}})
	err := c0.Send(1, 9, []byte("a"))
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("injected error missing: %v", err)
	}

	if err := c0.Send(1, 9, []byte("b")); err != nil {
		t.Fatalf("post-fault send: %v", err)
	}
	if data, err := comms[1].Recv(0, 9); err != nil || !bytes.Equal(data, []byte("b")) {
		t.Fatalf("recv got %q, %v", data, err)
	}

	// FaultDelay: the matched op takes at least the configured delay.
	c1 := InjectFaults(comms[0], FaultPlan{Faults: []Fault{
		{Kind: FaultDelay, Rank: AnyRank, Peer: AnyRank, Delay: 30 * time.Millisecond, Times: 1},
	}})
	start := time.Now()
	if err := c1.Send(1, 10, nil); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 30*time.Millisecond {
		t.Errorf("delayed send returned in %v", d)
	}
	if _, err := comms[1].Recv(0, 10); err != nil {
		t.Fatal(err)
	}

	// Phase scoping: a fault bound to phase "put" stays dormant elsewhere.
	c2 := InjectFaults(comms[0], FaultPlan{Faults: []Fault{
		{Kind: FaultError, Rank: AnyRank, Peer: AnyRank, Phase: "put"},
	}})
	NotePhase(c2, "reduction")
	if err := c2.Send(1, 11, nil); err != nil {
		t.Fatalf("fault fired outside its phase: %v", err)
	}
	if _, err := comms[1].Recv(0, 11); err != nil {
		t.Fatal(err)
	}
	NotePhase(c2, "put")
	if err := c2.Send(1, 11, nil); !errors.Is(err, ErrInjected) {
		t.Fatalf("fault did not fire in its phase: %v", err)
	}
}

// FuzzAbortMessage fuzzes the failure-dissemination wire codec: encoded
// notifications must round-trip, and arbitrary peer-controlled bytes must
// decode cleanly or fail cleanly — never panic or over-allocate.
func FuzzAbortMessage(f *testing.F) {
	f.Add([]byte{})
	f.Add(encodeAbortMsg([]int{3, 1, 3}, "rank 3 died"))
	f.Add(encodeAbortMsg(nil, ""))
	f.Add(encodeAbortMsg(nil, "cancelled, no rank to blame"))
	f.Add(encodeAbortMsg([]int{0, 7}, ""))
	f.Add([]byte{abortMsgVersion, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		ranks, cause, err := decodeAbortMsg(data)
		if err != nil {
			return
		}
		if len(cause) > maxAbortCause {
			t.Fatalf("decoded cause of %d bytes above limit", len(cause))
		}
		for i := 1; i < len(ranks); i++ {
			if ranks[i] <= ranks[i-1] {
				t.Fatalf("decoded ranks not strictly ascending: %v", ranks)
			}
		}
		// A decoded message is in normal form: it must survive encode +
		// decode unchanged, rank for rank.
		ranks2, cause2, err := decodeAbortMsg(encodeAbortMsg(ranks, cause))
		if err != nil {
			t.Fatalf("re-encoded message rejected: %v", err)
		}
		if cause2 != cause || !slices.Equal(ranks2, ranks) {
			t.Fatalf("re-encode mismatch: %v/%q vs %v/%q", ranks2, cause2, ranks, cause)
		}
	})
}
