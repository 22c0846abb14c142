package telemetry

import (
	"strings"
	"testing"
	"time"

	"dedupcr/internal/metrics"
)

// clusterDumps builds n per-rank dumps with a linear put-time ramp and
// rank-proportional traffic, anchored to a common barrier-exit base with
// per-rank skew.
func clusterDumps(n int) []metrics.Dump {
	base := time.Unix(1700000000, 0)
	dumps := make([]metrics.Dump, n)
	for r := range dumps {
		dumps[r] = metrics.Dump{
			Rank:        r,
			SentBytes:   int64(1000 * (r + 1)),
			RecvBytes:   int64(900 * (r + 1)),
			StoredBytes: int64(2000 * (r + 1)),
			Phases: metrics.Phases{
				Chunking: time.Millisecond,
				Put:      time.Duration(r+1) * 10 * time.Millisecond,
				Barrier:  time.Millisecond,
				Total:    time.Duration(r+1) * 12 * time.Millisecond,
			},
			BarrierExit: base.Add(time.Duration(r) * time.Microsecond),
		}
	}
	return dumps
}

func TestAggregateSpreadAndImbalance(t *testing.T) {
	const n = 8
	cd, err := Aggregate(clusterDumps(n))
	if err != nil {
		t.Fatal(err)
	}
	if cd.Ranks != n {
		t.Fatalf("ranks = %d, want %d", cd.Ranks, n)
	}

	put := cd.Phase("put")
	if put.Min != 10*time.Millisecond || put.Max != 80*time.Millisecond {
		t.Errorf("put min/max = %v/%v, want 10ms/80ms", put.Min, put.Max)
	}
	if put.Median != 40*time.Millisecond { // nearest-rank of 10..80ms
		t.Errorf("put median = %v, want 40ms", put.Median)
	}
	if put.P95 != 80*time.Millisecond {
		t.Errorf("put p95 = %v, want 80ms", put.P95)
	}
	if put.SlowestRank != n-1 {
		t.Errorf("put slowest rank = %d, want %d", put.SlowestRank, n-1)
	}
	for _, ps := range cd.Phases {
		if ps.Min > ps.Median || ps.Median > ps.P95 || ps.P95 > ps.Max {
			t.Errorf("%s: quantiles not ordered: %+v", ps.Name, ps)
		}
	}
	if cd.Phases[len(cd.Phases)-1].Name != "total" {
		t.Errorf("last phase entry is %q, want total", cd.Phases[len(cd.Phases)-1].Name)
	}

	// Sent bytes ramp 1000..8000: sum 36000, max 8000, mean 4500.
	if cd.TotalSentBytes != 36000 {
		t.Errorf("total sent = %d, want 36000", cd.TotalSentBytes)
	}
	wantImb := 8000.0 / 4500.0
	if diff := cd.SendImbalance - wantImb; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("send imbalance = %f, want %f", cd.SendImbalance, wantImb)
	}
	if cd.DesignationImbalance <= 1 {
		t.Errorf("designation imbalance = %f, want > 1 for skewed load", cd.DesignationImbalance)
	}

	// Rank n-1 carries the latest stamp: offset 0; rank 0 lags by
	// (n-1)µs; spread is the full window.
	if cd.PerRank[n-1].ClockOffset != 0 {
		t.Errorf("latest rank offset = %v, want 0", cd.PerRank[n-1].ClockOffset)
	}
	if cd.PerRank[0].ClockOffset != time.Duration(n-1)*time.Microsecond {
		t.Errorf("rank 0 offset = %v, want %dµs", cd.PerRank[0].ClockOffset, n-1)
	}
	if cd.ClockSpread != time.Duration(n-1)*time.Microsecond {
		t.Errorf("clock spread = %v", cd.ClockSpread)
	}
}

// TestAggregateFlagsInjectedStraggler is the acceptance check: a rank
// whose put phase is blown far past the cluster median must come back
// flagged, and only that rank.
func TestAggregateFlagsInjectedStraggler(t *testing.T) {
	const n = 8
	dumps := make([]metrics.Dump, n)
	for r := range dumps {
		dumps[r] = metrics.Dump{
			Rank: r,
			Phases: metrics.Phases{
				Put:     10 * time.Millisecond,
				Commit:  2 * time.Millisecond,
				Total:   15 * time.Millisecond,
				Barrier: time.Millisecond,
			},
		}
	}
	// Inject: rank 5 takes 5x the median put time.
	dumps[5].Phases.Put = 50 * time.Millisecond
	dumps[5].Phases.Total = 55 * time.Millisecond

	cd, err := Aggregate(dumps)
	if err != nil {
		t.Fatal(err)
	}
	if len(cd.Stragglers) != 1 {
		t.Fatalf("stragglers = %+v, want exactly the injected one", cd.Stragglers)
	}
	s := cd.Stragglers[0]
	if s.Rank != 5 || s.Phase != "put" {
		t.Fatalf("flagged rank %d phase %q, want rank 5 put", s.Rank, s.Phase)
	}
	if s.Median != 10*time.Millisecond || s.Excess() != 40*time.Millisecond {
		t.Errorf("straggler stats: %+v", s)
	}
	if got := cd.StragglersFor(5); len(got) != 1 || got[0] != s {
		t.Errorf("StragglersFor(5) = %+v", got)
	}
	if got := cd.StragglersFor(0); len(got) != 0 {
		t.Errorf("StragglersFor(0) = %+v, want empty", got)
	}

	// The floor suppresses the flag when the absolute excess is tiny.
	for r := range dumps {
		dumps[r].Phases.Put = 10 * time.Microsecond
	}
	dumps[5].Phases.Put = 50 * time.Microsecond // 5x median but only 40µs over
	cd, err = Aggregate(dumps)
	if err != nil {
		t.Fatal(err)
	}
	if len(cd.Stragglers) != 0 {
		t.Errorf("sub-floor excess still flagged: %+v", cd.Stragglers)
	}
}

func TestAggregateRejectsBadRankSets(t *testing.T) {
	if _, err := Aggregate(nil); err == nil {
		t.Error("empty dump set accepted")
	}
	dup := []metrics.Dump{{Rank: 0}, {Rank: 0}}
	if _, err := Aggregate(dup); err == nil {
		t.Error("duplicate rank accepted")
	}
	oor := []metrics.Dump{{Rank: 0}, {Rank: 7}}
	if _, err := Aggregate(oor); err == nil {
		t.Error("out-of-range rank accepted")
	}
}

func TestWriteTextRendersAllSections(t *testing.T) {
	dumps := clusterDumps(4)
	dumps[3].Phases.Put = 400 * time.Millisecond // force a straggler
	cd, err := Aggregate(dumps)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	cd.WriteText(&sb)
	out := sb.String()
	for _, want := range []string{
		"cluster dump: 4 ranks", "phase", "median", "p95",
		"imbalance (max/mean)", "clock spread", "stragglers", "rank 3 put",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}
