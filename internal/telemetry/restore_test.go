package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"dedupcr/internal/collectives"
	"dedupcr/internal/metrics"
	"dedupcr/internal/obs"
)

// clusterRestores builds a deterministic n-rank restore fixture: rank r
// fetched r*100KB from its left neighbour, rank n-1 is a barrier
// straggler, and every rank contributes run-length samples.
func clusterRestores(n int) []metrics.Restore {
	base := time.Unix(1700000000, 0)
	rs := make([]metrics.Restore, n)
	for r := range rs {
		runs := metrics.NewHistogram()
		runs.Record(int64(1 + r))
		runs.Record(256)
		peerBytes := make([]int64, n)
		var fetched int64
		if r > 0 {
			fetched = int64(r) * 100_000
			peerBytes[r-1] = fetched
		}
		sources := 0
		if fetched > 0 {
			sources = 1
		}
		rs[r] = metrics.Restore{
			Rank: r, LogicalBytes: 1_000_000, TotalChunks: 256, UniqueChunks: 250,
			LocalChunks: 256 - r, LocalBytes: 1_000_000 - fetched,
			FetchedChunks: r, FetchedBytes: fetched,
			FetchRequests: int64(r), SourceRanks: sources,
			ObjectsTouched: 200 + r, LargestRun: 256,
			PeerFetchChunks: make([]int64, n), PeerFetchBytes: peerBytes,
			Phases: metrics.RestorePhases{
				Meta:     100 * time.Microsecond,
				Assemble: time.Duration(r+1) * 10 * time.Millisecond,
				Fetch:    time.Duration(r) * 5 * time.Millisecond,
				Barrier:  time.Millisecond,
				Total:    time.Duration(r+2) * 11 * time.Millisecond,
			},
			BarrierExit: base.Add(time.Duration(r) * time.Microsecond),
			RunLengths:  runs,
		}
	}
	// Make the last rank an unambiguous barrier straggler.
	rs[n-1].Phases.Barrier = 50 * time.Millisecond
	return rs
}

func TestAggregateRestore(t *testing.T) {
	n := 4
	cr, err := AggregateRestore(clusterRestores(n))
	if err != nil {
		t.Fatal(err)
	}
	if cr.Kind != "restore" {
		t.Errorf("Kind: got %q, want \"restore\"", cr.Kind)
	}
	if cr.Ranks != n {
		t.Errorf("Ranks: got %d, want %d", cr.Ranks, n)
	}
	if got, want := cr.TotalLogicalBytes, int64(4_000_000); got != want {
		t.Errorf("TotalLogicalBytes: got %d, want %d", got, want)
	}
	// Ranks 1..3 fetched 100k, 200k, 300k.
	if got, want := cr.TotalFetchedBytes, int64(600_000); got != want {
		t.Errorf("TotalFetchedBytes: got %d, want %d", got, want)
	}
	if got, want := cr.ReadAmplificationBytes, 0.15; got != want {
		t.Errorf("ReadAmplificationBytes: got %g, want %g", got, want)
	}
	if got, want := cr.ReadAmplificationChunks, 6.0/1000.0; got != want {
		t.Errorf("ReadAmplificationChunks: got %g, want %g", got, want)
	}
	// Fetch imbalance: per-rank fetched {0,100k,200k,300k}: max 300k / mean 150k.
	if got, want := cr.FetchImbalance, 2.0; got != want {
		t.Errorf("FetchImbalance: got %g, want %g", got, want)
	}
	// Serve columns: rank 0 served 100k, 1 served 200k, 2 served 300k.
	if got, want := cr.ServeImbalance, 2.0; got != want {
		t.Errorf("ServeImbalance: got %g, want %g", got, want)
	}
	if cr.MaxSourceRanks != 1 {
		t.Errorf("MaxSourceRanks: got %d, want 1", cr.MaxSourceRanks)
	}
	if cr.FetchMatrix == nil || cr.FetchMatrix[3][2] != 300_000 {
		t.Errorf("FetchMatrix wrong: %v", cr.FetchMatrix)
	}
	if got, want := cr.RunLengths.Count, int64(2*n); got != want {
		t.Errorf("RunLengths.Count: got %d, want %d", got, want)
	}
	if cr.RunLengths.Max != 256 {
		t.Errorf("RunLengths.Max: got %d, want 256", cr.RunLengths.Max)
	}
	var distSum int64
	for _, c := range cr.RunLengthDist {
		distSum += c
	}
	if distSum != cr.RunLengths.Count {
		t.Errorf("RunLengthDist sums to %d, want %d", distSum, cr.RunLengths.Count)
	}
	if got := cr.Phase("assemble"); got.Max != 40*time.Millisecond || got.SlowestRank != 3 {
		t.Errorf("assemble phase stat wrong: %+v", got)
	}
	if got := cr.Phase("total"); got.Min != 22*time.Millisecond {
		t.Errorf("total min wrong: %+v", got)
	}
	if cr.ClockSpread != 3*time.Microsecond {
		t.Errorf("ClockSpread: got %v, want 3µs", cr.ClockSpread)
	}
	if cr.PerRank[3].ClockOffset != 0 || cr.PerRank[0].ClockOffset != 3*time.Microsecond {
		t.Errorf("clock offsets wrong: %+v", cr.PerRank)
	}

	// The barrier blow-up on rank n-1 must be flagged; the fetch phase
	// must never be (it is contained in assemble).
	found := false
	for _, s := range cr.Stragglers {
		if s.Phase == "fetch" || s.Phase == "total" {
			t.Errorf("straggler flagged on excluded phase %q", s.Phase)
		}
		if s.Rank == n-1 && s.Phase == "restore-barrier" {
			found = true
		}
	}
	if !found {
		t.Errorf("barrier straggler not flagged: %+v", cr.Stragglers)
	}
	if got := cr.StragglersFor(n - 1); len(got) == 0 {
		t.Error("StragglersFor missed the straggler rank")
	}
}

func TestAggregateRestoreRejects(t *testing.T) {
	if _, err := AggregateRestore(nil); err == nil {
		t.Error("empty slice accepted")
	}
	rs := clusterRestores(3)
	rs[2].Rank = 0
	if _, err := AggregateRestore(rs); err == nil {
		t.Error("duplicate rank accepted")
	}
	rs = clusterRestores(3)
	rs[1].Rank = 7
	if _, err := AggregateRestore(rs); err == nil {
		t.Error("out-of-range rank accepted")
	}
}

// TestClusterRestoreJSONKind pins the JSON discriminator contract that
// dedupstat relies on: a marshalled ClusterRestore carries Kind
// "restore" and survives a round trip.
func TestClusterRestoreJSONKind(t *testing.T) {
	cr, err := AggregateRestore(clusterRestores(3))
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(cr)
	if err != nil {
		t.Fatal(err)
	}
	var probe struct{ Kind string }
	if err := json.Unmarshal(data, &probe); err != nil || probe.Kind != "restore" {
		t.Fatalf("Kind probe: %q, %v", probe.Kind, err)
	}
	var back ClusterRestore
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Ranks != cr.Ranks || back.ReadAmplificationBytes != cr.ReadAmplificationBytes ||
		back.RunLengths != cr.RunLengths || len(back.PerRank) != len(cr.PerRank) {
		t.Errorf("JSON round trip mismatch: %+v", back)
	}
}

func TestClusterRestoreWriteText(t *testing.T) {
	cr, err := AggregateRestore(clusterRestores(4))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	cr.WriteText(&buf)
	out := buf.String()
	for _, want := range []string{
		"cluster restore: 4 ranks",
		"assemble",
		"read amplification: 0.150x bytes",
		"fetch RPCs: 6",
		"run lengths (chunks):",
		"restore-barrier",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("WriteText missing %q:\n%s", want, out)
		}
	}
}

// TestGatherClusterRestore runs the in-band restore gather over an
// in-process group: only rank 0 gets the aggregate, and it matches a
// direct AggregateRestore of the same fixture.
func TestGatherClusterRestore(t *testing.T) {
	n := 4
	fix := clusterRestores(n)
	var got *ClusterRestore
	err := collectives.Run(n, func(c collectives.Comm) error {
		cr, err := GatherClusterRestore(c, fix[c.Rank()])
		if err != nil {
			return err
		}
		if c.Rank() != 0 {
			if cr != nil {
				t.Errorf("rank %d got a non-nil aggregate", c.Rank())
			}
			return nil
		}
		got = cr
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := AggregateRestore(clusterRestores(n))
	if err != nil {
		t.Fatal(err)
	}
	if got == nil {
		t.Fatal("rank 0 got no aggregate")
	}
	if got.TotalFetchedBytes != want.TotalFetchedBytes ||
		got.ReadAmplificationBytes != want.ReadAmplificationBytes ||
		got.RunLengths != want.RunLengths ||
		got.FetchImbalance != want.FetchImbalance {
		t.Errorf("gathered aggregate differs:\n got %+v\nwant %+v", got, want)
	}
}

// TestGatherClusterRestoreLogsStragglers checks that a restore straggler
// reaches the flight recorder the way a dump straggler does: one event
// naming its rank and phase.
func TestGatherClusterRestoreLogsStragglers(t *testing.T) {
	const n = 4
	ring := obs.NewWithClock(256, func() time.Duration { return time.Second })
	defer obs.SetDefault(obs.SetDefault(ring))
	fix := clusterRestores(n)
	err := collectives.Run(n, func(c collectives.Comm) error {
		_, err := GatherClusterRestore(c, fix[c.Rank()])
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	var got []obs.Event
	for _, e := range ring.Events() {
		if e.Kind == obs.KindStraggler {
			got = append(got, e)
		}
	}
	if len(got) != 1 || got[0].Rank != n-1 || got[0].Phase != "restore-barrier" {
		t.Fatalf("straggler events = %+v, want one for rank %d restore-barrier", got, n-1)
	}
}

// TestClusterRestoreExpositionWellFormed runs the strict checker over
// the dedupcr_cluster_restore_* families and pins key samples.
func TestClusterRestoreExpositionWellFormed(t *testing.T) {
	cr, err := AggregateRestore(clusterRestores(4))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	cr.WritePrometheus(&buf)
	if err := metrics.CheckExposition(bytes.NewReader(buf.Bytes())); err != nil {
		t.Errorf("cluster restore exposition malformed: %v\n%s", err, buf.String())
	}
	out := buf.String()
	if strings.Contains(out, "recovered_chunks") {
		t.Errorf("exposition still carries a recovered-chunk family:\n%s", out)
	}
	for _, want := range []string{
		"dedupcr_cluster_restore_ranks 4",
		`dedupcr_cluster_restore_phase_seconds{phase="assemble",stat="median"}`,
		`dedupcr_cluster_restore_phase_slowest_rank{phase="assemble"} 3`,
		"dedupcr_cluster_restore_read_amplification_bytes 0.150000",
		"dedupcr_cluster_restore_fetch_imbalance 2.000",
		`dedupcr_cluster_restore_rank_fetched_bytes{rank="3"} 300000`,
		`dedupcr_cluster_restore_run_length_chunks{stat="max"} 256`,
		"dedupcr_cluster_restore_stragglers",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}

	// A quiet cluster (no fetches, no stragglers) must still be
	// well-formed and must omit the straggler-excess family.
	flat := make([]metrics.Restore, 2)
	for r := range flat {
		flat[r] = metrics.Restore{Rank: r, LogicalBytes: 1000, LocalBytes: 1000}
	}
	crFlat, err := AggregateRestore(flat)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	crFlat.WritePrometheus(&buf)
	if err := metrics.CheckExposition(bytes.NewReader(buf.Bytes())); err != nil {
		t.Errorf("flat cluster restore exposition malformed: %v\n%s", err, buf.String())
	}
	if strings.Contains(buf.String(), "straggler_excess") {
		t.Errorf("flat cluster still exposes straggler excess:\n%s", buf.String())
	}
}
