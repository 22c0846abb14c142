package metrics

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// sampleRestore builds a fully populated Restore for exposition tests.
func sampleRestore() Restore {
	runs := NewHistogram()
	for _, v := range []int64{1, 1, 3, 8, 120} {
		runs.Record(v)
	}
	fetch := NewHistogram()
	for _, v := range []int64{30_000, 80_000, 900_000} {
		fetch.Record(v)
	}
	reads := NewHistogram()
	for _, v := range []int64{600, 2_500} {
		reads.Record(v)
	}
	return Restore{
		Rank: 2, LogicalBytes: 1 << 20, TotalChunks: 256, UniqueChunks: 240,
		LocalChunks: 150, LocalBytes: 614_400, FetchedChunks: 106, FetchedBytes: 434_176,
		FetchRequests: 110, FetchMisses: 4, MetaFetches: 1,
		SourceRanks: 3, ObjectsTouched: 151, LargestRun: 120,
		PeerFetchChunks: []int64{0, 40, 0, 66}, PeerFetchBytes: []int64{0, 163_840, 0, 270_336},
		Phases: RestorePhases{
			Meta: 200 * time.Microsecond, Assemble: 8 * time.Millisecond,
			Fetch: 5 * time.Millisecond, Commit: 500 * time.Microsecond,
			Barrier: 300 * time.Microsecond, Total: 10 * time.Millisecond,
		},
		BarrierExit:      time.Unix(1700000000, 0),
		RunLengths:       runs,
		FetchLatency:     fetch,
		StoreReadLatency: reads,
	}
}

// TestRestoreExpositionWellFormed runs the strict checker over the
// dedupcr_restore_* families, populated and empty.
func TestRestoreExpositionWellFormed(t *testing.T) {
	for _, tc := range []struct {
		name string
		r    Restore
	}{
		{"populated", sampleRestore()},
		{"empty", Restore{Rank: 0}},
	} {
		var buf bytes.Buffer
		tc.r.WritePrometheus(&buf)
		if err := CheckExposition(bytes.NewReader(buf.Bytes())); err != nil {
			t.Errorf("%s: %v\n%s", tc.name, err, buf.String())
		}
	}
}

// TestRestoreExpositionShape pins the family shapes: the run-length
// histogram on the integer ladder with a +Inf bucket equal to _count,
// the per-peer matrix omitting zero slots, and the amplification gauges.
func TestRestoreExpositionShape(t *testing.T) {
	r := sampleRestore()
	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	out := buf.String()
	for _, want := range []string{
		"# TYPE dedupcr_restore_run_length_chunks histogram",
		`dedupcr_restore_run_length_chunks_bucket{rank="2",le="1"} 2`,
		`dedupcr_restore_run_length_chunks_bucket{rank="2",le="+Inf"} 5`,
		`dedupcr_restore_run_length_chunks_count{rank="2"} 5`,
		`dedupcr_restore_peer_fetched_bytes_total{rank="2",peer="1"} 163840`,
		`dedupcr_restore_peer_fetched_bytes_total{rank="2",peer="3"} 270336`,
		`dedupcr_restore_read_amplification_bytes{rank="2"} 0.414062`,
		`dedupcr_restore_phase_seconds{rank="2",phase="assemble"} 0.008000000`,
		`dedupcr_restore_phase_seconds{rank="2",phase="total"} 0.010000000`,
		"# TYPE dedupcr_restore_fetch_latency_seconds histogram",
		"# TYPE dedupcr_restore_store_read_latency_seconds histogram",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "recovered_chunks") {
		t.Errorf("exposition still carries a recovered-chunk family:\n%s", out)
	}
	if strings.Contains(out, `peer="0"`) || strings.Contains(out, `peer="2"`) {
		t.Errorf("zero peer slots exposed:\n%s", out)
	}
}

func TestReadAmplification(t *testing.T) {
	r := Restore{LogicalBytes: 1000, FetchedBytes: 250, UniqueChunks: 100, FetchedChunks: 150}
	if got := r.ReadAmplificationBytes(); got != 0.25 {
		t.Errorf("bytes amplification: got %g, want 0.25", got)
	}
	if got := r.ReadAmplificationChunks(); got != 1.5 {
		t.Errorf("chunks amplification: got %g, want 1.5", got)
	}
	var zero Restore
	if zero.ReadAmplificationBytes() != 0 || zero.ReadAmplificationChunks() != 0 {
		t.Error("zero restore must have zero amplification, not NaN")
	}
	if got := (Restore{LocalBytes: 3, FetchedBytes: 4}).ReadBytes(); got != 7 {
		t.Errorf("ReadBytes: got %d, want 7", got)
	}
}

// TestRestorePhasesDecomposition checks the Sum/Other contract: Fetch is
// contained in Assemble and excluded from Sum; Other never goes negative.
func TestRestorePhasesDecomposition(t *testing.T) {
	p := RestorePhases{
		Meta: 1 * time.Millisecond, Assemble: 8 * time.Millisecond,
		Fetch: 5 * time.Millisecond, Commit: 1 * time.Millisecond,
		Barrier: 1 * time.Millisecond, Total: 12 * time.Millisecond,
	}
	if got, want := p.Sum(), 11*time.Millisecond; got != want {
		t.Errorf("Sum: got %v, want %v (Fetch must not double-count)", got, want)
	}
	if got, want := p.Other(), time.Millisecond; got != want {
		t.Errorf("Other: got %v, want %v", got, want)
	}
	if (RestorePhases{Total: time.Millisecond, Assemble: 2 * time.Millisecond}).Other() != 0 {
		t.Error("Other must clamp at 0")
	}
	var q RestorePhases
	q.Add(p)
	q.Add(p)
	if q.Assemble != 16*time.Millisecond || q.Fetch != 10*time.Millisecond || q.Total != 24*time.Millisecond {
		t.Errorf("Add accumulation wrong: %+v", q)
	}
	for _, name := range RestorePhaseNames {
		if p.ByName(name) == 0 {
			t.Errorf("ByName(%q) returned 0 for populated phases", name)
		}
	}
	if p.ByName("no-such-phase") != 0 {
		t.Error("unknown phase name must return 0")
	}
}
