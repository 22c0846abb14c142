package telemetry

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"dedupcr/internal/metrics"
)

// TestClusterExpositionWellFormed runs the strict checker over the
// cluster families, with and without stragglers present.
func TestClusterExpositionWellFormed(t *testing.T) {
	dumps := clusterDumps(4)
	cd, err := Aggregate(dumps)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	cd.WritePrometheus(&buf)
	if err := metrics.CheckExposition(bytes.NewReader(buf.Bytes())); err != nil {
		t.Errorf("cluster exposition malformed: %v\n%s", err, buf.String())
	}
	out := buf.String()
	for _, want := range []string{
		"dedupcr_cluster_ranks 4",
		`dedupcr_cluster_phase_seconds{phase="put",stat="median"}`,
		`dedupcr_cluster_phase_seconds{phase="total",stat="p95"}`,
		`dedupcr_cluster_phase_slowest_rank{phase="put"} 3`,
		`dedupcr_cluster_rank_sent_bytes{rank="0"} 1000`,
		"dedupcr_cluster_designation_imbalance",
		"dedupcr_cluster_send_imbalance",
		`dedupcr_cluster_clock_offset_seconds{rank="3"} 0.000000000`,
		"dedupcr_cluster_clock_spread_seconds 0.000003000",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}

	// No stragglers in the ramp fixture below the put threshold? The
	// ramp does flag the top rank; assert the excess family carries it
	// and stays well-formed.
	if len(cd.Stragglers) > 0 {
		if !strings.Contains(out, "dedupcr_cluster_straggler_excess_seconds{rank=") {
			t.Errorf("stragglers present but excess family missing:\n%s", out)
		}
	}

	// A straggler-free dump must omit the excess family entirely.
	flat := make([]metrics.Dump, 4)
	for r := range flat {
		flat[r] = metrics.Dump{Rank: r, Phases: metrics.Phases{Put: time.Millisecond, Total: time.Millisecond}}
	}
	cdFlat, err := Aggregate(flat)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	cdFlat.WritePrometheus(&buf)
	if err := metrics.CheckExposition(bytes.NewReader(buf.Bytes())); err != nil {
		t.Errorf("flat cluster exposition malformed: %v\n%s", err, buf.String())
	}
	if strings.Contains(buf.String(), "straggler_excess") {
		t.Errorf("flat cluster still exposes straggler excess:\n%s", buf.String())
	}
}
