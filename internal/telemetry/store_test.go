package telemetry

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"dedupcr/internal/collectives"
	"dedupcr/internal/metrics"
)

// storeStatsFixture builds one rank's distinct, fully populated snapshot.
func storeStatsFixture(rank int) metrics.StoreStats {
	r := int64(rank + 1)
	return metrics.StoreStats{
		Rank:     rank,
		Segments: 4 * r, SealedSegments: 3 * r, LiveChunks: 100 * r, LiveBytes: 4096 * r,
		DataBytes: 5000 * r, GarbageBytes: 904 * r, Gen: 2 * r,
		Seals: 3 * r, Commits: 2 * r, Compactions: r, SegmentsCompacted: r,
		TombstonedBytes: 2000 * r, ReclaimedBytes: 1096 * r, CopiedBytes: 512 * r, CopiedChunks: 8 * r,
	}
}

func TestStoreWireRoundTrip(t *testing.T) {
	for _, in := range []metrics.StoreStats{storeStatsFixture(3), {}} {
		enc, err := EncodeStoreStats(in)
		if err != nil {
			t.Fatal(err)
		}
		out, err := DecodeStoreStats(enc)
		if err != nil {
			t.Fatal(err)
		}
		if out != in {
			t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", in, out)
		}
		// Encoding is deterministic: same snapshot, same bytes.
		enc2, _ := EncodeStoreStats(in)
		if !bytes.Equal(enc, enc2) {
			t.Fatal("store encoding not deterministic")
		}
	}
}

func TestStoreWireRejects(t *testing.T) {
	enc, err := EncodeStoreStats(storeStatsFixture(0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeStoreStats(nil); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := DecodeStoreStats(append([]byte{99}, enc[1:]...)); err == nil {
		t.Error("wrong version accepted")
	}
	for _, cut := range []int{1, 8, len(enc) / 2, len(enc) - 1} {
		if _, err := DecodeStoreStats(enc[:cut]); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
	if _, err := DecodeStoreStats(append(append([]byte(nil), enc...), 0)); err == nil {
		t.Error("trailing bytes accepted")
	}
}

func TestAggregateStore(t *testing.T) {
	// Rank order must not matter; rank 1 runs a non-segment engine and
	// reports the zero snapshot (only Rank set), as the gather contract
	// allows in mixed-engine groups.
	stats := []metrics.StoreStats{
		storeStatsFixture(2),
		{Rank: 1},
		storeStatsFixture(0),
	}
	cs, err := AggregateStore(stats)
	if err != nil {
		t.Fatal(err)
	}
	if cs.Kind != "store" || cs.Ranks != 3 {
		t.Fatalf("kind/ranks = %q/%d", cs.Kind, cs.Ranks)
	}
	// Sums over ranks 0 and 2 (multipliers 1 and 3 → ×4); Gen is a max.
	if cs.Total.Segments != 16 || cs.Total.GarbageBytes != 3616 || cs.Total.ReclaimedBytes != 4384 {
		t.Fatalf("totals: %+v", cs.Total)
	}
	if cs.Total.Gen != 6 {
		t.Fatalf("Gen = %d, want max 6", cs.Total.Gen)
	}
	if cs.PerRank[2] != storeStatsFixture(2) || cs.PerRank[1].Segments != 0 {
		t.Fatalf("per-rank slots misfiled: %+v", cs.PerRank)
	}
	wantGarbage := float64(3616) / float64(20000)
	if diff := cs.GarbageRatio - wantGarbage; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("GarbageRatio = %v, want %v", cs.GarbageRatio, wantGarbage)
	}
	// Every segment-engine rank has the same per-rank garbage fraction
	// here, so the max equals any one of them.
	if diff := cs.MaxGarbageRatio - 904.0/5000.0; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("MaxGarbageRatio = %v", cs.MaxGarbageRatio)
	}
	if cs.GarbageImbalance <= 1 {
		t.Fatalf("GarbageImbalance = %v, want > 1 (rank 1 holds none)", cs.GarbageImbalance)
	}

	if _, err := AggregateStore(nil); err == nil {
		t.Error("empty slice accepted")
	}
	if _, err := AggregateStore([]metrics.StoreStats{{Rank: 0}, {Rank: 0}}); err == nil {
		t.Error("duplicate rank accepted")
	}
	if _, err := AggregateStore([]metrics.StoreStats{{Rank: 5}}); err == nil {
		t.Error("out-of-range rank accepted")
	}
}

// TestGatherClusterStore runs the in-band collective over a real group:
// every rank enters unconditionally, only rank 0 gets the reduction.
func TestGatherClusterStore(t *testing.T) {
	const n = 4
	err := collectives.Run(n, func(c collectives.Comm) error {
		s := storeStatsFixture(c.Rank())
		if c.Rank() == 2 {
			s = metrics.StoreStats{Rank: 2} // non-segment engine
		}
		cs, err := GatherClusterStore(c, s)
		if err != nil {
			return err
		}
		if c.Rank() != 0 {
			if cs != nil {
				return fmt.Errorf("rank %d got a cluster store, want nil", c.Rank())
			}
			return nil
		}
		if cs == nil {
			return fmt.Errorf("rank 0 got nil cluster store")
		}
		if cs.Ranks != n || len(cs.PerRank) != n {
			return fmt.Errorf("ranks = %d/%d", cs.Ranks, len(cs.PerRank))
		}
		// Multipliers 1, 2, 4 (rank 2 zeroed) → Segments 4+8+16 = 28.
		if cs.Total.Segments != 28 {
			return fmt.Errorf("total segments = %d, want 28", cs.Total.Segments)
		}
		if cs.PerRank[3] != storeStatsFixture(3) || cs.PerRank[2].LiveBytes != 0 {
			return fmt.Errorf("per-rank slots misfiled: %+v", cs.PerRank)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestClusterStoreExpositionWellFormed runs the strict checker over the
// dedupcr_cluster_store_* families and the text report.
func TestClusterStoreExpositionWellFormed(t *testing.T) {
	cs, err := AggregateStore([]metrics.StoreStats{
		storeStatsFixture(0), storeStatsFixture(1), {Rank: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	cs.WritePrometheus(&buf)
	if err := metrics.CheckExposition(bytes.NewReader(buf.Bytes())); err != nil {
		t.Errorf("cluster store exposition malformed: %v\n%s", err, buf.String())
	}
	out := buf.String()
	for _, want := range []string{
		"dedupcr_cluster_store_ranks 3",
		"dedupcr_cluster_store_segments 12",
		"dedupcr_cluster_store_garbage_ratio",
		"dedupcr_cluster_store_reclaim_ratio",
		`dedupcr_cluster_store_rank_garbage_bytes{rank="1"} 1808`,
		`dedupcr_cluster_store_rank_garbage_bytes{rank="2"} 0`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}

	buf.Reset()
	cs.WriteText(&buf)
	for _, want := range []string{"cluster store: 3 ranks", "garbage imbalance"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("text report missing %q:\n%s", want, buf.String())
		}
	}
}
