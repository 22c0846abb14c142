package telemetry

import (
	"fmt"
	"io"

	"dedupcr/internal/metrics"
)

// Cluster-wide view of the segment-store engines: every rank reports its
// local metrics.StoreStats after a dump (the zero value on non-segment
// engines), rank 0 reduces them. In-band like the dump and restore
// gathers — no out-of-band monitoring channel.

// ClusterStore is rank 0's reduced view of every rank's local store —
// the storage-plane sibling of ClusterDump and ClusterRestore.
type ClusterStore struct {
	// Kind discriminates the JSON encoding; always "store".
	Kind string
	// Ranks is the group size the stats were aggregated over.
	Ranks int
	// Total sums (and for Gen, maxes) every rank's snapshot.
	Total metrics.StoreStats
	// GarbageRatio is the cluster-wide tombstoned fraction of on-disk
	// payload; ReclaimRatio the cluster-wide reclaimed fraction of all
	// tombstoned bytes (1 when nothing was tombstoned).
	GarbageRatio float64
	ReclaimRatio float64
	// MaxGarbageRatio is the worst single rank's garbage fraction — the
	// node whose compactor is furthest behind.
	MaxGarbageRatio float64
	// GarbageImbalance is max/mean of per-rank garbage bytes; 0 when no
	// rank holds garbage.
	GarbageImbalance float64
	// PerRank has one snapshot per rank, indexed by rank.
	PerRank []metrics.StoreStats
}

// AggregateStore reduces per-rank store snapshots into a ClusterStore.
// Pure function shared by the in-band gather and the experiment harness;
// the slice may be in any rank order, every rank exactly once.
func AggregateStore(stats []metrics.StoreStats) (*ClusterStore, error) {
	stats, err := inRankOrder(stats, storeCodec)
	if err != nil {
		return nil, err
	}
	cs := &ClusterStore{Kind: "store", Ranks: len(stats), PerRank: stats}
	garbage := make([]int64, len(stats))
	for r, s := range stats {
		cs.Total.Add(s)
		garbage[r] = s.GarbageBytes
		cs.MaxGarbageRatio = max(cs.MaxGarbageRatio, s.GarbageRatio())
	}
	cs.GarbageRatio = cs.Total.GarbageRatio()
	cs.ReclaimRatio = cs.Total.ReclaimRatio()
	cs.GarbageImbalance = imbalance(garbage)
	return cs, nil
}

func (cs *ClusterStore) flagged() []Straggler { return nil }

// WritePrometheus renders the cluster store view in Prometheus text
// exposition format, the dedupcr_cluster_store_* families.
func (cs *ClusterStore) WritePrometheus(w io.Writer) {
	const p = "dedupcr_cluster_store_"
	m := metrics.NewWriter(w, "")
	m.Gauge(p+"ranks", "Number of ranks aggregated into the cluster store view.", cs.Ranks)
	m.Gauge(p+"segments", "Segments across all local stores (sealed plus active).", cs.Total.Segments)
	m.Gauge(p+"live_bytes", "Live payload bytes across all local stores.", cs.Total.LiveBytes)
	m.Gauge(p+"data_bytes", "On-disk payload bytes across all local stores, garbage included.", cs.Total.DataBytes)
	m.Gauge(p+"garbage_bytes", "Tombstoned payload bytes awaiting compaction, cluster-wide.", cs.Total.GarbageBytes)
	m.Gauge(p+"garbage_ratio", "Cluster-wide tombstoned fraction of on-disk payload.", cs.GarbageRatio)
	m.Gauge(p+"max_garbage_ratio", "Worst single rank's garbage fraction.", cs.MaxGarbageRatio)
	m.Gauge(p+"reclaim_ratio", "Reclaimed fraction of all tombstoned bytes, cluster-wide.", cs.ReclaimRatio)
	m.Gauge(p+"garbage_imbalance", "Max/mean of per-rank garbage bytes (1.0 = even).", cs.GarbageImbalance)
	m.Gauge(p+"compactions", "Compaction sweeps summed over ranks.", cs.Total.Compactions)
	m.Gauge(p+"reclaimed_bytes", "Tombstoned bytes physically reclaimed, summed over ranks.", cs.Total.ReclaimedBytes)
	rankGauge(m, p+"rank_garbage_bytes", "Tombstoned payload bytes awaiting compaction on one rank.",
		len(cs.PerRank), func(r int) any { return cs.PerRank[r].GarbageBytes })
}

// WriteText renders the cluster store view as a compact report.
func (cs *ClusterStore) WriteText(w io.Writer) {
	fmt.Fprintf(w, "cluster store: %d ranks, %d segments (%d sealed)\n",
		cs.Ranks, cs.Total.Segments, cs.Total.SealedSegments)
	fmt.Fprintf(w, "bytes: live %s, on-disk %s, garbage %s (%.1f%% cluster, %.1f%% worst rank)\n",
		metrics.Bytes(cs.Total.LiveBytes), metrics.Bytes(cs.Total.DataBytes),
		metrics.Bytes(cs.Total.GarbageBytes), 100*cs.GarbageRatio, 100*cs.MaxGarbageRatio)
	fmt.Fprintf(w, "lifecycle: %d seals, %d commits, %d compactions (%d segments, reclaimed %s of %s tombstoned, %.1f%%)\n",
		cs.Total.Seals, cs.Total.Commits, cs.Total.Compactions, cs.Total.SegmentsCompacted,
		metrics.Bytes(cs.Total.ReclaimedBytes), metrics.Bytes(cs.Total.TombstonedBytes), 100*cs.ReclaimRatio)
	if cs.GarbageImbalance > 0 {
		fmt.Fprintf(w, "garbage imbalance (max/mean): %.3f\n", cs.GarbageImbalance)
	}
}
