package metrics

import (
	"fmt"
	"io"
)

// StoreStats is the segment store's observability snapshot: the current
// shape of the log (segments, live vs garbage bytes) plus monotonic
// counters for seals, manifest commits and compaction work. The zero
// value is what a rank running a non-segment engine reports, so
// cluster-wide gathers can run unconditionally.
type StoreStats struct {
	Rank int
	// Gauges: the store's state at snapshot time.
	Segments       int64 // sealed segments plus the active one
	SealedSegments int64
	LiveChunks     int64
	LiveBytes      int64 // payload bytes reachable through live references
	DataBytes      int64 // payload bytes occupied on disk (live + garbage)
	GarbageBytes   int64 // tombstoned payload bytes awaiting compaction
	Gen            int64 // committed manifest generation
	// Counters: monotonic over the store's lifetime (in-process).
	Seals             int64 // segments sealed
	Commits           int64 // durable checkpoint commits
	Compactions       int64 // compaction sweeps that rewrote at least one segment
	SegmentsCompacted int64 // victim segments rewritten away
	TombstonedBytes   int64 // payload bytes whose refcount reached zero
	ReclaimedBytes    int64 // tombstoned bytes physically reclaimed by compaction
	CopiedBytes       int64 // live payload bytes rewritten during compaction
	CopiedChunks      int64 // live chunks rewritten during compaction
}

// GarbageRatio is the tombstoned fraction of the on-disk payload, the
// signal the compactor triggers on. Zero for an empty store.
func (s StoreStats) GarbageRatio() float64 {
	if s.DataBytes == 0 {
		return 0
	}
	return float64(s.GarbageBytes) / float64(s.DataBytes)
}

// ReclaimRatio is the fraction of all tombstoned bytes that compaction
// has physically reclaimed — the GC test asserts it stays ≥0.9 under a
// churn workload. 1 when nothing was ever tombstoned.
func (s StoreStats) ReclaimRatio() float64 {
	if s.TombstonedBytes == 0 {
		return 1
	}
	return float64(s.ReclaimedBytes) / float64(s.TombstonedBytes)
}

// WritePrometheus emits the dedupcr_store_* families labelled with the
// rank, mirroring Dump.WritePrometheus.
func (s StoreStats) WritePrometheus(w io.Writer) {
	p := RankWriter(w, s.Rank)
	p.Gauge("dedupcr_store_segments", "Segments in the local store (sealed plus active).", s.Segments)
	p.Gauge("dedupcr_store_sealed_segments", "Sealed, immutable segments in the local store.", s.SealedSegments)
	p.Gauge("dedupcr_store_live_chunks", "Live chunks in the local store.", s.LiveChunks)
	p.Gauge("dedupcr_store_live_bytes", "Payload bytes reachable through live references.", s.LiveBytes)
	p.Gauge("dedupcr_store_data_bytes", "Payload bytes occupied on disk, garbage included.", s.DataBytes)
	p.Gauge("dedupcr_store_garbage_bytes", "Tombstoned payload bytes awaiting compaction.", s.GarbageBytes)
	p.Gauge("dedupcr_store_manifest_generation", "Committed manifest generation.", s.Gen)
	p.Counter("dedupcr_store_seals_total", "Segments sealed.", s.Seals)
	p.Counter("dedupcr_store_commits_total", "Durable checkpoint commits.", s.Commits)
	p.Counter("dedupcr_store_compactions_total", "Compaction sweeps that rewrote at least one segment.", s.Compactions)
	p.Counter("dedupcr_store_segments_compacted_total", "Victim segments rewritten away by compaction.", s.SegmentsCompacted)
	p.Counter("dedupcr_store_tombstoned_bytes_total", "Payload bytes whose reference count reached zero.", s.TombstonedBytes)
	p.Counter("dedupcr_store_reclaimed_bytes_total", "Tombstoned bytes physically reclaimed by compaction.", s.ReclaimedBytes)
	p.Counter("dedupcr_store_compaction_copied_bytes_total", "Live payload bytes rewritten during compaction.", s.CopiedBytes)
	p.Counter("dedupcr_store_compaction_copied_chunks_total", "Live chunks rewritten during compaction.", s.CopiedChunks)
}

// WriteText renders a compact human-readable summary.
func (s StoreStats) WriteText(w io.Writer) {
	fmt.Fprintf(w, "store rank %d: gen %d, %d segments (%d sealed), %d live chunks\n",
		s.Rank, s.Gen, s.Segments, s.SealedSegments, s.LiveChunks)
	fmt.Fprintf(w, "  bytes: live %s, on-disk %s, garbage %s (%.1f%%)\n",
		Bytes(s.LiveBytes), Bytes(s.DataBytes), Bytes(s.GarbageBytes), 100*s.GarbageRatio())
	fmt.Fprintf(w, "  lifecycle: %d seals, %d commits, %d compactions (%d segments, copied %s, reclaimed %s of %s tombstoned)\n",
		s.Seals, s.Commits, s.Compactions, s.SegmentsCompacted,
		Bytes(s.CopiedBytes), Bytes(s.ReclaimedBytes), Bytes(s.TombstonedBytes))
}

// Add accumulates o into s field-by-field (Rank is left alone), the
// reduction the cluster-wide store gather uses.
func (s *StoreStats) Add(o StoreStats) {
	s.Segments += o.Segments
	s.SealedSegments += o.SealedSegments
	s.LiveChunks += o.LiveChunks
	s.LiveBytes += o.LiveBytes
	s.DataBytes += o.DataBytes
	s.GarbageBytes += o.GarbageBytes
	if o.Gen > s.Gen {
		s.Gen = o.Gen
	}
	s.Seals += o.Seals
	s.Commits += o.Commits
	s.Compactions += o.Compactions
	s.SegmentsCompacted += o.SegmentsCompacted
	s.TombstonedBytes += o.TombstonedBytes
	s.ReclaimedBytes += o.ReclaimedBytes
	s.CopiedBytes += o.CopiedBytes
	s.CopiedChunks += o.CopiedChunks
}
