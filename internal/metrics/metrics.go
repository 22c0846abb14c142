// Package metrics holds the per-rank instrumentation collected during a
// collective dump and small aggregation/formatting helpers used by the
// experiment harness.
package metrics

import (
	"fmt"
	"math"
	"time"
)

// Dump is the instrumentation of one rank for one collective dump. Byte
// and chunk counters are what the performance model consumes; they are
// measured, never estimated.
type Dump struct {
	Rank int
	// DatasetBytes is the raw size of the rank's buffer.
	DatasetBytes int64
	// TotalChunks is the number of chunks in the rank's dataset
	// (duplicates included).
	TotalChunks int
	// LocalUniqueChunks counts distinct fingerprints after the local
	// deduplication phase.
	LocalUniqueChunks int
	// HashedBytes counts bytes run through the fingerprint function.
	HashedBytes int64
	// StoredChunks / StoredBytes count chunks committed to the local
	// store (own data + designated + received from partners).
	StoredChunks int
	StoredBytes  int64
	// SentChunks / SentBytes count replication traffic pushed to
	// partners (window puts, excluding self).
	SentChunks int
	SentBytes  int64
	// RecvChunks / RecvBytes count replication traffic received into the
	// local window from partners.
	RecvChunks int
	RecvBytes  int64
	// ReductionBytes counts bytes this rank sent during the collective
	// fingerprint reduction and broadcast (coll-dedup only).
	ReductionBytes int64
	// ReductionRounds is the depth of the reduction tree.
	ReductionRounds int
	// LoadExchangeBytes counts bytes sent for the load allgather.
	LoadExchangeBytes int64
	// WindowBytes is the size of the receive window this rank opened.
	WindowBytes int64
	// UniqueContentBytes is this rank's contribution to the "total size
	// of unique content" metric of Figure 3(a): the bytes of content the
	// approach identified as unique. Every globally distinct chunk is
	// counted exactly once across the whole group under coll-dedup, once
	// per holding rank under local-dedup, and once per occurrence under
	// no-dedup (which identifies no redundancy at all).
	UniqueContentBytes int64
	// Phases is the measured wall-clock decomposition of the dump on
	// this rank, one duration per pipeline phase.
	Phases Phases
	// BarrierExit is the wall-clock instant this rank left the dump's
	// completion barrier. All ranks leave the barrier within one
	// dissemination sweep of each other, so the spread of these stamps
	// across ranks estimates inter-node clock offsets (the anchor the
	// cluster telemetry plane aligns merged traces with). Zero when the
	// transport did not record it.
	BarrierExit time.Time
	// PutLatency is the window-put latency histogram (nanoseconds): one
	// sample per put, and a dump gathers each partner's records into one
	// put per collectives.MaxPutBytes of region — not one per chunk.
	// Nil when the dump recorded no puts.
	PutLatency *Histogram
}

// Sum aggregates int64 values.
func Sum(v []int64) int64 {
	var s int64
	for _, x := range v {
		s += x
	}
	return s
}

// Max returns the maximum of v, or 0 for an empty slice.
func Max(v []int64) int64 {
	var m int64
	for i, x := range v {
		if i == 0 || x > m {
			m = x
		}
	}
	return m
}

// Avg returns the mean of v, or 0 for an empty slice.
func Avg(v []int64) float64 {
	if len(v) == 0 {
		return 0
	}
	return float64(Sum(v)) / float64(len(v))
}

// Bytes renders a byte count with binary units, e.g. "1.50 GiB".
// Negative counts (byte deltas, savings) render with the same units,
// e.g. "-1.50 GiB".
func Bytes(n int64) string {
	const unit = 1024
	if n < 0 {
		if n == math.MinInt64 {
			return "-8.00 EiB"
		}
		return "-" + Bytes(-n)
	}
	if n < unit {
		return fmt.Sprintf("%d B", n)
	}
	div, exp := int64(unit), 0
	for m := n / unit; m >= unit; m /= unit {
		div *= unit
		exp++
	}
	return fmt.Sprintf("%.2f %ciB", float64(n)/float64(div), "KMGTPE"[exp])
}

// Pct renders part/whole as a percentage.
func Pct(part, whole int64) string {
	if whole == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.1f%%", 100*float64(part)/float64(whole))
}

// Collect extracts one int64 field from each dump via sel.
func Collect(dumps []Dump, sel func(Dump) int64) []int64 {
	out := make([]int64, len(dumps))
	for i, d := range dumps {
		out[i] = sel(d)
	}
	return out
}
