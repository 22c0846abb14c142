package telemetry

import (
	"fmt"
	"io"
	"time"

	"dedupcr/internal/metrics"
)

// HistSummary is the JSON-friendly reduction of one merged histogram:
// ClusterRestore travels as JSON (replicad endpoints, dumpbench cluster
// files) and metrics.Histogram does not marshal, so the cluster view
// carries nearest-bucket quantiles instead of raw buckets.
type HistSummary struct {
	Count int64
	Mean  float64
	P50   int64
	P90   int64
	P99   int64
	Max   int64
}

func summarize(h *metrics.Histogram) HistSummary {
	if h.Count() == 0 {
		return HistSummary{}
	}
	return HistSummary{
		Count: h.Count(),
		Mean:  h.Mean(),
		P50:   h.Quantile(0.5),
		P90:   h.Quantile(0.9),
		P99:   h.Quantile(0.99),
		Max:   h.Max(),
	}
}

// RestoreRankSummary is one rank's line in the cluster restore view.
type RestoreRankSummary struct {
	Rank int
	// LogicalBytes is the size of the image the rank reassembled.
	LogicalBytes int64
	// LocalBytes / FetchedBytes split the rank's read volume into local
	// store reads and peer fetches.
	LocalBytes   int64
	FetchedBytes int64
	// FetchedChunks counts chunks pulled from peers.
	FetchedChunks int
	// SourceRanks is how many distinct peers served this rank.
	SourceRanks int
	// ObjectsTouched counts distinct local store objects read.
	ObjectsTouched int
	// ReadAmpBytes is the rank's byte read amplification.
	ReadAmpBytes float64
	// LargestRun is the rank's longest same-source sequential run.
	LargestRun int64
	// Total is the rank's end-to-end restore time.
	Total time.Duration
	// ClockOffset estimates the rank's wall-clock lag behind the group's
	// latest barrier-exit stamp (see RankSummary.ClockOffset).
	ClockOffset time.Duration
}

// ClusterRestore is rank 0's reduced view of one collective restore
// across the whole group — the read-side twin of ClusterDump.
type ClusterRestore struct {
	// Kind discriminates the JSON encoding from ClusterDump's (their
	// field sets overlap enough to cross-decode); always "restore".
	Kind string
	// Ranks is the group size the restore was aggregated over.
	Ranks int
	// Phases holds one spread entry per restore phase (in
	// metrics.RestorePhaseNames order) plus a final "total" entry.
	Phases []PhaseStat
	// TotalLogicalBytes / TotalLocalBytes / TotalFetchedBytes sum image
	// sizes and read volumes over ranks.
	TotalLogicalBytes int64
	TotalLocalBytes   int64
	TotalFetchedBytes int64
	// TotalFetchedChunks sums peer-fetched chunks over ranks.
	TotalFetchedChunks int64
	// TotalFetchRequests / TotalFetchMisses sum the chunks and blobs asked
	// of peers over ranks (one per fingerprint of a batched request); a
	// high miss share means the hint paths were stale and restores swept.
	TotalFetchRequests int64
	TotalFetchMisses   int64
	// TotalObjectsTouched sums distinct local objects read over ranks.
	TotalObjectsTouched int64
	// ReadAmplificationBytes is the cluster-wide byte read amplification:
	// bytes fetched over the network over logical image bytes (0 = fully
	// local restores, 1.0 = every byte travelled).
	ReadAmplificationBytes float64
	// ReadAmplificationChunks is chunks fetched over unique chunks,
	// cluster-wide.
	ReadAmplificationChunks float64
	// FetchImbalance is max/mean of per-rank fetched bytes (how unevenly
	// the fetch cost fell on restoring ranks); 0 when nothing was fetched.
	FetchImbalance float64
	// ServeImbalance is max/mean of per-peer served bytes (column sums of
	// the fetch matrix): how unevenly the serving load fell on the ranks
	// holding designated chunks.
	ServeImbalance float64
	// MaxSourceRanks is the largest per-rank distinct-source count.
	MaxSourceRanks int
	// FetchMatrix[r][p] is how many bytes rank r fetched from peer p.
	// Row sums are per-rank fetch volumes, column sums per-peer serve
	// volumes. nil when no rank reported a matrix row.
	FetchMatrix [][]int64
	// RunLengths summarizes the merged same-source run-length histogram
	// (in chunks); RunLengthDist is its per-bucket count over
	// metrics.RunLengthBuckets with a final +Inf bucket, so reports can
	// plot the locality distribution without the raw histogram.
	RunLengths    HistSummary
	RunLengthDist []int64
	// FetchLatency / StoreReadLatency summarize the merged per-exchange
	// fetch and local store read latency histograms (nanoseconds).
	FetchLatency     HistSummary
	StoreReadLatency HistSummary
	// PerRank has one summary per rank, indexed by rank.
	PerRank []RestoreRankSummary
	// Stragglers lists every flagged (rank, phase) pair, ordered by
	// phase pipeline position then rank.
	Stragglers []Straggler
	// ClockSpread is the width of the barrier-exit stamp window.
	ClockSpread time.Duration
}

// AggregateRestore reduces per-rank restore metrics into a
// ClusterRestore. Like Aggregate it is a pure function shared by the
// in-band gather and the experiment harness; the slice may be in any
// rank order and every rank must appear exactly once.
func AggregateRestore(rs []metrics.Restore) (*ClusterRestore, error) {
	rs, err := inRankOrder(rs, restoreCodec)
	if err != nil {
		return nil, err
	}
	n := len(rs)
	cr := &ClusterRestore{Kind: "restore", Ranks: n, PerRank: make([]RestoreRankSummary, n)}
	offsets, spread := clockOffsets(n, func(r int) time.Time { return rs[r].BarrierExit })
	cr.ClockSpread = spread
	var totalUnique int64
	runLengths := metrics.NewHistogram()
	fetchLatency := metrics.NewHistogram()
	storeRead := metrics.NewHistogram()
	var haveMatrix bool
	fetched := make([]int64, n)
	for rank, r := range rs {
		cr.PerRank[rank] = RestoreRankSummary{
			Rank: rank, LogicalBytes: r.LogicalBytes,
			LocalBytes: r.LocalBytes, FetchedBytes: r.FetchedBytes,
			FetchedChunks: r.FetchedChunks, SourceRanks: r.SourceRanks,
			ObjectsTouched: r.ObjectsTouched,
			ReadAmpBytes:   r.ReadAmplificationBytes(),
			LargestRun:     r.LargestRun, Total: r.Phases.Total,
			ClockOffset: offsets[rank],
		}
		cr.TotalLogicalBytes += r.LogicalBytes
		cr.TotalLocalBytes += r.LocalBytes
		cr.TotalFetchedBytes += r.FetchedBytes
		cr.TotalFetchedChunks += int64(r.FetchedChunks)
		cr.TotalFetchRequests += r.FetchRequests
		cr.TotalFetchMisses += r.FetchMisses
		cr.TotalObjectsTouched += int64(r.ObjectsTouched)
		totalUnique += int64(r.UniqueChunks)
		cr.MaxSourceRanks = max(cr.MaxSourceRanks, r.SourceRanks)
		runLengths.Merge(r.RunLengths)
		fetchLatency.Merge(r.FetchLatency)
		storeRead.Merge(r.StoreReadLatency)
		haveMatrix = haveMatrix || len(r.PeerFetchBytes) > 0
		fetched[rank] = r.FetchedBytes
	}
	if cr.TotalLogicalBytes > 0 {
		cr.ReadAmplificationBytes = float64(cr.TotalFetchedBytes) / float64(cr.TotalLogicalBytes)
	}
	if totalUnique > 0 {
		cr.ReadAmplificationChunks = float64(cr.TotalFetchedChunks) / float64(totalUnique)
	}

	served := make([]int64, n)
	if haveMatrix {
		cr.FetchMatrix = make([][]int64, n)
		for rank, r := range rs {
			row := make([]int64, n)
			copy(row, r.PeerFetchBytes)
			cr.FetchMatrix[rank] = row
			for peer, b := range row {
				served[peer] += b
			}
		}
	}
	cr.FetchImbalance = imbalance(fetched)
	cr.ServeImbalance = imbalance(served)

	cr.RunLengths = summarize(runLengths)
	cr.FetchLatency = summarize(fetchLatency)
	cr.StoreReadLatency = summarize(storeRead)
	if runLengths.Count() > 0 {
		// Per-bucket counts from the cumulative CountLE curve.
		cr.RunLengthDist = make([]int64, len(metrics.RunLengthBuckets)+1)
		var prev int64
		for i, le := range metrics.RunLengthBuckets {
			c := runLengths.CountLE(le)
			cr.RunLengthDist[i] = c - prev
			prev = c
		}
		cr.RunLengthDist[len(metrics.RunLengthBuckets)] = runLengths.Count() - prev
	}

	// "fetch" is contained in "assemble" and would double-flag.
	cr.Phases, cr.Stragglers = phaseSpread(metrics.RestorePhaseNames, "fetch", n, func(r int, phase string) time.Duration {
		if phase == "total" {
			return rs[r].Phases.Total
		}
		return rs[r].Phases.ByName(phase)
	})
	return cr, nil
}

// StragglersFor returns the flagged stragglers of one rank, in phase
// order.
func (cr *ClusterRestore) StragglersFor(rank int) []Straggler {
	return stragglersOf(cr.Stragglers, rank)
}

// Phase returns the spread entry for the named phase, or a zero
// PhaseStat when absent.
func (cr *ClusterRestore) Phase(name string) PhaseStat { return phaseNamed(cr.Phases, name) }

func (cr *ClusterRestore) flagged() []Straggler { return cr.Stragglers }

// WriteText renders the cluster restore as the fixed-width table
// dedupstat and the experiment harness print: phase spreads, read
// volumes and amplification, fragmentation/locality statistics and the
// straggler list.
func (cr *ClusterRestore) WriteText(w io.Writer) {
	fmt.Fprintf(w, "cluster restore: %d ranks\n\n", cr.Ranks)
	writePhaseTable(w, 15, cr.Phases)
	fmt.Fprintf(w, "\nread volume: logical %s, local %s, fetched %s (%d chunks)\n",
		metrics.Bytes(cr.TotalLogicalBytes), metrics.Bytes(cr.TotalLocalBytes),
		metrics.Bytes(cr.TotalFetchedBytes), cr.TotalFetchedChunks)
	fmt.Fprintf(w, "read amplification: %.3fx bytes, %.3fx chunks\n",
		cr.ReadAmplificationBytes, cr.ReadAmplificationChunks)
	if cr.TotalFetchRequests > 0 {
		fmt.Fprintf(w, "fetch RPCs: %d (%d misses); imbalance (max/mean): fetch %.3f, serve %.3f\n",
			cr.TotalFetchRequests, cr.TotalFetchMisses, cr.FetchImbalance, cr.ServeImbalance)
	}
	fmt.Fprintf(w, "locality: objects touched %d, max sources/rank %d", cr.TotalObjectsTouched, cr.MaxSourceRanks)
	if cr.RunLengths.Count > 0 {
		fmt.Fprintf(w, "; runs p50 %d / p99 %d / max %d chunks", cr.RunLengths.P50, cr.RunLengths.P99, cr.RunLengths.Max)
	}
	fmt.Fprintf(w, "\n")
	if cr.RunLengths.Count > 0 {
		fmt.Fprintf(w, "run lengths (chunks):")
		for i, n := range cr.RunLengthDist {
			if n == 0 {
				continue
			}
			if i < len(metrics.RunLengthBuckets) {
				fmt.Fprintf(w, " <=%d:%d", metrics.RunLengthBuckets[i], n)
			} else {
				fmt.Fprintf(w, " >%d:%d", metrics.RunLengthBuckets[len(metrics.RunLengthBuckets)-1], n)
			}
		}
		fmt.Fprintf(w, "\n")
	}
	writeStragglerList(w, 15, cr.ClockSpread, cr.Stragglers)
}
