package telemetry

import (
	"fmt"
	"io"
	"time"

	"dedupcr/internal/collectives"
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
	// Options echoes the straggler thresholds.
	Options Options
}

// AggregateRestore reduces per-rank restore metrics into a
// ClusterRestore. Like Aggregate it is a pure function shared by the
// in-band gather and the experiment harness; the slice may be in any
// rank order and every rank must appear exactly once.
func AggregateRestore(rs []metrics.Restore, opts Options) (*ClusterRestore, error) {
	if len(rs) == 0 {
		return nil, fmt.Errorf("telemetry: no restores to aggregate")
	}
	opts = opts.normalized()
	byRank := make([]*metrics.Restore, len(rs))
	for i := range rs {
		r := &rs[i]
		if r.Rank < 0 || r.Rank >= len(rs) {
			return nil, fmt.Errorf("telemetry: restore rank %d out of range [0,%d)", r.Rank, len(rs))
		}
		if byRank[r.Rank] != nil {
			return nil, fmt.Errorf("telemetry: duplicate restore for rank %d", r.Rank)
		}
		byRank[r.Rank] = r
	}

	cr := &ClusterRestore{Kind: "restore", Ranks: len(rs), Options: opts}

	var ref time.Time
	for _, r := range byRank {
		if r.BarrierExit.After(ref) {
			ref = r.BarrierExit
		}
	}
	var earliest time.Time
	var totalUnique int64
	runLengths := metrics.NewHistogram()
	fetchLatency := metrics.NewHistogram()
	storeRead := metrics.NewHistogram()
	var haveMatrix bool
	cr.PerRank = make([]RestoreRankSummary, len(byRank))
	for rank, r := range byRank {
		rrs := RestoreRankSummary{
			Rank: rank, LogicalBytes: r.LogicalBytes,
			LocalBytes: r.LocalBytes, FetchedBytes: r.FetchedBytes,
			FetchedChunks: r.FetchedChunks, SourceRanks: r.SourceRanks,
			ObjectsTouched: r.ObjectsTouched,
			ReadAmpBytes:   r.ReadAmplificationBytes(),
			LargestRun:     r.LargestRun, Total: r.Phases.Total,
		}
		if !r.BarrierExit.IsZero() {
			rrs.ClockOffset = ref.Sub(r.BarrierExit)
			if earliest.IsZero() || r.BarrierExit.Before(earliest) {
				earliest = r.BarrierExit
			}
		}
		cr.PerRank[rank] = rrs
		cr.TotalLogicalBytes += r.LogicalBytes
		cr.TotalLocalBytes += r.LocalBytes
		cr.TotalFetchedBytes += r.FetchedBytes
		cr.TotalFetchedChunks += int64(r.FetchedChunks)
		cr.TotalFetchRequests += r.FetchRequests
		cr.TotalFetchMisses += r.FetchMisses
		cr.TotalObjectsTouched += int64(r.ObjectsTouched)
		totalUnique += int64(r.UniqueChunks)
		if r.SourceRanks > cr.MaxSourceRanks {
			cr.MaxSourceRanks = r.SourceRanks
		}
		runLengths.Merge(r.RunLengths)
		fetchLatency.Merge(r.FetchLatency)
		storeRead.Merge(r.StoreReadLatency)
		if len(r.PeerFetchBytes) > 0 {
			haveMatrix = true
		}
	}
	if !earliest.IsZero() {
		cr.ClockSpread = ref.Sub(earliest)
	}
	if cr.TotalLogicalBytes > 0 {
		cr.ReadAmplificationBytes = float64(cr.TotalFetchedBytes) / float64(cr.TotalLogicalBytes)
	}
	if totalUnique > 0 {
		cr.ReadAmplificationChunks = float64(cr.TotalFetchedChunks) / float64(totalUnique)
	}

	fetched := make([]int64, len(byRank))
	served := make([]int64, len(byRank))
	if haveMatrix {
		cr.FetchMatrix = make([][]int64, len(byRank))
	}
	for rank, r := range byRank {
		fetched[rank] = r.FetchedBytes
		if haveMatrix {
			row := make([]int64, len(byRank))
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

	names := append(append([]string(nil), metrics.RestorePhaseNames...), "total")
	for _, name := range names {
		durs := make([]int64, len(byRank))
		for rank, r := range byRank {
			if name == "total" {
				durs[rank] = int64(r.Phases.Total)
			} else {
				durs[rank] = int64(r.Phases.ByName(name))
			}
		}
		ps := PhaseStat{
			Name:   name,
			Min:    time.Duration(metrics.Quantile(durs, 0)),
			Median: time.Duration(metrics.Quantile(durs, 0.5)),
			P95:    time.Duration(metrics.Quantile(durs, 0.95)),
			Max:    time.Duration(metrics.Max(durs)),
			Mean:   time.Duration(metrics.Avg(durs)),
		}
		for rank, v := range durs {
			if time.Duration(v) == ps.Max {
				ps.SlowestRank = rank
				break
			}
		}
		cr.Phases = append(cr.Phases, ps)

		// Straggler rule: duration > factor x median AND excess >= floor.
		// "fetch" is contained in "assemble" and would double-flag.
		if name == "total" || name == "fetch" || opts.StragglerFactor < 0 {
			continue
		}
		median := time.Duration(metrics.Quantile(durs, 0.5))
		for rank, v := range durs {
			d := time.Duration(v)
			if float64(d) > opts.StragglerFactor*float64(median) && d-median >= opts.MinExcess {
				cr.Stragglers = append(cr.Stragglers, Straggler{
					Rank: rank, Phase: name, Duration: d, Median: median,
				})
			}
		}
	}
	return cr, nil
}

// GatherClusterRestore collects every rank's restore metrics at rank 0
// over the group's own communicator and reduces them into a
// ClusterRestore. Like GatherCluster it is a collective call: every rank
// enters with its own metrics, only rank 0 receives a non-nil result,
// and the gather rides the group's own transport.
func GatherClusterRestore(c collectives.Comm, r metrics.Restore, opts Options) (*ClusterRestore, error) {
	enc, err := EncodeRestore(r)
	if err != nil {
		return nil, fmt.Errorf("telemetry: rank %d encode restore: %w", c.Rank(), err)
	}
	// The gather runs after the restore's completion barrier; failures
	// here belong to the telemetry plane, not a restore phase.
	collectives.NotePhase(c, "restore-telemetry")
	raw, err := collectives.Gather(c, 0, enc)
	if err != nil {
		return nil, fmt.Errorf("telemetry: rank %d restore gather: %w", c.Rank(), err)
	}
	if c.Rank() != 0 {
		return nil, nil
	}
	rs := make([]metrics.Restore, len(raw))
	for rank, b := range raw {
		rr, err := DecodeRestore(b)
		if err != nil {
			return nil, fmt.Errorf("telemetry: decode restore rank %d: %w", rank, err)
		}
		if rr.Rank != rank {
			return nil, fmt.Errorf("telemetry: restore gather slot %d carries rank %d", rank, rr.Rank)
		}
		rs[rank] = rr
	}
	return AggregateRestore(rs, opts)
}

// StragglersFor returns the flagged stragglers of one rank, in phase
// order.
func (cr *ClusterRestore) StragglersFor(rank int) []Straggler {
	var out []Straggler
	for _, s := range cr.Stragglers {
		if s.Rank == rank {
			out = append(out, s)
		}
	}
	return out
}

// Phase returns the spread entry for the named phase, or a zero
// PhaseStat when absent.
func (cr *ClusterRestore) Phase(name string) PhaseStat {
	for _, ps := range cr.Phases {
		if ps.Name == name {
			return ps
		}
	}
	return PhaseStat{}
}

// WriteText renders the cluster restore as the fixed-width table
// dedupstat and the experiment harness print: phase spreads, read
// volumes and amplification, fragmentation/locality statistics and the
// straggler list.
func (cr *ClusterRestore) WriteText(w io.Writer) {
	fmt.Fprintf(w, "cluster restore: %d ranks\n\n", cr.Ranks)
	fmt.Fprintf(w, "%-15s %10s %10s %10s %10s %8s\n",
		"phase", "min", "median", "p95", "max", "slowest")
	for _, ps := range cr.Phases {
		if ps.Max == 0 {
			continue
		}
		fmt.Fprintf(w, "%-15s %10s %10s %10s %10s %8d\n",
			ps.Name, metrics.Duration(ps.Min), metrics.Duration(ps.Median),
			metrics.Duration(ps.P95), metrics.Duration(ps.Max), ps.SlowestRank)
	}
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
	fmt.Fprintf(w, "clock spread: %s\n", metrics.Duration(cr.ClockSpread))
	if len(cr.Stragglers) == 0 {
		fmt.Fprintf(w, "stragglers: none (factor %.2f, floor %s)\n",
			cr.Options.StragglerFactor, metrics.Duration(cr.Options.MinExcess))
		return
	}
	fmt.Fprintf(w, "stragglers (> %.2fx median, excess >= %s):\n",
		cr.Options.StragglerFactor, metrics.Duration(cr.Options.MinExcess))
	for _, s := range cr.Stragglers {
		fmt.Fprintf(w, "  rank %d %-15s %10s vs median %s (+%s)\n",
			s.Rank, s.Phase, metrics.Duration(s.Duration),
			metrics.Duration(s.Median), metrics.Duration(s.Excess()))
	}
}
