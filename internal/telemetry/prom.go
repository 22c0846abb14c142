package telemetry

import (
	"fmt"
	"io"
	"time"

	"dedupcr/internal/metrics"
)

// WritePrometheus emits the cluster dump in the Prometheus plain-text
// exposition format: the dedupcr_cluster_* families replicad's rank 0
// serves at /cluster/metrics. Unlike the per-rank dedupcr_* families,
// these are already reduced across the group, so one scrape of rank 0
// sees the whole cluster.
func (cd *ClusterDump) WritePrometheus(w io.Writer) {
	const p = "dedupcr_cluster_"
	m := metrics.NewWriter(w, "")
	m.Gauge(p+"ranks", "Number of ranks aggregated into the cluster dump.", cd.Ranks)
	writePhaseFamilies(m, p, cd.Phases,
		"Cross-rank spread of one dump pipeline phase (stat: min/median/p95/max/mean).",
		"Rank with the maximum duration of one pipeline phase.")

	m.Gauge(p+"sent_bytes", "Replication bytes pushed to partners, summed over ranks.", cd.TotalSentBytes)
	m.Gauge(p+"recv_bytes", "Replication bytes received from partners, summed over ranks.", cd.TotalRecvBytes)
	m.Gauge(p+"stored_bytes", "Bytes committed to local stores, summed over ranks.", cd.TotalStoredBytes)

	rankGauge(m, p+"rank_sent_bytes", "Replication bytes one rank pushed to partners.",
		len(cd.PerRank), func(r int) any { return cd.PerRank[r].SentBytes })
	rankGauge(m, p+"rank_recv_bytes", "Replication bytes one rank received from partners.",
		len(cd.PerRank), func(r int) any { return cd.PerRank[r].RecvBytes })
	rankGauge(m, p+"rank_stored_bytes", "Bytes one rank committed to its local store.",
		len(cd.PerRank), func(r int) any { return cd.PerRank[r].StoredBytes })
	rankGauge(m, p+"rank_total_seconds", "End-to-end dump time of one rank.",
		len(cd.PerRank), func(r int) any { return cd.PerRank[r].Total })

	m.Gauge(p+"designation_imbalance", "Max/mean of per-rank stored bytes (1.0 = balanced designation).", cd.DesignationImbalance)
	m.Gauge(p+"send_imbalance", "Max/mean of per-rank sent bytes (1.0 = balanced sends).", cd.SendImbalance)

	rankGauge(m, p+"clock_offset_seconds", "Estimated lag of one rank's wall clock behind the group's latest barrier-exit stamp.",
		len(cd.PerRank), func(r int) any { return cd.PerRank[r].ClockOffset })
	writeStragglerFamilies(m, p, cd.ClockSpread, cd.Stragglers,
		"Width of the barrier-exit stamp window: upper bound on pairwise clock-offset error.",
		"Number of flagged (rank, phase) straggler pairs.",
		"How far a flagged rank's phase time overshot the cluster median.")
}

// WritePrometheus emits the cluster restore in the Prometheus plain-text
// exposition format: the dedupcr_cluster_restore_* families replicad's
// rank 0 serves at /restore/metrics — already reduced across the group,
// so one scrape of rank 0 sees the whole cluster's restore cost.
func (cr *ClusterRestore) WritePrometheus(w io.Writer) {
	const p = "dedupcr_cluster_restore_"
	m := metrics.NewWriter(w, "")
	m.Gauge(p+"ranks", "Number of ranks aggregated into the cluster restore.", cr.Ranks)
	writePhaseFamilies(m, p, cr.Phases,
		"Cross-rank spread of one restore pipeline phase (stat: min/median/p95/max/mean).",
		"Rank with the maximum duration of one restore phase.")

	m.Gauge(p+"logical_bytes", "Bytes of the reassembled images, summed over ranks.", cr.TotalLogicalBytes)
	m.Gauge(p+"local_bytes", "Bytes served by local stores, summed over ranks.", cr.TotalLocalBytes)
	m.Gauge(p+"fetched_bytes", "Bytes pulled from peers, summed over ranks.", cr.TotalFetchedBytes)
	m.Gauge(p+"fetched_chunks", "Chunks pulled from peers, summed over ranks.", cr.TotalFetchedChunks)
	m.Gauge(p+"fetch_requests", "Chunks and blobs asked of a peer, summed over ranks.", cr.TotalFetchRequests)
	m.Gauge(p+"fetch_misses", "Asks answered not-found or rejected on verification, summed over ranks.", cr.TotalFetchMisses)
	m.Gauge(p+"objects_touched", "Distinct local store objects read, summed over ranks.", cr.TotalObjectsTouched)

	m.Gauge(p+"read_amplification_bytes", "Cluster-wide bytes fetched from peers over logical image bytes.", cr.ReadAmplificationBytes)
	m.Gauge(p+"read_amplification_chunks", "Cluster-wide chunks fetched from peers over unique chunks.", cr.ReadAmplificationChunks)
	m.Gauge(p+"fetch_imbalance", "Max/mean of per-rank fetched bytes (1.0 = balanced fetch cost).", cr.FetchImbalance)
	m.Gauge(p+"serve_imbalance", "Max/mean of per-peer served bytes (1.0 = balanced serving load).", cr.ServeImbalance)
	m.Gauge(p+"max_source_ranks", "Largest per-rank distinct-source count.", cr.MaxSourceRanks)

	rankGauge(m, p+"rank_fetched_bytes", "Bytes one rank pulled from peers.",
		len(cr.PerRank), func(r int) any { return cr.PerRank[r].FetchedBytes })
	rankGauge(m, p+"rank_read_amplification_bytes", "One rank's byte read amplification.",
		len(cr.PerRank), func(r int) any { return cr.PerRank[r].ReadAmpBytes })
	rankGauge(m, p+"rank_total_seconds", "End-to-end restore time of one rank.",
		len(cr.PerRank), func(r int) any { return cr.PerRank[r].Total })

	if cr.RunLengths.Count > 0 {
		writeHistSummary(m, p+"run_length_chunks", "Merged same-source run-length distribution (stat: p50/p90/p99/max/mean).",
			"%.3f", 1, cr.RunLengths)
	}
	if cr.FetchLatency.Count > 0 {
		writeHistSummary(m, p+"fetch_latency_seconds", "Merged per-exchange fetch latency (stat: p50/p90/p99/max/mean).",
			"%.9f", 1e9, cr.FetchLatency)
	}

	writeStragglerFamilies(m, p, cr.ClockSpread, cr.Stragglers,
		"Width of the restore barrier-exit stamp window.",
		"Number of flagged (rank, phase) restore straggler pairs.",
		"How far a flagged rank's restore phase time overshot the cluster median.")
}

// rankGauge writes a gauge family with one sample per rank.
func rankGauge(m *metrics.Writer, name, help string, ranks int, v func(r int) any) {
	m.Family(name, "gauge", help)
	for r := 0; r < ranks; r++ {
		m.Sample(name, fmt.Sprintf(`rank="%d"`, r), v(r))
	}
}

// writeHistSummary writes a merged histogram's quantiles as one family
// labelled by stat, each value divided by scale.
func writeHistSummary(m *metrics.Writer, name, help, format string, scale float64, h HistSummary) {
	m.Family(name, "gauge", help)
	for _, s := range []struct {
		stat string
		v    float64
	}{
		{"p50", float64(h.P50)}, {"p90", float64(h.P90)}, {"p99", float64(h.P99)},
		{"max", float64(h.Max)}, {"mean", h.Mean},
	} {
		m.Sample(name, fmt.Sprintf("stat=%q", s.stat), fmt.Sprintf(format, s.v/scale))
	}
}

// writePhaseFamilies writes the phase-spread families of a phased
// report: <prefix>phase_seconds by phase and stat, and
// <prefix>phase_slowest_rank by phase.
func writePhaseFamilies(m *metrics.Writer, prefix string, phases []PhaseStat, spreadHelp, slowestHelp string) {
	name := prefix + "phase_seconds"
	m.Family(name, "gauge", spreadHelp)
	for _, ps := range phases {
		for _, s := range []struct {
			stat string
			v    time.Duration
		}{
			{"min", ps.Min}, {"median", ps.Median}, {"p95", ps.P95}, {"max", ps.Max}, {"mean", ps.Mean},
		} {
			m.Sample(name, fmt.Sprintf("phase=%q,stat=%q", ps.Name, s.stat), s.v)
		}
	}
	name = prefix + "phase_slowest_rank"
	m.Family(name, "gauge", slowestHelp)
	for _, ps := range phases {
		m.Sample(name, fmt.Sprintf("phase=%q", ps.Name), ps.SlowestRank)
	}
}

// writeStragglerFamilies writes the families that close a phased report:
// the clock spread, the straggler count and, when any rank was flagged,
// each straggler's excess over the median.
func writeStragglerFamilies(m *metrics.Writer, prefix string, spread time.Duration, stragglers []Straggler,
	spreadHelp, countHelp, excessHelp string) {
	m.Gauge(prefix+"clock_spread_seconds", spreadHelp, spread)
	m.Gauge(prefix+"stragglers", countHelp, len(stragglers))
	if len(stragglers) == 0 {
		return
	}
	name := prefix + "straggler_excess_seconds"
	m.Family(name, "gauge", excessHelp)
	for _, s := range stragglers {
		m.Sample(name, fmt.Sprintf("rank=\"%d\",phase=%q", s.Rank, s.Phase), s.Excess())
	}
}
