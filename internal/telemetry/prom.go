package telemetry

import (
	"fmt"
	"io"
	"time"
)

// WritePrometheus emits the cluster dump in the Prometheus plain-text
// exposition format: the dedupcr_cluster_* families replicad's rank 0
// serves at /cluster/metrics. Unlike the per-rank dedupcr_* families,
// these are already reduced across the group, so one scrape of rank 0
// sees the whole cluster.
func (cd *ClusterDump) WritePrometheus(w io.Writer) {
	const p = "dedupcr_cluster_"
	gauge(w, p+"ranks", "Number of ranks aggregated into the cluster dump.", cd.Ranks)
	writePhaseFamilies(w, p, cd.Phases,
		"Cross-rank spread of one dump pipeline phase (stat: min/median/p95/max/mean).",
		"Rank with the maximum duration of one pipeline phase.")

	gauge(w, p+"sent_bytes", "Replication bytes pushed to partners, summed over ranks.", cd.TotalSentBytes)
	gauge(w, p+"recv_bytes", "Replication bytes received from partners, summed over ranks.", cd.TotalRecvBytes)
	gauge(w, p+"stored_bytes", "Bytes committed to local stores, summed over ranks.", cd.TotalStoredBytes)
	gauge(w, p+"put_retries", "Window puts retried after transient transport failures, summed over ranks.", cd.TotalPutRetries)

	rankGauge(w, p+"rank_sent_bytes", "Replication bytes one rank pushed to partners.",
		len(cd.PerRank), func(r int) any { return cd.PerRank[r].SentBytes })
	rankGauge(w, p+"rank_recv_bytes", "Replication bytes one rank received from partners.",
		len(cd.PerRank), func(r int) any { return cd.PerRank[r].RecvBytes })
	rankGauge(w, p+"rank_stored_bytes", "Bytes one rank committed to its local store.",
		len(cd.PerRank), func(r int) any { return cd.PerRank[r].StoredBytes })
	rankGauge(w, p+"rank_total_seconds", "End-to-end dump time of one rank.",
		len(cd.PerRank), func(r int) any { return cd.PerRank[r].Total })

	gauge(w, p+"designation_imbalance", "Max/mean of per-rank stored bytes (1.0 = balanced designation).", cd.DesignationImbalance)
	gauge(w, p+"send_imbalance", "Max/mean of per-rank sent bytes (1.0 = balanced sends).", cd.SendImbalance)

	rankGauge(w, p+"clock_offset_seconds", "Estimated lag of one rank's wall clock behind the group's latest barrier-exit stamp.",
		len(cd.PerRank), func(r int) any { return cd.PerRank[r].ClockOffset })
	writeStragglerFamilies(w, p, cd.ClockSpread, cd.Stragglers,
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
	gauge(w, p+"ranks", "Number of ranks aggregated into the cluster restore.", cr.Ranks)
	writePhaseFamilies(w, p, cr.Phases,
		"Cross-rank spread of one restore pipeline phase (stat: min/median/p95/max/mean).",
		"Rank with the maximum duration of one restore phase.")

	gauge(w, p+"logical_bytes", "Bytes of the reassembled images, summed over ranks.", cr.TotalLogicalBytes)
	gauge(w, p+"local_bytes", "Bytes served by local stores, summed over ranks.", cr.TotalLocalBytes)
	gauge(w, p+"fetched_bytes", "Bytes pulled from peers, summed over ranks.", cr.TotalFetchedBytes)
	gauge(w, p+"fetched_chunks", "Chunks pulled from peers, summed over ranks.", cr.TotalFetchedChunks)
	gauge(w, p+"fetch_requests", "Chunks and blobs asked of a peer, summed over ranks.", cr.TotalFetchRequests)
	gauge(w, p+"fetch_misses", "Asks answered not-found or rejected on verification, summed over ranks.", cr.TotalFetchMisses)
	gauge(w, p+"objects_touched", "Distinct local store objects read, summed over ranks.", cr.TotalObjectsTouched)

	gauge(w, p+"read_amplification_bytes", "Cluster-wide bytes fetched from peers over logical image bytes.", cr.ReadAmplificationBytes)
	gauge(w, p+"read_amplification_chunks", "Cluster-wide chunks fetched from peers over unique chunks.", cr.ReadAmplificationChunks)
	gauge(w, p+"fetch_imbalance", "Max/mean of per-rank fetched bytes (1.0 = balanced fetch cost).", cr.FetchImbalance)
	gauge(w, p+"serve_imbalance", "Max/mean of per-peer served bytes (1.0 = balanced serving load).", cr.ServeImbalance)
	gauge(w, p+"max_source_ranks", "Largest per-rank distinct-source count.", cr.MaxSourceRanks)

	rankGauge(w, p+"rank_fetched_bytes", "Bytes one rank pulled from peers.",
		len(cr.PerRank), func(r int) any { return cr.PerRank[r].FetchedBytes })
	rankGauge(w, p+"rank_read_amplification_bytes", "One rank's byte read amplification.",
		len(cr.PerRank), func(r int) any { return cr.PerRank[r].ReadAmpBytes })
	rankGauge(w, p+"rank_total_seconds", "End-to-end restore time of one rank.",
		len(cr.PerRank), func(r int) any { return cr.PerRank[r].Total })

	if cr.RunLengths.Count > 0 {
		writeHistSummary(w, p+"run_length_chunks", "Merged same-source run-length distribution (stat: p50/p90/p99/max/mean).",
			"%.3f", 1, cr.RunLengths)
	}
	if cr.FetchLatency.Count > 0 {
		writeHistSummary(w, p+"fetch_latency_seconds", "Merged per-exchange fetch latency (stat: p50/p90/p99/max/mean).",
			"%.9f", 1e9, cr.FetchLatency)
	}

	writeStragglerFamilies(w, p, cr.ClockSpread, cr.Stragglers,
		"Width of the restore barrier-exit stamp window.",
		"Number of flagged (rank, phase) restore straggler pairs.",
		"How far a flagged rank's restore phase time overshot the cluster median.")
}

// header writes one gauge family's HELP and TYPE lines.
func header(w io.Writer, name, help string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n", name, help, name)
}

// value formats one sample: durations in seconds to 9 places, ratios to
// 6, counts as integers.
func value(v any) string {
	switch v := v.(type) {
	case time.Duration:
		return fmt.Sprintf("%.9f", v.Seconds())
	case float64:
		return fmt.Sprintf("%.6f", v)
	}
	return fmt.Sprint(v)
}

// gauge writes an unlabelled one-sample gauge family.
func gauge(w io.Writer, name, help string, v any) {
	header(w, name, help)
	fmt.Fprintf(w, "%s %s\n", name, value(v))
}

// rankGauge writes a gauge family with one sample per rank.
func rankGauge(w io.Writer, name, help string, ranks int, v func(r int) any) {
	header(w, name, help)
	for r := 0; r < ranks; r++ {
		fmt.Fprintf(w, "%s{rank=\"%d\"} %s\n", name, r, value(v(r)))
	}
}

// writeHistSummary writes a merged histogram's quantiles as one family
// labelled by stat, each value divided by scale.
func writeHistSummary(w io.Writer, name, help, format string, scale float64, h HistSummary) {
	header(w, name, help)
	for _, s := range []struct {
		stat string
		v    float64
	}{
		{"p50", float64(h.P50)}, {"p90", float64(h.P90)}, {"p99", float64(h.P99)},
		{"max", float64(h.Max)}, {"mean", h.Mean},
	} {
		fmt.Fprintf(w, "%s{stat=%q} "+format+"\n", name, s.stat, s.v/scale)
	}
}

// writePhaseFamilies writes the phase-spread families of a phased
// report: <prefix>phase_seconds by phase and stat, and
// <prefix>phase_slowest_rank by phase.
func writePhaseFamilies(w io.Writer, prefix string, phases []PhaseStat, spreadHelp, slowestHelp string) {
	name := prefix + "phase_seconds"
	header(w, name, spreadHelp)
	for _, ps := range phases {
		for _, s := range []struct {
			stat string
			v    time.Duration
		}{
			{"min", ps.Min}, {"median", ps.Median}, {"p95", ps.P95}, {"max", ps.Max}, {"mean", ps.Mean},
		} {
			fmt.Fprintf(w, "%s{phase=%q,stat=%q} %s\n", name, ps.Name, s.stat, value(s.v))
		}
	}
	name = prefix + "phase_slowest_rank"
	header(w, name, slowestHelp)
	for _, ps := range phases {
		fmt.Fprintf(w, "%s{phase=%q} %d\n", name, ps.Name, ps.SlowestRank)
	}
}

// writeStragglerFamilies writes the families that close a phased report:
// the clock spread, the straggler count and, when any rank was flagged,
// each straggler's excess over the median.
func writeStragglerFamilies(w io.Writer, prefix string, spread time.Duration, stragglers []Straggler,
	spreadHelp, countHelp, excessHelp string) {
	gauge(w, prefix+"clock_spread_seconds", spreadHelp, spread)
	gauge(w, prefix+"stragglers", countHelp, len(stragglers))
	if len(stragglers) == 0 {
		return
	}
	name := prefix + "straggler_excess_seconds"
	header(w, name, excessHelp)
	for _, s := range stragglers {
		fmt.Fprintf(w, "%s{rank=\"%d\",phase=%q} %s\n", name, s.Rank, s.Phase, value(s.Excess()))
	}
}
