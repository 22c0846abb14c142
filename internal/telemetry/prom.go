package telemetry

import (
	"fmt"
	"io"
)

// WritePrometheus emits the cluster dump in the Prometheus plain-text
// exposition format: the dedupcr_cluster_* families replicad's rank 0
// serves at /cluster/metrics. Unlike the per-rank dedupcr_* families,
// these are already reduced across the group, so one scrape of rank 0
// sees the whole cluster.
func (cd *ClusterDump) WritePrometheus(w io.Writer) {
	gauge := func(name, help string) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n", name, help, name)
	}

	gauge("dedupcr_cluster_ranks", "Number of ranks aggregated into the cluster dump.")
	fmt.Fprintf(w, "dedupcr_cluster_ranks %d\n", cd.Ranks)

	gauge("dedupcr_cluster_phase_seconds", "Cross-rank spread of one dump pipeline phase (stat: min/median/p95/max/mean).")
	for _, ps := range cd.Phases {
		for _, s := range []struct {
			stat string
			v    float64
		}{
			{"min", ps.Min.Seconds()}, {"median", ps.Median.Seconds()},
			{"p95", ps.P95.Seconds()}, {"max", ps.Max.Seconds()},
			{"mean", ps.Mean.Seconds()},
		} {
			fmt.Fprintf(w, "dedupcr_cluster_phase_seconds{phase=%q,stat=%q} %.9f\n", ps.Name, s.stat, s.v)
		}
	}

	gauge("dedupcr_cluster_phase_slowest_rank", "Rank with the maximum duration of one pipeline phase.")
	for _, ps := range cd.Phases {
		fmt.Fprintf(w, "dedupcr_cluster_phase_slowest_rank{phase=%q} %d\n", ps.Name, ps.SlowestRank)
	}

	gauge("dedupcr_cluster_sent_bytes", "Replication bytes pushed to partners, summed over ranks.")
	fmt.Fprintf(w, "dedupcr_cluster_sent_bytes %d\n", cd.TotalSentBytes)
	gauge("dedupcr_cluster_recv_bytes", "Replication bytes received from partners, summed over ranks.")
	fmt.Fprintf(w, "dedupcr_cluster_recv_bytes %d\n", cd.TotalRecvBytes)
	gauge("dedupcr_cluster_stored_bytes", "Bytes committed to local stores, summed over ranks.")
	fmt.Fprintf(w, "dedupcr_cluster_stored_bytes %d\n", cd.TotalStoredBytes)
	gauge("dedupcr_cluster_put_retries", "Window puts retried after transient transport failures, summed over ranks.")
	fmt.Fprintf(w, "dedupcr_cluster_put_retries %d\n", cd.TotalPutRetries)

	gauge("dedupcr_cluster_rank_sent_bytes", "Replication bytes one rank pushed to partners.")
	for _, rs := range cd.PerRank {
		fmt.Fprintf(w, "dedupcr_cluster_rank_sent_bytes{rank=\"%d\"} %d\n", rs.Rank, rs.SentBytes)
	}
	gauge("dedupcr_cluster_rank_recv_bytes", "Replication bytes one rank received from partners.")
	for _, rs := range cd.PerRank {
		fmt.Fprintf(w, "dedupcr_cluster_rank_recv_bytes{rank=\"%d\"} %d\n", rs.Rank, rs.RecvBytes)
	}
	gauge("dedupcr_cluster_rank_stored_bytes", "Bytes one rank committed to its local store.")
	for _, rs := range cd.PerRank {
		fmt.Fprintf(w, "dedupcr_cluster_rank_stored_bytes{rank=\"%d\"} %d\n", rs.Rank, rs.StoredBytes)
	}
	gauge("dedupcr_cluster_rank_total_seconds", "End-to-end dump time of one rank.")
	for _, rs := range cd.PerRank {
		fmt.Fprintf(w, "dedupcr_cluster_rank_total_seconds{rank=\"%d\"} %.9f\n", rs.Rank, rs.Total.Seconds())
	}

	gauge("dedupcr_cluster_designation_imbalance", "Max/mean of per-rank stored bytes (1.0 = balanced designation).")
	fmt.Fprintf(w, "dedupcr_cluster_designation_imbalance %.6f\n", cd.DesignationImbalance)
	gauge("dedupcr_cluster_send_imbalance", "Max/mean of per-rank sent bytes (1.0 = balanced sends).")
	fmt.Fprintf(w, "dedupcr_cluster_send_imbalance %.6f\n", cd.SendImbalance)

	gauge("dedupcr_cluster_clock_offset_seconds", "Estimated lag of one rank's wall clock behind the group's latest barrier-exit stamp.")
	for _, rs := range cd.PerRank {
		fmt.Fprintf(w, "dedupcr_cluster_clock_offset_seconds{rank=\"%d\"} %.9f\n", rs.Rank, rs.ClockOffset.Seconds())
	}
	gauge("dedupcr_cluster_clock_spread_seconds", "Width of the barrier-exit stamp window: upper bound on pairwise clock-offset error.")
	fmt.Fprintf(w, "dedupcr_cluster_clock_spread_seconds %.9f\n", cd.ClockSpread.Seconds())

	gauge("dedupcr_cluster_stragglers", "Number of flagged (rank, phase) straggler pairs.")
	fmt.Fprintf(w, "dedupcr_cluster_stragglers %d\n", len(cd.Stragglers))
	if len(cd.Stragglers) > 0 {
		gauge("dedupcr_cluster_straggler_excess_seconds", "How far a flagged rank's phase time overshot the cluster median.")
		for _, s := range cd.Stragglers {
			fmt.Fprintf(w, "dedupcr_cluster_straggler_excess_seconds{rank=\"%d\",phase=%q} %.9f\n",
				s.Rank, s.Phase, s.Excess().Seconds())
		}
	}
}

// WritePrometheus emits the cluster restore in the Prometheus plain-text
// exposition format: the dedupcr_cluster_restore_* families replicad's
// rank 0 serves at /restore/metrics — already reduced across the group,
// so one scrape of rank 0 sees the whole cluster's restore cost.
func (cr *ClusterRestore) WritePrometheus(w io.Writer) {
	gauge := func(name, help string) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n", name, help, name)
	}

	gauge("dedupcr_cluster_restore_ranks", "Number of ranks aggregated into the cluster restore.")
	fmt.Fprintf(w, "dedupcr_cluster_restore_ranks %d\n", cr.Ranks)

	gauge("dedupcr_cluster_restore_phase_seconds", "Cross-rank spread of one restore pipeline phase (stat: min/median/p95/max/mean).")
	for _, ps := range cr.Phases {
		for _, s := range []struct {
			stat string
			v    float64
		}{
			{"min", ps.Min.Seconds()}, {"median", ps.Median.Seconds()},
			{"p95", ps.P95.Seconds()}, {"max", ps.Max.Seconds()},
			{"mean", ps.Mean.Seconds()},
		} {
			fmt.Fprintf(w, "dedupcr_cluster_restore_phase_seconds{phase=%q,stat=%q} %.9f\n", ps.Name, s.stat, s.v)
		}
	}

	gauge("dedupcr_cluster_restore_phase_slowest_rank", "Rank with the maximum duration of one restore phase.")
	for _, ps := range cr.Phases {
		fmt.Fprintf(w, "dedupcr_cluster_restore_phase_slowest_rank{phase=%q} %d\n", ps.Name, ps.SlowestRank)
	}

	gauge("dedupcr_cluster_restore_logical_bytes", "Bytes of the reassembled images, summed over ranks.")
	fmt.Fprintf(w, "dedupcr_cluster_restore_logical_bytes %d\n", cr.TotalLogicalBytes)
	gauge("dedupcr_cluster_restore_local_bytes", "Bytes served by local stores, summed over ranks.")
	fmt.Fprintf(w, "dedupcr_cluster_restore_local_bytes %d\n", cr.TotalLocalBytes)
	gauge("dedupcr_cluster_restore_fetched_bytes", "Bytes pulled from peers, summed over ranks.")
	fmt.Fprintf(w, "dedupcr_cluster_restore_fetched_bytes %d\n", cr.TotalFetchedBytes)
	gauge("dedupcr_cluster_restore_fetched_chunks", "Chunks pulled from peers, summed over ranks.")
	fmt.Fprintf(w, "dedupcr_cluster_restore_fetched_chunks %d\n", cr.TotalFetchedChunks)
	gauge("dedupcr_cluster_restore_fetch_requests", "Chunks and blobs asked of a peer, summed over ranks.")
	fmt.Fprintf(w, "dedupcr_cluster_restore_fetch_requests %d\n", cr.TotalFetchRequests)
	gauge("dedupcr_cluster_restore_fetch_misses", "Asks answered not-found or rejected on verification, summed over ranks.")
	fmt.Fprintf(w, "dedupcr_cluster_restore_fetch_misses %d\n", cr.TotalFetchMisses)
	gauge("dedupcr_cluster_restore_objects_touched", "Distinct local store objects read, summed over ranks.")
	fmt.Fprintf(w, "dedupcr_cluster_restore_objects_touched %d\n", cr.TotalObjectsTouched)

	gauge("dedupcr_cluster_restore_read_amplification_bytes", "Cluster-wide bytes fetched from peers over logical image bytes.")
	fmt.Fprintf(w, "dedupcr_cluster_restore_read_amplification_bytes %.6f\n", cr.ReadAmplificationBytes)
	gauge("dedupcr_cluster_restore_read_amplification_chunks", "Cluster-wide chunks fetched from peers over unique chunks.")
	fmt.Fprintf(w, "dedupcr_cluster_restore_read_amplification_chunks %.6f\n", cr.ReadAmplificationChunks)
	gauge("dedupcr_cluster_restore_fetch_imbalance", "Max/mean of per-rank fetched bytes (1.0 = balanced fetch cost).")
	fmt.Fprintf(w, "dedupcr_cluster_restore_fetch_imbalance %.6f\n", cr.FetchImbalance)
	gauge("dedupcr_cluster_restore_serve_imbalance", "Max/mean of per-peer served bytes (1.0 = balanced serving load).")
	fmt.Fprintf(w, "dedupcr_cluster_restore_serve_imbalance %.6f\n", cr.ServeImbalance)
	gauge("dedupcr_cluster_restore_max_source_ranks", "Largest per-rank distinct-source count.")
	fmt.Fprintf(w, "dedupcr_cluster_restore_max_source_ranks %d\n", cr.MaxSourceRanks)

	gauge("dedupcr_cluster_restore_rank_fetched_bytes", "Bytes one rank pulled from peers.")
	for _, rs := range cr.PerRank {
		fmt.Fprintf(w, "dedupcr_cluster_restore_rank_fetched_bytes{rank=\"%d\"} %d\n", rs.Rank, rs.FetchedBytes)
	}
	gauge("dedupcr_cluster_restore_rank_read_amplification_bytes", "One rank's byte read amplification.")
	for _, rs := range cr.PerRank {
		fmt.Fprintf(w, "dedupcr_cluster_restore_rank_read_amplification_bytes{rank=\"%d\"} %.6f\n", rs.Rank, rs.ReadAmpBytes)
	}
	gauge("dedupcr_cluster_restore_rank_total_seconds", "End-to-end restore time of one rank.")
	for _, rs := range cr.PerRank {
		fmt.Fprintf(w, "dedupcr_cluster_restore_rank_total_seconds{rank=\"%d\"} %.9f\n", rs.Rank, rs.Total.Seconds())
	}

	if cr.RunLengths.Count > 0 {
		gauge("dedupcr_cluster_restore_run_length_chunks", "Merged same-source run-length distribution (stat: p50/p90/p99/max/mean).")
		for _, s := range []struct {
			stat string
			v    float64
		}{
			{"p50", float64(cr.RunLengths.P50)}, {"p90", float64(cr.RunLengths.P90)},
			{"p99", float64(cr.RunLengths.P99)}, {"max", float64(cr.RunLengths.Max)},
			{"mean", cr.RunLengths.Mean},
		} {
			fmt.Fprintf(w, "dedupcr_cluster_restore_run_length_chunks{stat=%q} %.3f\n", s.stat, s.v)
		}
	}
	if cr.FetchLatency.Count > 0 {
		gauge("dedupcr_cluster_restore_fetch_latency_seconds", "Merged per-exchange fetch latency (stat: p50/p90/p99/max/mean).")
		for _, s := range []struct {
			stat string
			v    float64
		}{
			{"p50", float64(cr.FetchLatency.P50) / 1e9}, {"p90", float64(cr.FetchLatency.P90) / 1e9},
			{"p99", float64(cr.FetchLatency.P99) / 1e9}, {"max", float64(cr.FetchLatency.Max) / 1e9},
			{"mean", cr.FetchLatency.Mean / 1e9},
		} {
			fmt.Fprintf(w, "dedupcr_cluster_restore_fetch_latency_seconds{stat=%q} %.9f\n", s.stat, s.v)
		}
	}

	gauge("dedupcr_cluster_restore_clock_spread_seconds", "Width of the restore barrier-exit stamp window.")
	fmt.Fprintf(w, "dedupcr_cluster_restore_clock_spread_seconds %.9f\n", cr.ClockSpread.Seconds())

	gauge("dedupcr_cluster_restore_stragglers", "Number of flagged (rank, phase) restore straggler pairs.")
	fmt.Fprintf(w, "dedupcr_cluster_restore_stragglers %d\n", len(cr.Stragglers))
	if len(cr.Stragglers) > 0 {
		gauge("dedupcr_cluster_restore_straggler_excess_seconds", "How far a flagged rank's restore phase time overshot the cluster median.")
		for _, s := range cr.Stragglers {
			fmt.Fprintf(w, "dedupcr_cluster_restore_straggler_excess_seconds{rank=\"%d\",phase=%q} %.9f\n",
				s.Rank, s.Phase, s.Excess().Seconds())
		}
	}
}
