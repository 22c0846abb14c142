package metrics

import (
	"fmt"
	"io"
)

// LatencyBuckets is the explicit `le` ladder (in seconds) of every
// latency histogram family this package exposes: a 1-2.5-5 decade scan
// from 1µs to 10s. Fixed, identical buckets on every rank are what make
// cross-rank aggregation (sum of _bucket series) well-defined.
var LatencyBuckets = []float64{
	1e-6, 2.5e-6, 5e-6,
	1e-5, 2.5e-5, 5e-5,
	1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3,
	1e-2, 2.5e-2, 5e-2,
	1e-1, 2.5e-1, 5e-1,
	1, 2.5, 5, 10,
}

// WriteLatencyHistogram emits one nanosecond-sample histogram as a
// Prometheus histogram family in seconds, with the LatencyBuckets
// ladder. labels is the shared label set of every sample ("" for none).
// Bucket counts come from Histogram.CountLE, so they are monotone by
// construction; +Inf always equals the total count.
func WriteLatencyHistogram(w io.Writer, name, help, labels string, h *Histogram) {
	if h.Count() == 0 {
		return
	}
	sep := ""
	if labels != "" {
		sep = ","
	}
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	for _, le := range LatencyBuckets {
		fmt.Fprintf(w, "%s_bucket{%s%sle=\"%g\"} %d\n", name, labels, sep, le, h.CountLE(int64(le*1e9)))
	}
	fmt.Fprintf(w, "%s_bucket{%s%sle=\"+Inf\"} %d\n", name, labels, sep, h.Count())
	if labels == "" {
		fmt.Fprintf(w, "%s_sum %.9f\n", name, float64(h.Sum())/1e9)
		fmt.Fprintf(w, "%s_count %d\n", name, h.Count())
	} else {
		fmt.Fprintf(w, "%s_sum{%s} %.9f\n", name, labels, float64(h.Sum())/1e9)
		fmt.Fprintf(w, "%s_count{%s} %d\n", name, labels, h.Count())
	}
}

// WritePrometheus emits the dump's counters and phase timings in the
// Prometheus plain-text exposition format, labelled with the rank — the
// counter dump replicad prints on exit so a scrape-less deployment still
// leaves machine-readable numbers behind.
func (d Dump) WritePrometheus(w io.Writer) {
	rank := fmt.Sprintf(`rank="%d"`, d.Rank)
	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s{%s} %d\n", name, help, name, name, rank, v)
	}
	counter("dedupcr_dataset_bytes_total", "Raw bytes of the rank's dumped buffer.", d.DatasetBytes)
	counter("dedupcr_chunks_total", "Chunks in the rank's dataset, duplicates included.", int64(d.TotalChunks))
	counter("dedupcr_local_unique_chunks_total", "Distinct fingerprints after local dedup.", int64(d.LocalUniqueChunks))
	counter("dedupcr_hashed_bytes_total", "Bytes run through the fingerprint function.", d.HashedBytes)
	counter("dedupcr_stored_chunks_total", "Chunks committed to the local store.", int64(d.StoredChunks))
	counter("dedupcr_stored_bytes_total", "Bytes committed to the local store.", d.StoredBytes)
	counter("dedupcr_sent_chunks_total", "Replication chunks pushed to partners.", int64(d.SentChunks))
	counter("dedupcr_sent_bytes_total", "Replication bytes pushed to partners.", d.SentBytes)
	counter("dedupcr_recv_chunks_total", "Replication chunks received from partners.", int64(d.RecvChunks))
	counter("dedupcr_recv_bytes_total", "Replication bytes received from partners.", d.RecvBytes)
	counter("dedupcr_reduction_bytes_total", "Bytes sent during the collective fingerprint reduction.", d.ReductionBytes)
	counter("dedupcr_reduction_rounds_total", "Depth of the reduction tree.", int64(d.ReductionRounds))
	counter("dedupcr_load_exchange_bytes_total", "Bytes sent for the load allgathers.", d.LoadExchangeBytes)
	counter("dedupcr_window_bytes_total", "Size of the receive window this rank opened.", d.WindowBytes)
	counter("dedupcr_unique_content_bytes_total", "Bytes of content the approach identified as unique.", d.UniqueContentBytes)
	counter("dedupcr_put_retries_total", "Window puts retried after a transient transport failure.", d.PutRetries)

	fmt.Fprintf(w, "# HELP dedupcr_phase_seconds Wall-clock time of one dump pipeline phase.\n")
	fmt.Fprintf(w, "# TYPE dedupcr_phase_seconds gauge\n")
	for _, name := range PhaseNames {
		fmt.Fprintf(w, "dedupcr_phase_seconds{%s,phase=%q} %.9f\n", rank, name, d.Phases.ByName(name).Seconds())
	}
	fmt.Fprintf(w, "dedupcr_phase_seconds{%s,phase=\"total\"} %.9f\n", rank, d.Phases.Total.Seconds())

	if len(d.Phases.ReductionRoundTimes) > 0 {
		fmt.Fprintf(w, "# HELP dedupcr_reduction_round_seconds Duration of one level of the HMERGE reduction tree on this rank.\n")
		fmt.Fprintf(w, "# TYPE dedupcr_reduction_round_seconds gauge\n")
		for i, rt := range d.Phases.ReductionRoundTimes {
			fmt.Fprintf(w, "dedupcr_reduction_round_seconds{%s,round=\"%d\"} %.9f\n", rank, i, rt.Seconds())
		}
	}

	if d.PutLatency.Count() > 0 {
		WriteLatencyHistogram(w, "dedupcr_put_latency_seconds",
			"Window put latency, one sample per gathered put.", rank, d.PutLatency)
	}
}
