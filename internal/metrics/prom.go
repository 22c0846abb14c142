package metrics

import (
	"fmt"
	"io"
	"time"
)

// LatencyBuckets is the explicit `le` ladder (in nanoseconds, exposed in
// seconds) of every latency histogram family: a 1-2.5-5 decade scan from
// 1µs to 10s. Fixed, identical buckets on every rank are what make
// cross-rank aggregation (sum of _bucket series) well-defined.
var LatencyBuckets = []int64{
	1e3, 2.5e3, 5e3,
	1e4, 2.5e4, 5e4,
	1e5, 2.5e5, 5e5,
	1e6, 2.5e6, 5e6,
	1e7, 2.5e7, 5e7,
	1e8, 2.5e8, 5e8,
	1e9, 2.5e9, 5e9, 1e10,
}

// Writer writes Prometheus text exposition families whose samples share
// one label set: a rank's `rank="3"`, or none for the cluster-wide
// families. It is the tree's one writer of HELP and TYPE lines, and
// CheckExposition validates what it produces.
type Writer struct {
	w      io.Writer
	labels string
}

// NewWriter returns a writer labelling every sample with labels ("" for
// none).
func NewWriter(w io.Writer, labels string) *Writer { return &Writer{w: w, labels: labels} }

// RankWriter returns a writer labelling every sample with the rank.
func RankWriter(w io.Writer, rank int) *Writer {
	return NewWriter(w, fmt.Sprintf(`rank="%d"`, rank))
}

// Family writes one family's HELP and TYPE lines.
func (p *Writer) Family(name, typ, help string) {
	fmt.Fprintf(p.w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// Sample writes one sample with the shared labels plus extra (`phase="put"`,
// "" for none). A time.Duration prints as seconds to 9 places, a float64
// to 6, anything else with %v (so a string is written verbatim).
func (p *Writer) Sample(name, extra string, v any) {
	labels := p.labels
	if labels == "" {
		labels = extra
	} else if extra != "" {
		labels += "," + extra
	}
	if labels != "" {
		name += "{" + labels + "}"
	}
	switch x := v.(type) {
	case time.Duration:
		v = fmt.Sprintf("%.9f", x.Seconds())
	case float64:
		v = fmt.Sprintf("%.6f", x)
	}
	fmt.Fprintf(p.w, "%s %v\n", name, v)
}

// Counter writes a one-sample counter family.
func (p *Writer) Counter(name, help string, v any) {
	p.Family(name, "counter", help)
	p.Sample(name, "", v)
}

// Gauge writes a one-sample gauge family.
func (p *Writer) Gauge(name, help string, v any) {
	p.Family(name, "gauge", help)
	p.Sample(name, "", v)
}

// Histogram writes h, a histogram of counts, as a histogram family: one
// cumulative bucket per bound in le, +Inf, _sum and _count. Bucket counts
// come from Histogram.CountLE, so they are monotone by construction. An
// empty histogram writes nothing.
func (p *Writer) Histogram(name, help string, h *Histogram, le []int64) {
	p.histogram(name, help, h, le, func(b int64) any { return b }, h.Sum())
}

// Latency writes h, a histogram of nanoseconds, like Histogram on the
// LatencyBuckets ladder, with bounds and sum in seconds.
func (p *Writer) Latency(name, help string, h *Histogram) {
	p.histogram(name, help, h, LatencyBuckets, func(b int64) any { return float64(b) / 1e9 }, time.Duration(h.Sum()))
}

func (p *Writer) histogram(name, help string, h *Histogram, le []int64, bound func(int64) any, sum any) {
	if h.Count() == 0 {
		return
	}
	p.Family(name, "histogram", help)
	for _, b := range le {
		p.Sample(name+"_bucket", fmt.Sprintf(`le="%v"`, bound(b)), h.CountLE(b))
	}
	p.Sample(name+"_bucket", `le="+Inf"`, h.Count())
	p.Sample(name+"_sum", "", sum)
	p.Sample(name+"_count", "", h.Count())
}

// phases writes a per-phase seconds gauge family: one sample per name,
// then the measured total.
func (p *Writer) phases(name, help string, names []string, by func(string) time.Duration, total time.Duration) {
	p.Family(name, "gauge", help)
	for _, n := range names {
		p.Sample(name, fmt.Sprintf("phase=%q", n), by(n))
	}
	p.Sample(name, `phase="total"`, total)
}

// WritePrometheus emits the dump's counters and phase timings in the
// Prometheus plain-text exposition format, labelled with the rank — the
// counter dump replicad prints on exit so a scrape-less deployment still
// leaves machine-readable numbers behind.
func (d Dump) WritePrometheus(w io.Writer) {
	p := RankWriter(w, d.Rank)
	p.Counter("dedupcr_dataset_bytes_total", "Raw bytes of the rank's dumped buffer.", d.DatasetBytes)
	p.Counter("dedupcr_chunks_total", "Chunks in the rank's dataset, duplicates included.", d.TotalChunks)
	p.Counter("dedupcr_local_unique_chunks_total", "Distinct fingerprints after local dedup.", d.LocalUniqueChunks)
	p.Counter("dedupcr_hashed_bytes_total", "Bytes run through the fingerprint function.", d.HashedBytes)
	p.Counter("dedupcr_stored_chunks_total", "Chunks committed to the local store.", d.StoredChunks)
	p.Counter("dedupcr_stored_bytes_total", "Bytes committed to the local store.", d.StoredBytes)
	p.Counter("dedupcr_sent_chunks_total", "Replication chunks pushed to partners.", d.SentChunks)
	p.Counter("dedupcr_sent_bytes_total", "Replication bytes pushed to partners.", d.SentBytes)
	p.Counter("dedupcr_recv_chunks_total", "Replication chunks received from partners.", d.RecvChunks)
	p.Counter("dedupcr_recv_bytes_total", "Replication bytes received from partners.", d.RecvBytes)
	p.Counter("dedupcr_reduction_bytes_total", "Bytes sent during the collective fingerprint reduction.", d.ReductionBytes)
	p.Counter("dedupcr_reduction_rounds_total", "Depth of the reduction tree.", d.ReductionRounds)
	p.Counter("dedupcr_load_exchange_bytes_total", "Bytes sent for the load allgathers.", d.LoadExchangeBytes)
	p.Counter("dedupcr_window_bytes_total", "Size of the receive window this rank opened.", d.WindowBytes)
	p.Counter("dedupcr_unique_content_bytes_total", "Bytes of content the approach identified as unique.", d.UniqueContentBytes)

	p.phases("dedupcr_phase_seconds", "Wall-clock time of one dump pipeline phase.",
		PhaseNames, d.Phases.ByName, d.Phases.Total)

	if len(d.Phases.ReductionRoundTimes) > 0 {
		const name = "dedupcr_reduction_round_seconds"
		p.Family(name, "gauge", "Duration of one level of the HMERGE reduction tree on this rank.")
		for i, rt := range d.Phases.ReductionRoundTimes {
			p.Sample(name, fmt.Sprintf(`round="%d"`, i), rt)
		}
	}

	p.Latency("dedupcr_put_latency_seconds", "Window put latency, one sample per gathered put.",
		d.PutLatency)
}
