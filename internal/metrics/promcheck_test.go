package metrics

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// sampleDump builds a fully populated Dump for exposition tests.
func sampleDump() Dump {
	h := NewHistogram()
	for _, v := range []int64{900, 12_000, 47_000, 2_000_000, 150_000_000} {
		h.Record(v)
	}
	return Dump{
		Rank: 3, DatasetBytes: 1 << 20, TotalChunks: 256, LocalUniqueChunks: 200,
		HashedBytes: 1 << 20, StoredChunks: 210, StoredBytes: 860_000,
		SentChunks: 120, SentBytes: 490_000, RecvChunks: 118, RecvBytes: 480_000,
		ReductionBytes: 65_000, ReductionRounds: 3, LoadExchangeBytes: 2_048,
		WindowBytes: 500_000, UniqueContentBytes: 820_000,
		Phases: Phases{
			Chunking: time.Millisecond, Fingerprint: 2 * time.Millisecond,
			LocalDedup: 300 * time.Microsecond, Reduction: 4 * time.Millisecond,
			ReductionRoundTimes: []time.Duration{2 * time.Millisecond, 1500 * time.Microsecond, 500 * time.Microsecond},
			LoadExchange:        time.Millisecond, Planning: 200 * time.Microsecond,
			WindowOpen: 50 * time.Microsecond, Put: 3 * time.Millisecond,
			WindowWait: 2 * time.Millisecond, Commit: time.Millisecond,
			Barrier: 400 * time.Microsecond, Total: 16 * time.Millisecond,
		},
		PutLatency:  h,
		BarrierExit: time.Unix(1700000000, 0),
	}
}

// TestExpositionWellFormed runs the strict checker over the exposition
// of a populated dump.
func TestExpositionWellFormed(t *testing.T) {
	var buf bytes.Buffer
	sampleDump().WritePrometheus(&buf)
	if err := CheckExposition(bytes.NewReader(buf.Bytes())); err != nil {
		t.Errorf("%v\n%s", err, buf.String())
	}
}

// TestExpositionHistogramShape pins the put-latency family to the
// explicit-bucket histogram form: _bucket series with the shared ladder,
// an +Inf bucket equal to _count, and no quantile series.
func TestExpositionHistogramShape(t *testing.T) {
	d := sampleDump()
	var buf bytes.Buffer
	d.WritePrometheus(&buf)
	out := buf.String()
	if !strings.Contains(out, "# TYPE dedupcr_put_latency_seconds histogram") {
		t.Fatalf("put latency not exposed as histogram:\n%s", out)
	}
	if strings.Contains(out, "quantile=") {
		t.Errorf("exposition carries summary quantiles")
	}
	if !strings.Contains(out, `dedupcr_put_latency_seconds_bucket{rank="3",le="+Inf"} 5`) {
		t.Errorf("+Inf bucket missing or wrong count:\n%s", out)
	}
	if !strings.Contains(out, `dedupcr_reduction_round_seconds{rank="3",round="0"} 0.002000000`) {
		t.Errorf("reduction round times not exposed:\n%s", out)
	}
}

// TestCheckExpositionRejects feeds the checker deliberately malformed
// expositions and expects each to be caught.
func TestCheckExpositionRejects(t *testing.T) {
	cases := map[string]string{
		"no TYPE":            "# HELP m x\nm 1\n",
		"no HELP":            "# TYPE m counter\nm 1\n",
		"bad type":           "# HELP m x\n# TYPE m chart\nm 1\n",
		"duplicate TYPE":     "# HELP m x\n# TYPE m counter\n# TYPE m counter\nm 1\n",
		"negative counter":   "# HELP m x\n# TYPE m counter\nm -1\n",
		"bad escape":         "# HELP m x\n# TYPE m counter\nm{a=\"\\q\"} 1\n",
		"unterminated label": "# HELP m x\n# TYPE m counter\nm{a=\"v} 1\n",
		"bad label name":     "# HELP m x\n# TYPE m counter\nm{0a=\"v\"} 1\n",
		"duplicate sample":   "# HELP m x\n# TYPE m counter\nm{a=\"v\"} 1\nm{a=\"v\"} 2\n",
		"non-monotone buckets": "# HELP m x\n# TYPE m histogram\n" +
			"m_bucket{le=\"0.1\"} 5\nm_bucket{le=\"1\"} 3\nm_bucket{le=\"+Inf\"} 5\nm_count 5\n",
		"unsorted bucket bounds": "# HELP m x\n# TYPE m histogram\n" +
			"m_bucket{le=\"1\"} 2\nm_bucket{le=\"0.1\"} 3\nm_bucket{le=\"+Inf\"} 3\nm_count 3\n",
		"missing +Inf": "# HELP m x\n# TYPE m histogram\nm_bucket{le=\"1\"} 2\nm_count 2\n",
		"+Inf != count": "# HELP m x\n# TYPE m histogram\n" +
			"m_bucket{le=\"1\"} 2\nm_bucket{le=\"+Inf\"} 2\nm_count 3\n",
		"bare histogram sample": "# HELP m x\n# TYPE m histogram\nm 1\n",
		"quantile out of range": "# HELP m x\n# TYPE m summary\nm{quantile=\"1.5\"} 2\n",
		"unparseable value":     "# HELP m x\n# TYPE m gauge\nm fast\n",
	}
	for name, in := range cases {
		if err := CheckExposition(strings.NewReader(in)); err == nil {
			t.Errorf("%s: checker accepted malformed exposition:\n%s", name, in)
		}
	}
}

// TestCheckExpositionAccepts covers well-formed corner cases the strict
// checker must not reject.
func TestCheckExpositionAccepts(t *testing.T) {
	cases := map[string]string{
		"escapes":   "# HELP m x\n# TYPE m gauge\nm{a=\"q\\\"u\\\\o\\nte\"} 1\n",
		"timestamp": "# HELP m x\n# TYPE m counter\nm 1 1700000000000\n",
		"inf gauge": "# HELP m x\n# TYPE m gauge\nm +Inf\n",
		"summary": "# HELP m x\n# TYPE m summary\n" +
			"m{quantile=\"0.5\"} 1\nm{quantile=\"0.99\"} 2\nm_sum 3\nm_count 4\n",
		"histogram": "# HELP m x\n# TYPE m histogram\n" +
			"m_bucket{le=\"0.1\"} 1\nm_bucket{le=\"+Inf\"} 2\nm_sum 0.5\nm_count 2\n",
	}
	for name, in := range cases {
		if err := CheckExposition(strings.NewReader(in)); err != nil {
			t.Errorf("%s: checker rejected well-formed exposition: %v", name, err)
		}
	}
}
