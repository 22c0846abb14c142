package core

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"

	"dedupcr/internal/chunk"
	"dedupcr/internal/collectives"
	"dedupcr/internal/metrics"
	"dedupcr/internal/obs"
	"dedupcr/internal/storage"
)

// tracedDump runs one traced collective dump of the standard workload
// and returns the per-rank results plus the shared trace.
func tracedDump(t *testing.T, n int, o Options) ([]*Result, *obs.Recorder) {
	t.Helper()
	cluster := storage.NewCluster(n)
	tr := obs.New(1 << 14)
	results := make([]*Result, n)
	var mu sync.Mutex
	err := collectives.Run(n, func(c collectives.Comm) error {
		opts := o
		opts.Trace = tr.Track(1, c.Rank(), fmt.Sprintf("rank %d", c.Rank()))
		buf := testBuffer(c.Rank(), 6, 4, 3, 2+c.Rank()%3)
		res, err := DumpOutput(c, cluster.Node(c.Rank()), buf, opts)
		if err != nil {
			return err
		}
		mu.Lock()
		results[c.Rank()] = res
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return results, tr
}

// TestDumpPhases verifies that every dump fills the per-phase timing
// breakdown consistently for all three approaches: phases sum to no more
// than the measured total, and the phases that must run did.
func TestDumpPhases(t *testing.T) {
	const n = 8
	for _, approach := range []Approach{NoDedup, LocalDedup, CollDedup} {
		approach := approach
		t.Run(approach.String(), func(t *testing.T) {
			o := Options{K: 3, Approach: approach, Chunker: chunk.Spec{Size: testPage}, Name: "ph"}
			results, _ := tracedDump(t, n, o)
			for r, res := range results {
				p := res.Metrics.Phases
				if p.Total <= 0 {
					t.Fatalf("rank %d: total %v, want > 0", r, p.Total)
				}
				if p.Sum() > p.Total {
					t.Errorf("rank %d: phase sum %v exceeds total %v", r, p.Sum(), p.Total)
				}
				if p.Other() < 0 {
					t.Errorf("rank %d: negative unattributed time %v", r, p.Other())
				}
				if p.Chunking <= 0 || p.Fingerprint <= 0 {
					t.Errorf("rank %d: chunking %v / fingerprint %v, want both > 0", r, p.Chunking, p.Fingerprint)
				}
				if approach == CollDedup {
					if p.Reduction <= 0 {
						t.Errorf("rank %d: coll-dedup without reduction time", r)
					}
					if len(p.ReductionRoundTimes) == 0 {
						t.Errorf("rank %d: no per-round reduction timings", r)
					}
				} else if p.Reduction != 0 {
					t.Errorf("rank %d: %v has reduction time %v", r, approach, p.Reduction)
				}
				// PutLatency holds one sample per window put, and a dump
				// issues one put per collectives.MaxPutBytes of each
				// partner's region: here, one per non-empty region.
				var puts int64
				for d := 1; d < o.K; d++ {
					if res.Plan.SendLoad[r][d] > 0 {
						puts++
					}
				}
				if got := res.Metrics.PutLatency.Count(); got != puts {
					t.Errorf("rank %d: %d put latencies for %d puts (%d sent chunks)", r, got, puts, res.Metrics.SentChunks)
				}
			}
		})
	}
}

// TestDumpTraceCoverage verifies the acceptance criterion that the spans
// of a traced dump cover (nearly) the whole wall time of each rank: the
// top-level dump span brackets everything, so coverage must be complete.
func TestDumpTraceCoverage(t *testing.T) {
	const n = 4
	o := Options{K: 2, Approach: CollDedup, Chunker: chunk.Spec{Size: testPage}, Name: "cov"}
	_, tr := tracedDump(t, n, o)
	if cov := tr.Coverage(); cov < 0.95 {
		t.Errorf("trace coverage %.3f, want >= 0.95", cov)
	}
	// Every pipeline phase must appear as a span at least once.
	seen := spanNames(tr)
	for _, name := range metrics.PhaseNames {
		if !seen[name] {
			t.Errorf("phase %q has no span", name)
		}
	}
	// Chrome export of a real dump trace must be valid JSON.
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 || buf.Bytes()[0] != '{' {
		t.Fatalf("unexpected chrome trace output %q", buf.String()[:min(buf.Len(), 40)])
	}
}

// tracedRestore dumps the standard workload under local dedup, wipes the
// stores of the ranks in wiped, and runs one traced restore, checking
// every rank's image; it returns the trace.
func tracedRestore(t *testing.T, n int, wiped ...int) *obs.Recorder {
	t.Helper()
	o := Options{K: 2, Approach: LocalDedup, Chunker: chunk.Spec{Size: testPage}, Name: "rt"}
	cluster, _, buffers := runDump(t, n, o)
	cluster.FailNodes(wiped...)
	for _, r := range wiped {
		cluster.Replace(r)
	}
	tr := obs.New(1 << 12)
	err := collectives.Run(n, func(c collectives.Comm) error {
		rec := tr.Track(1, c.Rank(), fmt.Sprintf("rank %d", c.Rank()))
		res, err := RestoreOutputCtx(context.Background(), c, cluster.Node(c.Rank()), "rt", rec)
		if err != nil {
			return err
		}
		if !bytes.Equal(res.Data, buffers[c.Rank()]) {
			return fmt.Errorf("rank %d restore mismatch", c.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// spanNames is the set of span names in tr.
func spanNames(tr *obs.Recorder) map[string]bool {
	seen := make(map[string]bool)
	for _, e := range tr.Events() {
		seen[e.Msg] = true
	}
	return seen
}

// TestRestoreTraceSpans verifies a local restore emits its top-level span
// and one span per phase it runs, each named like the phase it times.
func TestRestoreTraceSpans(t *testing.T) {
	seen := spanNames(tracedRestore(t, 4))
	for _, want := range []string{"restore", "restore-meta", "assemble", "restore-commit", "restore-barrier"} {
		if !seen[want] {
			t.Errorf("restore span %q missing", want)
		}
	}
}

// TestRestoreTraceCoverage is TestDumpTraceCoverage's twin: a restore
// with one node wiped, so the fetch stage runs too, is covered by its
// spans, and every restore phase appears as a span under its phase name.
func TestRestoreTraceCoverage(t *testing.T) {
	tr := tracedRestore(t, 4, 1)
	if cov := tr.Coverage(); cov < 0.95 {
		t.Errorf("trace coverage %.3f, want >= 0.95", cov)
	}
	seen := spanNames(tr)
	for _, name := range metrics.RestorePhaseNames {
		if !seen[name] {
			t.Errorf("restore phase %q has no span", name)
		}
	}
}
