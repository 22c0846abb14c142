// Package dedupcr's top-level benchmarks regenerate every table and
// figure of the paper's evaluation at full scale (up to 408 simulated
// ranks) and print them in the paper's format:
//
//	go test -bench=. -benchmem                  # everything
//	go test -bench=BenchmarkTable1 -benchmem    # one artifact
//	DEDUPCR_QUICK=1 go test -bench=. -benchmem  # CI-sized quick pass
//
// Each benchmark runs the full pipeline — mini-app, chunking, collective
// reduction, window exchange, storage commit — and reports the simulated
// Shamrock seconds as benchmark metrics alongside the rendered table.
// They reproduce the paper's shapes and gate nothing; wall-clock
// performance is measured by `go run ./bench`.
package dedupcr_test

import (
	"fmt"
	"os"
	"testing"

	"dedupcr/internal/experiments"
)

func benchConfig() experiments.Config {
	return experiments.Config{Quick: os.Getenv("DEDUPCR_QUICK") != ""}
}

// runExperiment executes one registered experiment per benchmark
// iteration (experiments are heavy, so b.N is typically 1) and prints the
// resulting table once.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	exp, ok := experiments.Lookup(id)
	if !ok {
		b.Fatalf("experiment %q not registered", id)
	}
	var rendered string
	for i := 0; i < b.N; i++ {
		tab, err := exp.Run(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		rendered = tab.Render()
	}
	b.StopTimer()
	// Scenario results are memoized, so after the first full run the
	// benchmark replays quickly and Go ramps b.N up; print the table
	// only on the initial probe invocation.
	if b.N == 1 {
		fmt.Fprintln(os.Stderr)
		fmt.Fprint(os.Stderr, rendered)
	}
}

// BenchmarkFig3aUniqueContent regenerates Figure 3(a): total size of
// unique content for HPCCG-196, CM1-256, HPCCG-408 and CM1-408.
func BenchmarkFig3aUniqueContent(b *testing.B) { runExperiment(b, "fig3a") }

// BenchmarkFig3bReductionOverheadHPCCG regenerates Figure 3(b): the
// collective hash reduction overhead for HPCCG at increasing scale.
func BenchmarkFig3bReductionOverheadHPCCG(b *testing.B) { runExperiment(b, "fig3b") }

// BenchmarkFig3cReductionOverheadCM1 regenerates Figure 3(c) for CM1.
func BenchmarkFig3cReductionOverheadCM1(b *testing.B) { runExperiment(b, "fig3c") }

// BenchmarkTable1CompletionTime regenerates Table I: completion times
// with a replication factor of 3 for both applications.
func BenchmarkTable1CompletionTime(b *testing.B) { runExperiment(b, "table1") }

// BenchmarkFig4aHPCCGTimeVsK regenerates Figure 4(a): HPCCG execution
// time increase for replication factors 1..6.
func BenchmarkFig4aHPCCGTimeVsK(b *testing.B) { runExperiment(b, "fig4a") }

// BenchmarkFig4bHPCCGSendVsK regenerates Figure 4(b): HPCCG replicated
// data per process (average and maximum).
func BenchmarkFig4bHPCCGSendVsK(b *testing.B) { runExperiment(b, "fig4b") }

// BenchmarkFig4cHPCCGShuffle regenerates Figure 4(c): HPCCG maximal
// receive size with and without rank shuffling.
func BenchmarkFig4cHPCCGShuffle(b *testing.B) { runExperiment(b, "fig4c") }

// BenchmarkFig5aCM1TimeVsK regenerates Figure 5(a) for CM1.
func BenchmarkFig5aCM1TimeVsK(b *testing.B) { runExperiment(b, "fig5a") }

// BenchmarkFig5bCM1SendVsK regenerates Figure 5(b) for CM1.
func BenchmarkFig5bCM1SendVsK(b *testing.B) { runExperiment(b, "fig5b") }

// BenchmarkFig5cCM1Shuffle regenerates Figure 5(c) for CM1.
func BenchmarkFig5cCM1Shuffle(b *testing.B) { runExperiment(b, "fig5c") }

// BenchmarkRestoreFragmentation runs the restore-side fragmentation
// experiment — dump + instrumented restore across the duplication-degree
// sweep over the restore hot path (recipe walk, fetch service,
// telemetry gather).
func BenchmarkRestoreFragmentation(b *testing.B) { runExperiment(b, "fragmentation") }
