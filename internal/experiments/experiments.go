// Package experiments regenerates every table and figure of the paper's
// evaluation section (Section V): Figure 3(a)-(c), Table I, Figures
// 4(a)-(c) and 5(a)-(c). Each experiment runs the real pipeline — the
// mini-apps produce checkpoint images, DumpOutput moves real bytes
// through the collectives — and feeds the measured per-rank counters into
// the netsim performance model to obtain simulated Shamrock seconds.
//
// Scale: rank counts are the paper's; per-rank data is linearly scaled
// down ~1000× (see the app packages) and netsim's Scale factor maps the
// measured bytes back to testbed magnitudes.
package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"dedupcr/internal/chunk"
	"dedupcr/internal/obs"
	"dedupcr/internal/telemetry"
)

// Table is a rendered experiment result: the same rows/series the paper
// reports, plus notes on scaling and expectations.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Render formats the table for terminal output.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "# %s\n", n)
	}
	return b.String()
}

// Config tunes an experiment run.
type Config struct {
	// Quick shrinks rank counts (CI-friendly); the full settings use the
	// paper's process counts up to 408.
	Quick bool
	// Verbose prints progress to stderr.
	Verbose bool
	// Trace, when set, collects per-phase spans of every scenario the
	// experiment runs into one trace ring: one trace process per
	// scenario, one thread per rank. Tracing bypasses the scenario cache
	// so the spans always reflect a live run.
	Trace *obs.Recorder
	// Parallelism sets core.Options.Parallelism for every dump the
	// experiments run: the per-rank worker budget of the hot path. 0
	// keeps the default (GOMAXPROCS); 1 runs the same pipeline with no
	// worker goroutine. Results are byte-identical either way (only timings move),
	// but scenarios are cached per setting so timing experiments can
	// compare them.
	Parallelism int
	// Chunker selects the chunking algorithm for every dump the
	// experiments run (core.Options.Chunker.Algo); the chunk size stays
	// each workload's scaled page size. The zero value keeps the paper's
	// fixed-size chunking. Scenarios are cached per algorithm, so the
	// parallel and fragmentation experiments can sweep chunkers across
	// dumpbench invocations (-chunker fixed|gear).
	Chunker chunk.Algo
	// Timeout bounds each collective scenario run: when it expires the
	// group aborts and the experiment fails with a collective error
	// instead of hanging. Zero means no deadline.
	Timeout time.Duration
	// OnCluster, when set, receives the ClusterDump and the per-rank
	// trace slices of every scenario an experiment aggregates through
	// the telemetry plane (currently the imbalance experiment; one call
	// per scenario, labelled "<experiment>/<approach>"). dumpbench uses
	// it to export cluster JSON and merged cross-rank traces.
	OnCluster func(label string, cd *telemetry.ClusterDump, ranks []telemetry.RankTrace)
	// OnClusterRestore is OnCluster's read-side twin: it receives the
	// ClusterRestore and the per-rank restore trace slices of every
	// scenario an experiment aggregates through the restore telemetry
	// plane (currently the fragmentation experiment). dumpbench uses it
	// for -restore-stats and the cluster JSON export.
	OnClusterRestore func(label string, cr *telemetry.ClusterRestore, ranks []telemetry.RankTrace)
}

// Experiment regenerates one paper artifact.
type Experiment struct {
	ID    string
	Title string
	Run   func(Config) (*Table, error)
}

// Registry lists every reproducible artifact by id.
var Registry = []Experiment{
	{"fig3a", "Total size of unique content (Figure 3a)", Fig3a},
	{"fig3b", "HPCCG: overhead of collective hash reduction (Figure 3b)", Fig3b},
	{"fig3c", "CM1: overhead of collective hash reduction (Figure 3c)", Fig3c},
	{"table1", "Completion time with replication factor 3 (Table I)", Table1},
	{"fig4a", "HPCCG: increase in execution time vs replication factor (Figure 4a)", Fig4a},
	{"fig4b", "HPCCG: replicated data per process vs replication factor (Figure 4b)", Fig4b},
	{"fig4c", "HPCCG: impact of rank shuffling (Figure 4c)", Fig4c},
	{"fig5a", "CM1: increase in execution time vs replication factor (Figure 5a)", Fig5a},
	{"fig5b", "CM1: replicated data per process vs replication factor (Figure 5b)", Fig5b},
	{"fig5c", "CM1: impact of rank shuffling (Figure 5c)", Fig5c},
	// Beyond the paper: observability and ablations of the design choices.
	{"phases", "Per-phase timing breakdown of the dump pipeline (observability)", PhasesBreakdown},
	{"imbalance", "Cluster telemetry: cross-rank load imbalance, phase spread, stragglers (observability)", Imbalance},
	{"fragmentation", "Restore fragmentation: read amplification and locality vs duplication degree (observability)", Fragmentation},
	{"parallel", "Ablation: hot-path parallelism, serial vs GOMAXPROCS workers (beyond paper)", AblationParallel},
	{"ablation-shuffle", "Ablation: partner-selection strategies (beyond paper)", AblationShuffle},
	{"ablation-restore", "Ablation: restore cost vs node failures (beyond paper)", AblationRestore},
	{"ablation-pfs", "Ablation: PFS vs local-storage checkpointing (beyond paper)", AblationPFS},
}

// Lookup finds an experiment by id.
func Lookup(id string) (Experiment, bool) {
	for _, e := range Registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// IDs returns all experiment ids, sorted.
func IDs() []string {
	out := make([]string, len(Registry))
	for i, e := range Registry {
		out[i] = e.ID
	}
	sort.Strings(out)
	return out
}
