package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"text/tabwriter"
)

// metricDef declares one metric: its unit, which direction is better and,
// for end-to-end metrics, the share of the baseline by which it may
// worsen before a change counts as a regression. Per-layer metrics carry
// no bound; they explain, they do not gate.
type metricDef struct {
	Name, Unit, Better string
	Bound              float64
}

func (d metricDef) value(v, spread float64) metricValue {
	return metricValue{Name: d.Name, Unit: d.Unit, Better: d.Better, Bound: d.Bound, Value: v, Spread: spread}
}

// endToEndDefs are the metrics an application blocked in DUMP_OUTPUT or
// Restore sees. The last one, failed_op_share, must be zero: the
// BENCHMARK.json contract carries it as attempted/failed instead of as a
// metric, because a bound is a share of the baseline and zero has none.
var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"dump_mbps", "MB/s", "higher", 0.15},
	{"dump_ms_p75", "ms", "lower", 0.20},
	{"restore_mbps", "MB/s", "higher", 0.15},
	{"restore_ms_p75", "ms", "lower", 0.20},
	{"net_bytes_per_logical_byte", "ratio", "lower", 0.01},
	{"stored_bytes_per_logical_byte", "ratio", "lower", 0.005},
	{"recv_imbalance", "ratio", "lower", 0.005},
	{"restore_net_bytes_per_logical_byte", "ratio", "lower", 0.03},
	{"dump_alloc_bytes_per_logical_byte", "ratio", "lower", 0.05},
	{"failed_op_share", "ratio", "lower", 0},
}

// perLayerDefs are the traced run's metrics, named layer.metric after the
// packages under internal/. A metric that does not apply to a workload's
// engine (the seg-only ones on in-memory stores) reads 0 there.
var perLayerDefs = []metricDef{
	{Name: "chunk.cuts_mbps", Unit: "MB/s", Better: "higher"},
	{Name: "chunk.fromcuts_mbps", Unit: "MB/s", Better: "higher"},
	{Name: "chunk.materialise_share", Unit: "ratio", Better: "lower"},
	{Name: "chunk.stream_mbps", Unit: "MB/s", Better: "higher"},
	{Name: "chunk.recipe_assemble_mbps", Unit: "MB/s", Better: "higher"},
	{Name: "chunk.chunks_per_rank", Unit: "count", Better: "lower"},

	{Name: "fingerprint.batchof_mbps", Unit: "MB/s", Better: "higher"},
	{Name: "fingerprint.local_table_ms", Unit: "ms", Better: "lower"},
	{Name: "fingerprint.merge_ms", Unit: "ms", Better: "lower"},
	{Name: "fingerprint.merge_allocs", Unit: "count", Better: "lower"},
	{Name: "fingerprint.table_marshal_ms", Unit: "ms", Better: "lower"},
	{Name: "fingerprint.table_unmarshal_ms", Unit: "ms", Better: "lower"},
	{Name: "fingerprint.table_wire_bytes", Unit: "bytes", Better: "lower"},
	{Name: "fingerprint.table_entries", Unit: "count", Better: "higher"},

	{Name: "collectives.allreduce_ms", Unit: "ms", Better: "lower"},
	{Name: "collectives.allreduce_merge_share", Unit: "ratio", Better: "lower"},
	{Name: "collectives.allgather_ms", Unit: "ms", Better: "lower"},
	{Name: "collectives.barrier_us", Unit: "us", Better: "lower"},
	{Name: "collectives.window_put_mbps", Unit: "MB/s", Better: "higher"},
	{Name: "collectives.put_us_p50", Unit: "us", Better: "lower"},
	{Name: "collectives.put_us_p99", Unit: "us", Better: "lower"},
	{Name: "collectives.msgs_per_dump", Unit: "count", Better: "lower"},
	{Name: "collectives.bytes_per_dump", Unit: "bytes", Better: "lower"},
	{Name: "collectives.coll_rounds_per_dump", Unit: "count", Better: "lower"},
	{Name: "collectives.coll_time_share", Unit: "ratio", Better: "lower"},

	{Name: "core.shuffle_us", Unit: "us", Better: "lower"},
	{Name: "core.plan_us", Unit: "us", Better: "lower"},
	{Name: "core.self_ms", Unit: "ms", Better: "lower"},
	{Name: "core.self_share", Unit: "ratio", Better: "lower"},
	{Name: "core.forget_ms", Unit: "ms", Better: "lower"},
	{Name: "core.nodedup_dump_mbps", Unit: "MB/s", Better: "higher"},
	{Name: "core.nodedup_net_bytes_per_logical_byte", Unit: "ratio", Better: "lower"},

	{Name: "storage.put_mbps", Unit: "MB/s", Better: "higher"},
	{Name: "storage.put_dup_kops", Unit: "kop/s", Better: "higher"},
	{Name: "storage.commit_ms", Unit: "ms", Better: "lower"},
	{Name: "storage.get_mbps", Unit: "MB/s", Better: "higher"},
	{Name: "storage.reopen_ms", Unit: "ms", Better: "lower"},
	{Name: "storage.disk_bytes_per_live_byte", Unit: "ratio", Better: "lower"},
	{Name: "storage.usage_bytes", Unit: "bytes", Better: "lower"},

	{Name: "fetch.chunk_rtt_us_p50", Unit: "us", Better: "lower"},
	{Name: "fetch.chunk_rtt_us_p99", Unit: "us", Better: "lower"},
	{Name: "fetch.chunk_mbps", Unit: "MB/s", Better: "higher"},
}

// metricValue is one measured metric as it is printed and stored.
type metricValue struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	Value  float64 `json:"value"`
	// Spread is the run's own estimate of how far the value moves between
	// runs (split-half, as a share of the value); 0 for counts.
	Spread float64 `json:"spread,omitempty"`
}

// workloadResult is everything one workload produced.
type workloadResult struct {
	Workload  workload      `json:"workload"`
	Samples   int           `json:"samples"` // timed iterations behind the medians
	Attempted int           `json:"attempted"`
	Failed    int           `json:"failed"`
	EndToEnd  []metricValue `json:"end_to_end,omitempty"`
	PerLayer  []metricValue `json:"per_layer,omitempty"`
	TraceFile string        `json:"trace_file,omitempty"`
}

// environment is what a number was measured on.
type environment struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	Kernel     string `json:"kernel"`
	TempFS     string `json:"temp_dir_fs"`
	GitCommit  string `json:"git_commit"`
}

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	Env       environment      `json:"environment"`
	Seed      int64            `json:"seed"`
	Workloads []workloadResult `json:"workloads"`
}

func writeResultFile(path string, rf resultFile) error {
	data, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResultFile(path string) (resultFile, error) {
	var rf resultFile
	data, err := os.ReadFile(path)
	if err != nil {
		return rf, err
	}
	if err := json.Unmarshal(data, &rf); err != nil {
		return rf, fmt.Errorf("%s: %w", path, err)
	}
	return rf, nil
}

// describeEnvironment fills in what it can find; anything it cannot reads
// "unknown".
func describeEnvironment(dir string) environment {
	env := environment{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   "unknown",
		Kernel:     "unknown",
		TempFS:     "unknown",
		GitCommit:  "unknown",
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, value, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "model name" {
				env.CPUModel = strings.TrimSpace(value)
				break
			}
		}
	}
	if data, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		env.Kernel = strings.TrimSpace(string(data))
	}
	if data, err := os.ReadFile("/proc/mounts"); err == nil {
		if abs, err := filepath.Abs(dir); err == nil {
			env.TempFS = fsTypeOf(abs, string(data))
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		env.GitCommit = strings.TrimSpace(string(out))
	}
	return env
}

// fsTypeOf returns the filesystem type of the mount that holds path,
// given the text of /proc/mounts: the longest mount point that is a
// prefix of path wins, later lines overriding earlier ones.
func fsTypeOf(path, mounts string) string {
	best, fs := -1, "unknown"
	for _, line := range strings.Split(mounts, "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if path == mp || mp == "/" || strings.HasPrefix(path, mp+"/") {
			if len(mp) >= best {
				best, fs = len(mp), f[2]
			}
		}
	}
	return fs
}

// printWorkload writes one workload's metrics by name, with unit,
// direction and bound.
func printWorkload(w io.Writer, res workloadResult) {
	wl := res.Workload
	fmt.Fprintf(w, "\n== %s: N=%d K=%d chunker=%s/%d per-rank=%d B mix=%v F=%d tcp=%v seg=%v parallelism=%d shuffle=%v wiped=%d\n",
		wl.Name, wl.N, wl.K, wl.Chunker, wl.Chunk, wl.PerRank, wl.Mix, wl.F, wl.TCP, wl.Seg, wl.Parallelism, wl.Shuffle, wl.W)
	fmt.Fprintf(w, "   samples=%d attempted=%d failed=%d\n", res.Samples, res.Attempted, res.Failed)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	if len(res.EndToEnd) > 0 {
		fmt.Fprintln(tw, "end-to-end metric\tvalue\tunit\tbetter\tbound\tsplit-half spread")
		for _, m := range res.EndToEnd {
			fmt.Fprintf(tw, "%s\t%.6g\t%s\t%s\t%.1f%%\t%.2f%%\n", m.Name, m.Value, m.Unit, m.Better, 100*m.Bound, 100*m.Spread)
		}
	}
	if len(res.PerLayer) > 0 {
		fmt.Fprintln(tw, "per-layer metric\tvalue\tunit\tbetter\t\t")
		for _, m := range res.PerLayer {
			fmt.Fprintf(tw, "%s\t%.6g\t%s\t%s\t\t\n", m.Name, m.Value, m.Unit, m.Better)
		}
	}
	tw.Flush()
	if res.TraceFile != "" {
		fmt.Fprintf(w, "   trace: %s\n", res.TraceFile)
	}
}

// compareFiles applies every end-to-end metric's direction and bound to
// two result files (a = baseline, b = candidate) and reports whether b is
// free of regressions. Files measured under different conditions are
// refused rather than compared.
func compareFiles(w io.Writer, a, b resultFile) (bool, error) {
	if a.Seed != b.Seed {
		return false, fmt.Errorf("seeds differ (%d vs %d)", a.Seed, b.Seed)
	}
	if a.Env.GOMAXPROCS != b.Env.GOMAXPROCS {
		return false, fmt.Errorf("GOMAXPROCS differs (%d vs %d)", a.Env.GOMAXPROCS, b.Env.GOMAXPROCS)
	}
	if len(a.Workloads) != len(b.Workloads) {
		return false, fmt.Errorf("workload tables differ (%d vs %d workloads)", len(a.Workloads), len(b.Workloads))
	}
	for i := range a.Workloads {
		if !reflect.DeepEqual(a.Workloads[i].Workload, b.Workloads[i].Workload) {
			return false, fmt.Errorf("workload tables differ at %q", a.Workloads[i].Workload.Name)
		}
	}
	ok := true
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbaseline\tcandidate\tchange\tbound\tverdict")
	for i, wa := range a.Workloads {
		wb := b.Workloads[i]
		candidate := make(map[string]metricValue, len(wb.EndToEnd))
		for _, m := range wb.EndToEnd {
			candidate[m.Name] = m
		}
		for _, ma := range wa.EndToEnd {
			mb, found := candidate[ma.Name]
			if !found {
				return false, fmt.Errorf("%s: candidate lacks metric %s", wa.Workload.Name, ma.Name)
			}
			spread := ma.Spread
			if mb.Spread > spread {
				spread = mb.Spread
			}
			v := compareBound(ma.Better, ma.Bound, ma.Value, mb.Value, spread)
			if v == verdictWorse || v == verdictUnresolved {
				ok = false
			}
			change := 0.0
			if ma.Value != 0 {
				change = 100 * (mb.Value - ma.Value) / ma.Value
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%+.2f%%\t%.1f%%\t%s\n",
				wa.Workload.Name, ma.Name, ma.Value, mb.Value, change, 100*ma.Bound, v)
		}
	}
	tw.Flush()
	return ok, nil
}
