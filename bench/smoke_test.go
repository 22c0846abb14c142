package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSmoke is the integration test: all four workloads at 1 MiB per
// rank, one timed iteration, verification iteration and traced run
// included, through the same run() as the command.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "r.json")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-smoke", "-seed", "11", "-dir", dir, "-out", out}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\nstderr:\n%s\nstdout:\n%s", code, stderr.String(), stdout.String())
	}
	rf, err := readResultFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if rf.Seed != 11 || rf.Env.GOMAXPROCS == 0 || rf.Env.GoVersion == "" {
		t.Errorf("result file lacks its seed or environment: %+v", rf)
	}
	if len(rf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the result, want %d", len(rf.Workloads), len(workloads))
	}
	for i, res := range rf.Workloads {
		name := workloads[i].Name
		if res.Workload.Name != name {
			t.Errorf("workload %d is %q, want %q", i, res.Workload.Name, name)
		}
		if res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: attempted %d, failed %d", name, res.Attempted, res.Failed)
		}
		checkMetrics(t, name, res.EndToEnd, endToEndDefs, stdout.String())
		checkMetrics(t, name, res.PerLayer, perLayerDefs, stdout.String())
		for _, m := range res.EndToEnd {
			// The contract wants end-to-end metrics that are never 0.
			if m.Value <= 0 && m.Name != "failed_op_share" {
				t.Errorf("%s: %s = %v, want above zero", name, m.Name, m.Value)
			}
		}
		checkTrace(t, res.TraceFile, res.Workload.N)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() {
			t.Errorf("scratch directory %s left behind", e.Name())
		}
	}
}

func checkMetrics(t *testing.T, workload string, got []metricValue, defs []metricDef, printed string) {
	t.Helper()
	if len(got) != len(defs) {
		t.Errorf("%s: %d metrics, want %d", workload, len(got), len(defs))
		return
	}
	for i, d := range defs {
		if got[i].Name != d.Name || got[i].Unit != d.Unit || got[i].Better != d.Better || got[i].Bound != d.Bound {
			t.Errorf("%s: metric %d is %+v, want %+v", workload, i, got[i], d)
		}
		if !strings.Contains(printed, d.Name) {
			t.Errorf("%s: metric %s is not printed by name", workload, d.Name)
		}
	}
}

// checkTrace validates the Chrome trace: complete events, one thread per
// rank, every span carrying id, parent, iteration, rank and layer, every
// parent resolving to a span of the same rank.
func checkTrace(t *testing.T, path string, ranks int) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Error(err)
		return
	}
	var trace struct {
		TraceEvents []struct {
			Name string
			Ph   string
			Dur  float64
			Tid  int
			Args map[string]any
		}
	}
	if err := json.Unmarshal(data, &trace); err != nil {
		t.Errorf("%s: %v", path, err)
		return
	}
	rankOf := make(map[float64]float64) // span id -> rank
	tids := make(map[int]bool)
	for _, e := range trace.TraceEvents {
		if e.Ph != "X" {
			continue
		}
		tids[e.Tid] = true
		if e.Dur < 0 {
			t.Errorf("%s: span %s has negative duration", path, e.Name)
		}
		for _, key := range []string{"id", "parent", "iter", "rank", "layer"} {
			if _, ok := e.Args[key]; !ok {
				t.Errorf("%s: span %s lacks %s", path, e.Name, key)
				return
			}
		}
		rankOf[e.Args["id"].(float64)] = e.Args["rank"].(float64)
	}
	if len(tids) != ranks {
		t.Errorf("%s: spans on %d threads, want one per rank (%d)", path, len(tids), ranks)
	}
	for _, e := range trace.TraceEvents {
		if e.Ph != "X" {
			continue
		}
		if parent := e.Args["parent"].(float64); parent != 0 {
			if r, ok := rankOf[parent]; !ok || r != e.Args["rank"].(float64) {
				t.Errorf("%s: span %s has a parent outside its rank", path, e.Name)
			}
		}
	}
}

// TestContractLine runs one workload the way the BENCHMARK.json driver
// does and checks the last line of standard output.
func TestContractLine(t *testing.T) {
	for _, traced := range []bool{false, true} {
		flag, defs := "0", endToEndDefs[:len(endToEndDefs)-1]
		if traced {
			flag, defs = "1", perLayerDefs
		}
		var stdout, stderr bytes.Buffer
		args := []string{"-smoke", "--workload", "page-tcp-seg", "--seed", "3", "--seconds", "0", "--trace", flag, "-dir", t.TempDir()}
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("trace %s: exit %d\n%s", flag, code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var result struct {
			Correct   *bool
			Attempted *int
			Failed    *int
			Metrics   map[string]struct {
				Value *float64
				Unit  string
			}
		}
		dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&result); err != nil {
			t.Fatalf("trace %s: last line is not the result object: %v\n%s", flag, err, lines[len(lines)-1])
		}
		if result.Correct == nil || !*result.Correct || result.Attempted == nil || *result.Attempted < 1 || result.Failed == nil || *result.Failed != 0 {
			t.Errorf("trace %s: bad verdict in %s", flag, lines[len(lines)-1])
		}
		if len(result.Metrics) != len(defs) {
			t.Errorf("trace %s: %d metrics, want %d", flag, len(result.Metrics), len(defs))
		}
		for _, d := range defs {
			m, ok := result.Metrics[d.Name]
			if !ok || m.Value == nil || m.Unit != d.Unit {
				t.Errorf("trace %s: metric %s missing or malformed: %+v", flag, d.Name, m)
			}
		}
	}
}

func TestUsageErrors(t *testing.T) {
	var sink bytes.Buffer
	for _, args := range [][]string{
		{"-workload", "no-such-workload"},
		{"-compare", "only-one.json"},
		{"stray-argument"},
		{"-no-such-flag"},
	} {
		if code := run(args, &sink, &sink); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}
	if code := run([]string{"-compare", "missing-a.json", "missing-b.json"}, &sink, &sink); code != 1 {
		t.Errorf("comparing missing files: exit %d, want 1", code)
	}
}
