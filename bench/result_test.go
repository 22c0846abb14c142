package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func sampleResult() resultFile {
	w := workloads[1]
	return resultFile{
		Env:  environment{GoVersion: "go1.24.0", GOMAXPROCS: 2, NumCPU: 2, CPUModel: "cpu", Kernel: "6.1", TempFS: "ext4", GitCommit: "abc"},
		Seed: 5,
		Workloads: []workloadResult{{
			Workload: w, Samples: 40, Attempted: 328,
			EndToEnd: []metricValue{
				endToEndDefs[1].value(200, 0.01), // dump_mbps
				endToEndDefs[5].value(0.8345, 0), // net_bytes_per_logical_byte
				endToEndDefs[10].value(0, 0),     // failed_op_share
			},
			PerLayer:  []metricValue{perLayerDefs[0].value(1700, 0)},
			TraceFile: "trace-page-tcp-seg.json",
		}},
	}
}

func TestResultFileRoundTrip(t *testing.T) {
	want := sampleResult()
	path := filepath.Join(t.TempDir(), "r.json")
	if err := writeResultFile(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := readResultFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip changed the result:\n got %+v\nwant %+v", got, want)
	}
}

func TestCompareFiles(t *testing.T) {
	base := sampleResult()
	var out bytes.Buffer

	same := sampleResult()
	same.Workloads[0].EndToEnd[0].Value = 195 // -2.5 %, inside the bound
	if ok, err := compareFiles(&out, base, same); err != nil || !ok {
		t.Errorf("a change inside the bound must pass: ok=%v err=%v\n%s", ok, err, out.String())
	}

	slower := sampleResult()
	slower.Workloads[0].EndToEnd[0].Value = 150 // -25 %
	out.Reset()
	if ok, _ := compareFiles(&out, base, slower); ok || !strings.Contains(out.String(), string(verdictWorse)) {
		t.Errorf("a 25%% slower dump must be reported worse:\n%s", out.String())
	}

	moreBytes := sampleResult()
	moreBytes.Workloads[0].EndToEnd[1].Value = 0.85 // +1.9 %, outside 1 %
	if ok, _ := compareFiles(&out, base, moreBytes); ok {
		t.Error("a byte ratio that moved past its bound must fail")
	}

	noisy := sampleResult()
	noisy.Workloads[0].EndToEnd[0].Spread = 0.3
	out.Reset()
	if ok, _ := compareFiles(&out, base, noisy); ok || !strings.Contains(out.String(), string(verdictUnresolved)) {
		t.Errorf("a spread above the bound must be unresolved, not unchanged:\n%s", out.String())
	}

	failing := sampleResult()
	failing.Workloads[0].EndToEnd[2].Value = 0.01
	if ok, _ := compareFiles(&out, base, failing); ok {
		t.Error("any failed operation must fail the comparison")
	}
}

func TestCompareFilesRefusesDifferentConditions(t *testing.T) {
	base := sampleResult()
	var out bytes.Buffer
	seed := sampleResult()
	seed.Seed++
	procs := sampleResult()
	procs.Env.GOMAXPROCS = 8
	table := sampleResult()
	table.Workloads[0].Workload.PerRank /= 2
	fewer := sampleResult()
	fewer.Workloads = nil
	for name, other := range map[string]resultFile{"seed": seed, "GOMAXPROCS": procs, "workload table": table, "workload count": fewer} {
		if _, err := compareFiles(&out, base, other); err == nil {
			t.Errorf("files differing in %s were compared", name)
		}
	}
}

func TestFSTypeOf(t *testing.T) {
	mounts := "overlay / overlay rw 0 0\nproc /proc proc rw 0 0\ntmpfs /tmp tmpfs rw 0 0\n/dev/vda /root/repo ext4 rw 0 0\n"
	for path, want := range map[string]string{
		"/root/repo/.bench_build": "ext4",
		"/tmp/x":                  "tmpfs",
		"/tmpfile":                "overlay",
		"/":                       "overlay",
	} {
		if got := fsTypeOf(path, mounts); got != want {
			t.Errorf("fsTypeOf(%q) = %q, want %q", path, got, want)
		}
	}
}

// TestBenchmarkJSONMatchesTables pins BENCHMARK.json (at the repository
// root, read by the driver) to the tables in this package, so the two
// cannot drift apart.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the package: %v", err)
	}
	var decl struct {
		Paths     []string `json:"paths"`
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d in the table", len(decl.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if decl.Workloads[i].Name != w.Name || decl.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: declared %+v, table has %q: %q", i, decl.Workloads[i], w.Name, w.Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	// failed_op_share is carried as attempted/failed, not as a metric.
	if len(decl.EndToEnd) != len(endToEndDefs)-1 {
		t.Fatalf("%d end-to-end metrics declared, want %d", len(decl.EndToEnd), len(endToEndDefs)-1)
	}
	for i, m := range decl.EndToEnd {
		d := endToEndDefs[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end-to-end metric %d: declared %+v, table has %+v", i, m, d)
		}
	}
	if len(decl.PerLayer) != len(perLayerDefs) {
		t.Fatalf("%d per-layer metrics declared, want %d", len(decl.PerLayer), len(perLayerDefs))
	}
	for i, m := range decl.PerLayer {
		d := perLayerDefs[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer metric %d: declared %+v, table has %+v", i, m, d)
		}
	}
}
