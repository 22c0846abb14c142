package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"dedupcr/internal/collectives"
	"dedupcr/internal/fingerprint"
	"dedupcr/internal/metrics"
	"dedupcr/internal/obs"
	"dedupcr/internal/storage"
	"dedupcr/internal/telemetry"
)

// TestEndToEndMultiProcess builds the replicad binary and runs a real
// multi-process collective dump + restore over TCP sockets with
// disk-backed stores — the full deployment shape, one OS process per
// rank. One store is wiped between dump and restore to force remote
// recovery.
func TestEndToEndMultiProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process e2e test")
	}
	const n = 4
	dir := t.TempDir()
	bin := filepath.Join(dir, "replicad")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}

	// Reserve loopback ports, then free them for the daemons.
	addrs := make([]string, n)
	listeners := make([]net.Listener, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range listeners {
		ln.Close()
	}
	hosts := filepath.Join(dir, "hosts.txt")
	if err := os.WriteFile(hosts, []byte(strings.Join(addrs, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	runAll := func(verb string, extra ...string) []string {
		t.Helper()
		outputs := make([]string, n)
		errs := make([]error, n)
		var wg sync.WaitGroup
		for r := 0; r < n; r++ {
			wg.Add(1)
			go func(rank int) {
				defer wg.Done()
				args := []string{
					"-rank", fmt.Sprint(rank),
					"-hosts", hosts,
					"-store", filepath.Join(dir, fmt.Sprintf("node%d", rank)),
					"-k", "3",
					"-approach", "coll",
					"-chunk", "256",
					"-stats",
					"-trace", filepath.Join(dir, fmt.Sprintf("trace%d.json", rank)),
					"-cluster", filepath.Join(dir, "cluster.json"),
					verb,
				}
				args = append(args, extra...)
				cmd := exec.Command(bin, args...)
				out, err := cmd.CombinedOutput()
				outputs[rank] = string(out)
				errs[rank] = err
			}(r)
		}
		wg.Wait()
		for r, err := range errs {
			if err != nil {
				t.Fatalf("rank %d %s: %v\n%s", r, verb, err, outputs[r])
			}
		}
		return outputs
	}

	// Phase 1: collective dump of an HPCCG checkpoint (small grid), with
	// the observability surface on: per-phase line, Prometheus counters,
	// and a Chrome trace per rank.
	outs := runAll("dump", "-workload", "hpccg", "-steps", "2")
	for r, out := range outs {
		if !strings.Contains(out, "dumped") {
			t.Errorf("rank %d dump output: %q", r, out)
		}
		if !strings.Contains(out, "phases:") || !strings.Contains(out, "total=") {
			t.Errorf("rank %d dump output missing phase breakdown: %q", r, out)
		}
		if !strings.Contains(out, "dedupcr_phase_seconds") {
			t.Errorf("rank %d missing Prometheus phase metrics: %q", r, out)
		}
		if !strings.Contains(out, "dedupcr_comm_sent_bytes_total") {
			t.Errorf("rank %d missing Prometheus comm metrics: %q", r, out)
		}
		data, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("trace%d.json", r)))
		if err != nil {
			t.Errorf("rank %d trace file: %v", r, err)
		} else if !strings.Contains(string(data), `"traceEvents"`) {
			t.Errorf("rank %d trace file lacks traceEvents: %.80s", r, data)
		}
	}
	// Rank 0 gathered the whole group's metrics in-band: the cluster
	// table on stderr, the dedupcr_cluster_* families, and the JSON file.
	if !strings.Contains(outs[0], "cluster dump: 4 ranks") {
		t.Errorf("rank 0 missing cluster table:\n%s", outs[0])
	}
	if !strings.Contains(outs[0], "dedupcr_cluster_ranks 4") {
		t.Errorf("rank 0 missing cluster exposition:\n%s", outs[0])
	}
	var cd telemetry.ClusterDump
	cj, err := os.ReadFile(filepath.Join(dir, "cluster.json"))
	if err != nil {
		t.Fatalf("cluster JSON: %v", err)
	}
	if err := json.Unmarshal(cj, &cd); err != nil {
		t.Fatalf("cluster JSON: %v\n%s", err, cj)
	}
	if cd.Ranks != n || len(cd.PerRank) != n {
		t.Errorf("cluster JSON has %d ranks / %d summaries, want %d", cd.Ranks, len(cd.PerRank), n)
	}
	if cd.Phase("total").Max <= 0 {
		t.Errorf("cluster JSON total spread empty: %+v", cd.Phase("total"))
	}

	// Phase 2: restore with intact stores.
	outs = runAll("restore")
	for r, out := range outs {
		if !strings.Contains(out, "restored") {
			t.Errorf("rank %d restore output: %q", r, out)
		}
	}

	// Phase 3: wipe node 2's store entirely (node replacement) and
	// restore again — chunks must come over the sockets.
	if err := os.RemoveAll(filepath.Join(dir, "node2")); err != nil {
		t.Fatal(err)
	}
	outs = runAll("restore")
	for r, out := range outs {
		if !strings.Contains(out, "restored") {
			t.Errorf("rank %d post-failure restore output: %q", r, out)
		}
	}
}

// TestClusterEndpoints exercises the rank-0 telemetry HTTP surface:
// /cluster serves the latest gathered ClusterDump as JSON (503 before the
// first dump completes), /cluster/metrics serves the dedupcr_cluster_*
// Prometheus families in strict exposition format.
func TestClusterEndpoints(t *testing.T) {
	registerClusterHandlers()
	srv := httptest.NewServer(http.DefaultServeMux)
	defer srv.Close()

	get := func(path string) (int, []byte) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s body: %v", path, err)
		}
		return resp.StatusCode, body
	}

	if code, _ := get("/cluster"); code != http.StatusServiceUnavailable {
		t.Errorf("/cluster before any dump: status %d, want 503", code)
	}
	if code, _ := get("/cluster/metrics"); code != http.StatusServiceUnavailable {
		t.Errorf("/cluster/metrics before any dump: status %d, want 503", code)
	}

	// Publish a gathered dump the way doDump does on rank 0.
	dumps := make([]metrics.Dump, 3)
	for r := range dumps {
		dumps[r] = metrics.Dump{Rank: r, SentBytes: int64(1000 * (r + 1)), StoredBytes: 4096}
		dumps[r].Phases.Put = time.Duration(r+1) * 10 * time.Millisecond
		dumps[r].Phases.Total = time.Duration(r+1) * 12 * time.Millisecond
		dumps[r].BarrierExit = time.Unix(1700000000, int64(r)*1000)
	}
	cd, err := telemetry.Aggregate(dumps)
	if err != nil {
		t.Fatal(err)
	}
	liveCluster.Store(cd)

	code, body := get("/cluster")
	if code != http.StatusOK {
		t.Fatalf("/cluster: status %d\n%s", code, body)
	}
	var got telemetry.ClusterDump
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatalf("/cluster JSON: %v\n%s", err, body)
	}
	if got.Ranks != 3 || got.TotalSentBytes != 6000 {
		t.Errorf("/cluster served Ranks=%d TotalSentBytes=%d, want 3/6000", got.Ranks, got.TotalSentBytes)
	}

	code, body = get("/cluster/metrics")
	if code != http.StatusOK {
		t.Fatalf("/cluster/metrics: status %d\n%s", code, body)
	}
	if err := metrics.CheckExposition(bytes.NewReader(body)); err != nil {
		t.Errorf("/cluster/metrics exposition: %v\n%s", err, body)
	}
	if !strings.Contains(string(body), "dedupcr_cluster_ranks 3") {
		t.Errorf("/cluster/metrics missing rank count:\n%s", body)
	}
}

func TestReadHosts(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "hosts")
	content := "# comment\n127.0.0.1:9001\n\n127.0.0.1:9002\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	addrs, err := readHosts(path)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"127.0.0.1:9001", "127.0.0.1:9002"}
	if len(addrs) != len(want) {
		t.Fatalf("got %v", addrs)
	}
	for i := range want {
		if addrs[i] != want[i] {
			t.Fatalf("got %v, want %v", addrs, want)
		}
	}
	if _, err := readHosts(filepath.Join(dir, "empty")); err == nil {
		t.Fatal("missing file accepted")
	}
	if err := os.WriteFile(path, []byte("# only comments\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readHosts(path); err == nil {
		t.Fatal("empty host list accepted")
	}
}

// TestStoreStatsExposition: the store latency families replicad prints
// pass the exposition check, and the read family counts every chunk and
// blob read once.
func TestStoreStatsExposition(t *testing.T) {
	ts := storage.NewTimed(storage.NewMem())
	fp := fingerprint.Of([]byte("chunk"))
	if err := ts.PutChunk(fp, []byte("chunk")); err != nil {
		t.Fatal(err)
	}
	if err := ts.PutBlob("meta", []byte("blob")); err != nil {
		t.Fatal(err)
	}
	ts.GetChunk(fp)
	ts.GetChunkSum(fp)
	ts.GetBlob("meta")
	var buf bytes.Buffer
	writeStoreStats(&buf, 1, ts)
	if err := metrics.CheckExposition(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("store stats exposition: %v\n%s", err, buf.String())
	}
	for _, want := range []string{
		`dedupcr_store_read_latency_seconds_count{rank="1"} 3`,
		`dedupcr_store_write_latency_seconds_count{rank="1"} 2`,
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("store stats lack %q:\n%s", want, buf.String())
		}
	}
}

// TestStatsExpositionGolden pins the -stats families replicad writes
// itself: the transport counters of a literal Stats with per-peer rows,
// and the trace ring's dropped counter.
func TestStatsExpositionGolden(t *testing.T) {
	var buf bytes.Buffer
	writeCommStats(&buf, 3, collectives.Stats{
		BytesSent: 4096, BytesRecv: 2048, MsgsSent: 12, MsgsRecv: 9,
		CollOps: 5, CollRounds: 11, CollTime: 1500*time.Millisecond + 250*time.Microsecond,
		Peers: []collectives.PeerStats{
			{BytesSent: 1000, MsgsSent: 3, BytesRecv: 500, MsgsRecv: 2},
			{},
			{BytesSent: 0, MsgsSent: 1},
			{BytesRecv: 1548, MsgsRecv: 7},
		},
	})
	tr := obs.New(traceRingSize)
	tr.Track(1, 3, "rank 3").Instant("x")
	writeTraceStats(&buf, 3, tr)
	if err := metrics.CheckExposition(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, buf.String())
	}
	want := `# HELP dedupcr_comm_sent_bytes_total Transport bytes this rank sent.
# TYPE dedupcr_comm_sent_bytes_total counter
dedupcr_comm_sent_bytes_total{rank="3"} 4096
# HELP dedupcr_comm_recv_bytes_total Transport bytes this rank received.
# TYPE dedupcr_comm_recv_bytes_total counter
dedupcr_comm_recv_bytes_total{rank="3"} 2048
# HELP dedupcr_comm_sent_msgs_total Transport messages this rank sent.
# TYPE dedupcr_comm_sent_msgs_total counter
dedupcr_comm_sent_msgs_total{rank="3"} 12
# HELP dedupcr_comm_recv_msgs_total Transport messages this rank received.
# TYPE dedupcr_comm_recv_msgs_total counter
dedupcr_comm_recv_msgs_total{rank="3"} 9
# HELP dedupcr_comm_collective_ops_total Collective calls this rank entered.
# TYPE dedupcr_comm_collective_ops_total counter
dedupcr_comm_collective_ops_total{rank="3"} 5
# HELP dedupcr_comm_collective_rounds_total Collective rounds this rank ran.
# TYPE dedupcr_comm_collective_rounds_total counter
dedupcr_comm_collective_rounds_total{rank="3"} 11
# HELP dedupcr_comm_collective_seconds_total Wall time this rank spent inside collectives.
# TYPE dedupcr_comm_collective_seconds_total counter
dedupcr_comm_collective_seconds_total{rank="3"} 1.5002499999999999
# HELP dedupcr_comm_peer_sent_bytes_total Transport bytes this rank sent to one peer.
# TYPE dedupcr_comm_peer_sent_bytes_total counter
dedupcr_comm_peer_sent_bytes_total{rank="3",peer="0"} 1000
dedupcr_comm_peer_sent_bytes_total{rank="3",peer="2"} 0
# HELP dedupcr_comm_peer_recv_bytes_total Transport bytes this rank received from one peer.
# TYPE dedupcr_comm_peer_recv_bytes_total counter
dedupcr_comm_peer_recv_bytes_total{rank="3",peer="0"} 500
dedupcr_comm_peer_recv_bytes_total{rank="3",peer="3"} 1548
# HELP dedupcr_trace_dropped_total Trace events overwritten by ring wrap.
# TYPE dedupcr_trace_dropped_total counter
dedupcr_trace_dropped_total{rank="3"} 0
`
	if got := buf.String(); got != want {
		t.Errorf("stats exposition differs from the golden string\n--- got\n%s--- want\n%s", got, want)
	}
}
