// Command replicad runs one rank of a real multi-process collective dump
// over TCP sockets — the deployment mode where every rank is its own OS
// process (possibly on different machines) with a disk-backed local
// store, exercising the exact code path an MPI job would.
//
// Start N processes with the same host file (one "host:port" per line,
// line i = rank i) and the same options:
//
//	replicad -rank 0 -hosts hosts.txt -store /tmp/node0 -k 3 dump -workload hpccg
//	replicad -rank 1 -hosts hosts.txt -store /tmp/node1 -k 3 dump -workload hpccg
//	...
//	replicad -rank 0 -hosts hosts.txt -store /tmp/node0 restore -out ck.bin
//
// The dump verb either checkpoints a generated workload (-workload
// hpccg|cm1) or dumps a file (-in path); restore reassembles the dataset
// (pulling remotely replicated chunks if the local store was wiped).
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	_ "net/http/pprof"
	"os"
	"strconv"
	"strings"
	"sync/atomic"

	"dedupcr/internal/apps/cm1"
	"dedupcr/internal/apps/hpccg"
	"dedupcr/internal/chunk"
	"dedupcr/internal/collectives"
	"dedupcr/internal/core"
	"dedupcr/internal/metrics"
	"dedupcr/internal/obs"
	"dedupcr/internal/storage"
	"dedupcr/internal/telemetry"
)

// liveCluster, liveRestore and liveStore hold the latest in-band
// ClusterDump / ClusterRestore / ClusterStore for the HTTP endpoints.
// Only rank 0 ever publishes (the gathers deliver there); other ranks'
// endpoints stay 503.
var (
	liveCluster atomic.Pointer[telemetry.ClusterDump]
	liveRestore atomic.Pointer[telemetry.ClusterRestore]
	liveStore   atomic.Pointer[telemetry.ClusterStore]
)

// registerClusterHandlers wires the cluster telemetry endpoints onto the
// default mux (served by the -pprof debug address): /cluster and
// /restore return the latest ClusterDump / ClusterRestore as JSON,
// /cluster/metrics and /restore/metrics as Prometheus expositions of
// the dedupcr_cluster_* and dedupcr_cluster_restore_* families.
func registerClusterHandlers() {
	http.HandleFunc("/cluster", func(w http.ResponseWriter, r *http.Request) {
		cd := liveCluster.Load()
		if cd == nil {
			http.Error(w, "no cluster dump gathered yet (rank 0 only)", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(cd)
	})
	http.HandleFunc("/cluster/metrics", func(w http.ResponseWriter, r *http.Request) {
		cd := liveCluster.Load()
		if cd == nil {
			http.Error(w, "no cluster dump gathered yet (rank 0 only)", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		cd.WritePrometheus(w)
	})
	http.HandleFunc("/restore", func(w http.ResponseWriter, r *http.Request) {
		cr := liveRestore.Load()
		if cr == nil {
			http.Error(w, "no cluster restore gathered yet (rank 0 only)", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(cr)
	})
	http.HandleFunc("/restore/metrics", func(w http.ResponseWriter, r *http.Request) {
		cr := liveRestore.Load()
		if cr == nil {
			http.Error(w, "no cluster restore gathered yet (rank 0 only)", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		cr.WritePrometheus(w)
	})
	http.HandleFunc("/store", func(w http.ResponseWriter, r *http.Request) {
		cs := liveStore.Load()
		if cs == nil {
			http.Error(w, "no cluster store stats gathered yet (rank 0 only)", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(cs)
	})
	http.HandleFunc("/store/metrics", func(w http.ResponseWriter, r *http.Request) {
		cs := liveStore.Load()
		if cs == nil {
			http.Error(w, "no cluster store stats gathered yet (rank 0 only)", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		cs.WritePrometheus(w)
	})
}

// registerFlightHandlers wires the flight-recorder endpoints onto the
// default mux: /debug/flight streams the ring's committed window as
// JSONL (?n=N limits to the last N events), /debug/bundle triggers a
// post-mortem bundle on demand and reports its path.
func registerFlightHandlers(rank int) {
	http.HandleFunc("/debug/flight", func(w http.ResponseWriter, r *http.Request) {
		rec := obs.Default()
		evs := rec.Events()
		if nStr := r.URL.Query().Get("n"); nStr != "" {
			if n, err := strconv.Atoi(nStr); err == nil && n >= 0 {
				evs = rec.Tail(n)
			}
		}
		w.Header().Set("Content-Type", "application/jsonl")
		w.Header().Set("X-Dedupcr-Obs-Dropped", fmt.Sprint(rec.Dropped()))
		enc := json.NewEncoder(w)
		for _, e := range evs {
			enc.Encode(e)
		}
	})
	http.HandleFunc("/debug/bundle", func(w http.ResponseWriter, r *http.Request) {
		path, ok := obs.Trigger(obs.Failure{
			Kind:  "manual",
			Rank:  rank,
			Cause: "requested via /debug/bundle",
		})
		if !ok {
			http.Error(w, "bundle not written (no -bundle-dir configured, or a bundle was written within the last second)",
				http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, path)
	})
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "replicad: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	rank := flag.Int("rank", -1, "this process's rank")
	hosts := flag.String("hosts", "", "host file: one host:port per line, line i = rank i")
	storeDir := flag.String("store", "", "local store directory (default: in-memory)")
	engine := flag.String("engine", "auto", "store engine: auto | mem | seg (auto = seg when -store is set, mem otherwise)")
	k := flag.Int("k", 3, "replication factor")
	approach := flag.String("approach", "coll", "no | local | coll")
	name := flag.String("name", "ckpt", "dataset name")
	chunkSize := flag.Int("chunk", 4096, "chunk size in bytes (target average for gear; all ranks must agree)")
	chunker := flag.String("chunker", "fixed", "chunking algorithm: fixed or gear (all ranks must agree)")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof plus the /cluster and /restore telemetry endpoints (JSON and /metrics) on this address (e.g. localhost:6060)")
	traceOut := flag.String("trace", "", "write a Chrome trace-event JSON of this rank's run to this file")
	wireTrace := flag.Bool("wire-trace", false, "with -trace: stamp outgoing frames with trace context and draw causal send->recv flow arrows (all ranks must agree)")
	jobID := flag.Uint64("job", 0, "wire-trace job id stamped into frame trace contexts (0 = derived from the dataset name; all ranks must agree)")
	bundleDir := flag.String("bundle-dir", os.Getenv("DEDUPCR_BUNDLE_DIR"), "write post-mortem failure bundles under this directory (default $DEDUPCR_BUNDLE_DIR; empty disables)")
	stats := flag.Bool("stats", false, "dump Prometheus-style counters to stderr on exit")
	clusterOut := flag.String("cluster", "", "rank 0: write the gathered cluster telemetry JSON (ClusterDump for dump, ClusterRestore for restore) to this file")
	timeout := flag.Duration("timeout", 0, "abort the collective operation after this long (0 = no deadline); on expiry every rank unblocks with a collective error")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: replicad -rank R -hosts FILE [flags] dump|restore [verb flags]\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if *rank < 0 || *hosts == "" || flag.NArg() < 1 {
		flag.Usage()
		os.Exit(2)
	}

	addrs, err := readHosts(*hosts)
	if err != nil {
		return err
	}
	if *rank >= len(addrs) {
		return fmt.Errorf("rank %d out of range for %d hosts", *rank, len(addrs))
	}

	if *bundleDir != "" {
		obs.SetBundleDir(*bundleDir)
	}
	// Post-mortem bundles attach the transport and store state alongside
	// the flight-recorder events; the closures read whatever is current
	// at trigger time.
	var bundleComm collectives.Comm
	obs.RegisterSnapshot("comm-stats", func() any {
		if bundleComm == nil {
			return nil
		}
		return bundleComm.Stats()
	})
	var bundleStore storage.Store
	obs.RegisterSnapshot("store-stats", func() any {
		if bundleStore == nil {
			return nil
		}
		ss, ok := storage.SegStatsOf(bundleStore)
		if !ok {
			return nil
		}
		return ss
	})

	if *pprofAddr != "" {
		registerClusterHandlers()
		registerFlightHandlers(*rank)
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "replicad: pprof: %v\n", err)
			}
		}()
	}

	var store storage.Store
	eng := *engine
	if eng == "auto" {
		if *storeDir != "" {
			eng = "seg"
		} else {
			eng = "mem"
		}
	}
	switch eng {
	case "mem":
		store = storage.NewMem()
	case "seg":
		if *storeDir == "" {
			return fmt.Errorf("-engine seg needs -store DIR")
		}
		seg, serr := storage.NewSegStore(*storeDir, storage.SegConfig{AutoCompact: true})
		if serr != nil {
			return serr
		}
		// Close seals and commits whatever the run left uncommitted and
		// stops the background compactor before the process exits.
		defer seg.Close()
		store = seg
	default:
		return fmt.Errorf("unknown engine %q (want auto, mem or seg)", *engine)
	}
	// With -stats, every store operation's latency is histogrammed so the
	// exit dump can report device-side quantiles next to the phase times.
	var timed *storage.Timed
	if *stats {
		timed = storage.NewTimed(store)
		store = timed
	}
	bundleStore = store

	var tr *obs.Recorder
	var rec *obs.Track
	if *traceOut != "" {
		tr = obs.New(traceRingSize)
		tr.NamePid(1, "replicad")
		rec = tr.Track(1, *rank, fmt.Sprintf("rank %d", *rank))
	}

	comm, err := collectives.DialTCP(*rank, addrs)
	if err != nil {
		return err
	}
	defer comm.Close()
	bundleComm = comm
	if *wireTrace {
		if rec == nil {
			return fmt.Errorf("-wire-trace needs -trace FILE (the flow arrows land in the Chrome trace)")
		}
		id := *jobID
		if id == 0 {
			h := fnv.New64a()
			h.Write([]byte(*name))
			id = h.Sum64()
		}
		comm.EnableWireTrace(id, 0, rec)
	}

	var ap core.Approach
	switch *approach {
	case "no":
		ap = core.NoDedup
	case "local":
		ap = core.LocalDedup
	case "coll":
		ap = core.CollDedup
	default:
		return fmt.Errorf("unknown approach %q", *approach)
	}
	algo, err := chunk.ParseAlgo(*chunker)
	if err != nil {
		return err
	}
	opts := core.Options{
		K: *k, Approach: ap, Chunker: chunk.Spec{Algo: algo, Size: *chunkSize},
		Name: *name, Trace: rec,
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	verb := flag.Arg(0)
	verbArgs := flag.Args()[1:]
	switch verb {
	case "dump":
		err = doDump(ctx, comm, store, opts, verbArgs, dumpOutputs{
			stats:      *stats,
			clusterOut: *clusterOut,
		})
	case "restore":
		err = doRestore(ctx, comm, store, *name, verbArgs, rec, restoreOutputs{
			stats:      *stats,
			clusterOut: *clusterOut,
		})
	default:
		return fmt.Errorf("unknown verb %q (want dump or restore)", verb)
	}
	if err != nil {
		return err
	}
	if *stats {
		writeCommStats(os.Stderr, *rank, comm.Stats())
		writeStoreStats(os.Stderr, *rank, timed)
		if ss, ok := storage.SegStatsOf(store); ok {
			ss.Rank = *rank
			ss.WritePrometheus(os.Stderr)
		}
		obs.Default().WritePrometheus(os.Stderr, *rank)
		writeTraceStats(os.Stderr, *rank, tr)
	}
	if tr != nil {
		if err := tr.WriteFile(*traceOut); err != nil {
			return fmt.Errorf("write trace: %w", err)
		}
		fmt.Fprintf(os.Stderr, "replicad: wrote %d trace events to %s (%d dropped)\n", len(tr.Events()), *traceOut, tr.Dropped())
	}
	return nil
}

// traceRingSize is the -trace ring capacity: 2^20 events (8 MiB of slot
// pointers) on one rank's track. Wire-trace flows scale with frames, not
// chunks: over four loopback ranks with 256 B chunks, a wire-traced dump
// of 16 MiB per rank, or its restore onto a wiped rank, records under 200
// events per rank.
const traceRingSize = 1 << 20

// writeTraceStats emits the trace ring's health counter. A non-zero drop
// count means the exported trace lost its oldest events to ring wrap.
func writeTraceStats(w io.Writer, rank int, tr *obs.Recorder) {
	if tr == nil {
		return
	}
	metrics.RankWriter(w, rank).Counter("dedupcr_trace_dropped_total",
		"Trace events overwritten by ring wrap.", tr.Dropped())
}

// writeCommStats emits the transport counters in Prometheus exposition
// format, per-peer counters included.
func writeCommStats(w io.Writer, rank int, s collectives.Stats) {
	p := metrics.RankWriter(w, rank)
	p.Counter("dedupcr_comm_sent_bytes_total", "Transport bytes this rank sent.", s.BytesSent)
	p.Counter("dedupcr_comm_recv_bytes_total", "Transport bytes this rank received.", s.BytesRecv)
	p.Counter("dedupcr_comm_sent_msgs_total", "Transport messages this rank sent.", s.MsgsSent)
	p.Counter("dedupcr_comm_recv_msgs_total", "Transport messages this rank received.", s.MsgsRecv)
	p.Counter("dedupcr_comm_collective_ops_total", "Collective calls this rank entered.", s.CollOps)
	p.Counter("dedupcr_comm_collective_rounds_total", "Collective rounds this rank ran.", s.CollRounds)
	// %g rather than the writer's %.9f: scrapers already parse this family's format.
	p.Counter("dedupcr_comm_collective_seconds_total", "Wall time this rank spent inside collectives.",
		fmt.Sprintf("%g", s.CollTime.Seconds()))
	if len(s.Peers) == 0 {
		return
	}
	const sent, recv = "dedupcr_comm_peer_sent_bytes_total", "dedupcr_comm_peer_recv_bytes_total"
	p.Family(sent, "counter", "Transport bytes this rank sent to one peer.")
	for i, ps := range s.Peers {
		if ps.BytesSent != 0 || ps.MsgsSent != 0 {
			p.Sample(sent, fmt.Sprintf(`peer="%d"`, i), ps.BytesSent)
		}
	}
	p.Family(recv, "counter", "Transport bytes this rank received from one peer.")
	for i, ps := range s.Peers {
		if ps.BytesRecv != 0 || ps.MsgsRecv != 0 {
			p.Sample(recv, fmt.Sprintf(`peer="%d"`, i), ps.BytesRecv)
		}
	}
}

// writeStoreStats emits store read/write latency histograms on the
// shared metrics.LatencyBuckets ladder (aggregable across ranks).
func writeStoreStats(w io.Writer, rank int, t *storage.Timed) {
	if t == nil {
		return
	}
	p := metrics.RankWriter(w, rank)
	p.Latency("dedupcr_store_read_latency_seconds", "Local store read latency.", t.ReadLatency())
	p.Latency("dedupcr_store_write_latency_seconds", "Local store write latency.", t.WriteLatency())
}

// dumpOutputs bundles doDump's reporting knobs.
type dumpOutputs struct {
	stats      bool
	clusterOut string
}

func doDump(ctx context.Context, comm collectives.Comm, store storage.Store, opts core.Options, args []string, out dumpOutputs) error {
	fs := flag.NewFlagSet("dump", flag.ExitOnError)
	workload := fs.String("workload", "", "generate a workload checkpoint: hpccg | cm1")
	in := fs.String("in", "", "dump this file instead of a generated workload")
	steps := fs.Int("steps", 8, "solver steps before the checkpoint")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var buf []byte
	switch {
	case *in != "":
		data, err := os.ReadFile(*in)
		if err != nil {
			return err
		}
		buf = data
	case *workload == "hpccg":
		app := hpccg.New(comm.Rank(), comm.Size(), hpccg.Config{})
		for i := 0; i < *steps; i++ {
			app.Step()
		}
		buf = app.CheckpointImage()
	case *workload == "cm1":
		app := cm1.New(comm.Rank(), comm.Size(), cm1.Config{})
		for i := 0; i < *steps; i++ {
			app.Step()
		}
		buf = app.CheckpointImage()
	default:
		return fmt.Errorf("dump needs -workload hpccg|cm1 or -in FILE")
	}

	res, err := core.DumpOutputCtx(ctx, comm, store, buf, opts)
	if err != nil {
		return err
	}
	m := res.Metrics
	fmt.Printf("rank %d: dumped %d bytes (%d chunks, %d locally unique); stored %d, sent %d, received %d\n",
		comm.Rank(), m.DatasetBytes, m.TotalChunks, m.LocalUniqueChunks,
		m.StoredBytes, m.SentBytes, m.RecvBytes)
	fmt.Printf("rank %d: phases:", comm.Rank())
	for _, name := range metrics.PhaseNames {
		if d := m.Phases.ByName(name); d > 0 {
			fmt.Printf(" %s=%s", name, metrics.Duration(d))
		}
	}
	fmt.Printf(" total=%s\n", metrics.Duration(m.Phases.Total))
	if out.stats {
		m.WritePrometheus(os.Stderr)
	}

	// Gather the whole group's metrics to rank 0 in-band. Every rank
	// enters the collective unconditionally (the flags may differ per
	// invocation; a one-sided gather would hang), rank 0 publishes.
	cd, err := telemetry.GatherCluster(comm, m)
	if err != nil {
		return err
	}
	if cd != nil {
		liveCluster.Store(cd)
		if out.stats {
			fmt.Fprintln(os.Stderr)
			cd.WriteText(os.Stderr)
			cd.WritePrometheus(os.Stderr)
		}
		if out.clusterOut != "" {
			data, err := json.MarshalIndent(cd, "", "  ")
			if err == nil {
				err = os.WriteFile(out.clusterOut, data, 0o644)
			}
			if err != nil {
				return fmt.Errorf("write cluster dump: %w", err)
			}
			fmt.Printf("rank 0: wrote cluster dump of %d ranks to %s\n", cd.Ranks, out.clusterOut)
		}
	}

	// Gather the storage-plane view the same way. Every rank enters
	// unconditionally — ranks on non-segment engines contribute the zero
	// snapshot (SegStatsOf reports ok=false), so mixed-engine groups
	// still converge.
	ss, _ := storage.SegStatsOf(store)
	ss.Rank = comm.Rank()
	cs, err := telemetry.GatherClusterStore(comm, ss)
	if err != nil {
		return err
	}
	if cs != nil {
		liveStore.Store(cs)
		if out.stats && cs.Total.Segments > 0 {
			fmt.Fprintln(os.Stderr)
			cs.WriteText(os.Stderr)
			cs.WritePrometheus(os.Stderr)
		}
	}
	return nil
}

// restoreOutputs bundles doRestore's reporting knobs.
type restoreOutputs struct {
	stats      bool
	clusterOut string
}

func doRestore(ctx context.Context, comm collectives.Comm, store storage.Store, name string, args []string, rec *obs.Track, out restoreOutputs) error {
	fs := flag.NewFlagSet("restore", flag.ExitOnError)
	outFile := fs.String("out", "", "write the restored dataset to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	res, err := core.RestoreOutputCtx(ctx, comm, store, name, rec)
	if err != nil {
		return err
	}
	m := res.Metrics
	fmt.Printf("rank %d: restored %d bytes of %q (%d chunks: %d local, %d fetched from %d peers; read amp %.3fx)\n",
		comm.Rank(), m.LogicalBytes, name, m.TotalChunks, m.LocalChunks,
		m.FetchedChunks, m.SourceRanks, m.ReadAmplificationBytes())
	fmt.Printf("rank %d: phases:", comm.Rank())
	for _, pn := range metrics.RestorePhaseNames {
		if d := m.Phases.ByName(pn); d > 0 {
			fmt.Printf(" %s=%s", pn, metrics.Duration(d))
		}
	}
	fmt.Printf(" total=%s\n", metrics.Duration(m.Phases.Total))
	if out.stats {
		m.WritePrometheus(os.Stderr)
	}

	// Gather the whole group's restore metrics to rank 0 in-band. As in
	// doDump, every rank enters the collective unconditionally (a
	// one-sided gather would hang), rank 0 publishes.
	cr, err := telemetry.GatherClusterRestore(comm, m)
	if err != nil {
		return err
	}
	if cr != nil {
		liveRestore.Store(cr)
		if out.stats {
			fmt.Fprintln(os.Stderr)
			cr.WriteText(os.Stderr)
			cr.WritePrometheus(os.Stderr)
		}
		if out.clusterOut != "" {
			data, err := json.MarshalIndent(cr, "", "  ")
			if err == nil {
				err = os.WriteFile(out.clusterOut, data, 0o644)
			}
			if err != nil {
				return fmt.Errorf("write cluster restore: %w", err)
			}
			fmt.Printf("rank 0: wrote cluster restore of %d ranks to %s\n", cr.Ranks, out.clusterOut)
		}
	}
	if *outFile != "" {
		return os.WriteFile(*outFile, res.Data, 0o644)
	}
	return nil
}

func readHosts(path string) ([]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var addrs []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		addrs = append(addrs, line)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(addrs) == 0 {
		return nil, fmt.Errorf("host file %s is empty", path)
	}
	return addrs, nil
}
