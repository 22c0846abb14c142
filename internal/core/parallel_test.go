package core

import (
	"bytes"
	"reflect"
	"sync"
	"testing"

	"dedupcr/internal/chunk"
	"dedupcr/internal/collectives"
	"dedupcr/internal/storage"
)

// dumpRun is one collective dump of the standard test workload with
// everything the parallel-vs-serial comparisons need: per-rank results,
// the transport stats snapshot taken right after the dump, the cluster
// and the original buffers.
type dumpRun struct {
	cluster *storage.Cluster
	results []*Result
	stats   []collectives.Stats
	buffers [][]byte
}

// runDumpWithStats executes one collective dump with the given options on
// a fresh in-proc group and cluster, capturing each rank's transport
// stats at completion.
func runDumpWithStats(t *testing.T, n int, o Options) dumpRun {
	t.Helper()
	run := dumpRun{
		cluster: storage.NewCluster(n),
		results: make([]*Result, n),
		stats:   make([]collectives.Stats, n),
		buffers: make([][]byte, n),
	}
	var mu sync.Mutex
	err := collectives.Run(n, func(c collectives.Comm) error {
		buf := testBuffer(c.Rank(), 6, 4, 3, 2+c.Rank()%3)
		res, err := DumpOutput(c, run.cluster.Node(c.Rank()), buf, o)
		if err != nil {
			return err
		}
		mu.Lock()
		run.results[c.Rank()] = res
		run.stats[c.Rank()] = c.Stats()
		run.buffers[c.Rank()] = buf
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return run
}

// TestParallelDumpDeterminism is the tentpole guarantee: a dump with
// Parallelism > 1 must be byte-identical to the serial reference — same
// fingerprint counts, same replica placement (per-peer byte traffic),
// same per-node storage and the same restored bytes — for every
// approach.
func TestParallelDumpDeterminism(t *testing.T) {
	const n = 8
	for _, approach := range []Approach{NoDedup, LocalDedup, CollDedup} {
		approach := approach
		t.Run(approach.String(), func(t *testing.T) {
			base := Options{K: 3, Approach: approach, Chunker: chunk.Spec{Size: testPage}, Name: "par", F: 1 << 10}
			serialOpts := base
			serialOpts.Parallelism = 1
			parOpts := base
			parOpts.Parallelism = 4

			serial := runDumpWithStats(t, n, serialOpts)
			parallel := runDumpWithStats(t, n, parOpts)

			for r := 0; r < n; r++ {
				sm, pm := serial.results[r].Metrics, parallel.results[r].Metrics
				if sm.TotalChunks != pm.TotalChunks || sm.LocalUniqueChunks != pm.LocalUniqueChunks {
					t.Errorf("rank %d: chunk counts differ: serial %d/%d, parallel %d/%d",
						r, sm.TotalChunks, sm.LocalUniqueChunks, pm.TotalChunks, pm.LocalUniqueChunks)
				}
				if sm.SentChunks != pm.SentChunks || sm.SentBytes != pm.SentBytes {
					t.Errorf("rank %d: sent differs: serial %d chunks/%d B, parallel %d chunks/%d B",
						r, sm.SentChunks, sm.SentBytes, pm.SentChunks, pm.SentBytes)
				}
				if sm.RecvChunks != pm.RecvChunks || sm.RecvBytes != pm.RecvBytes {
					t.Errorf("rank %d: recv differs: serial %d/%d, parallel %d/%d",
						r, sm.RecvChunks, sm.RecvBytes, pm.RecvChunks, pm.RecvBytes)
				}
				if sm.StoredChunks != pm.StoredChunks || sm.StoredBytes != pm.StoredBytes {
					t.Errorf("rank %d: stored differs: serial %d/%d, parallel %d/%d",
						r, sm.StoredChunks, sm.StoredBytes, pm.StoredChunks, pm.StoredBytes)
				}
				if sm.UniqueContentBytes != pm.UniqueContentBytes || sm.WindowBytes != pm.WindowBytes {
					t.Errorf("rank %d: unique/window bytes differ", r)
				}
				// Replica placement: every peer must receive exactly the
				// same bytes from this rank in both runs.
				for p := 0; p < n; p++ {
					sb := serial.stats[r].Peers[p].BytesSent
					pb := parallel.stats[r].Peers[p].BytesSent
					if sb != pb {
						t.Errorf("rank %d → peer %d: sent %d bytes serial, %d parallel", r, p, sb, pb)
					}
				}
			}
			if !reflect.DeepEqual(serial.results[0].Plan.SendLoad, parallel.results[0].Plan.SendLoad) {
				t.Errorf("plans differ between serial and parallel runs")
			}
			su, pu := serial.cluster.UsageByNode(), parallel.cluster.UsageByNode()
			if !reflect.DeepEqual(su, pu) {
				t.Errorf("per-node storage differs:\nserial:   %v\nparallel: %v", su, pu)
			}

			// The parallel dump must restore byte-exactly.
			restored := make([][]byte, n)
			var mu sync.Mutex
			err := collectives.Run(n, func(c collectives.Comm) error {
				buf, err := Restore(c, parallel.cluster.Node(c.Rank()), "par")
				if err != nil {
					return err
				}
				mu.Lock()
				restored[c.Rank()] = buf
				mu.Unlock()
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for r := 0; r < n; r++ {
				if !bytes.Equal(restored[r], parallel.buffers[r]) {
					t.Errorf("rank %d: parallel dump did not restore byte-exactly", r)
				}
			}
		})
	}
}

// TestConcurrentPutsRace is the race-focused satellite: N in-proc ranks
// with Parallelism > 1 drive concurrent partner puts (run under -race in
// CI), the restore must round-trip, and the per-peer byte counters must
// sum to exactly the serial run's totals — concurrency may reorder the
// traffic but never change it.
func TestConcurrentPutsRace(t *testing.T) {
	const n, k = 8, 4
	base := Options{K: k, Approach: CollDedup, Chunker: chunk.Spec{Size: testPage}, Name: "race", F: 1 << 10}
	serialOpts := base
	serialOpts.Parallelism = 1
	parOpts := base
	parOpts.Parallelism = 4

	serial := runDumpWithStats(t, n, serialOpts)
	parallel := runDumpWithStats(t, n, parOpts)

	var serialSent, parSent, serialMsgs, parMsgs int64
	for r := 0; r < n; r++ {
		for p := 0; p < n; p++ {
			serialSent += serial.stats[r].Peers[p].BytesSent
			parSent += parallel.stats[r].Peers[p].BytesSent
			serialMsgs += serial.stats[r].Peers[p].MsgsSent
			parMsgs += parallel.stats[r].Peers[p].MsgsSent
		}
		if serial.stats[r].BytesSent != parallel.stats[r].BytesSent {
			t.Errorf("rank %d: total BytesSent %d serial vs %d parallel",
				r, serial.stats[r].BytesSent, parallel.stats[r].BytesSent)
		}
	}
	if serialSent != parSent {
		t.Errorf("per-peer BytesSent sum: %d serial vs %d parallel", serialSent, parSent)
	}
	if serialMsgs != parMsgs {
		t.Errorf("per-peer MsgsSent sum: %d serial vs %d parallel", serialMsgs, parMsgs)
	}
	for r := 0; r < n; r++ {
		if got := len(parallel.results[r].Metrics.Phases.PutWorkers); got != k-1 {
			t.Errorf("rank %d: expected %d put-worker durations, got %d", r, k-1, got)
		}
	}

	restored := make([][]byte, n)
	var mu sync.Mutex
	err := collectives.Run(n, func(c collectives.Comm) error {
		buf, err := Restore(c, parallel.cluster.Node(c.Rank()), "race")
		if err != nil {
			return err
		}
		mu.Lock()
		restored[c.Rank()] = buf
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < n; r++ {
		if !bytes.Equal(restored[r], parallel.buffers[r]) {
			t.Errorf("rank %d: restore after concurrent puts not byte-exact", r)
		}
	}
}

// TestParallelismDefault pins the normalization rule: 0 selects
// GOMAXPROCS (>= 1), explicit values pass through.
func TestParallelismDefault(t *testing.T) {
	o, err := Options{K: 1}.normalized(4)
	if err != nil {
		t.Fatal(err)
	}
	if o.Parallelism < 1 {
		t.Fatalf("default Parallelism = %d, want >= 1", o.Parallelism)
	}
	o, err = Options{K: 1, Parallelism: 7}.normalized(4)
	if err != nil {
		t.Fatal(err)
	}
	if o.Parallelism != 7 {
		t.Fatalf("explicit Parallelism not preserved: %d", o.Parallelism)
	}
}

// TestParallelDumpContentDefined covers the gear CDC chunker under the
// parallel pipeline: boundaries come from the serial scan, hashing is
// parallel, and the restore must still round-trip.
func TestParallelDumpContentDefined(t *testing.T) {
	const n = 4
	o := Options{K: 2, Approach: CollDedup,
		Chunker: chunk.Spec{Algo: chunk.AlgoGear, Size: testPage},
		Name:    "cdc-par", F: 1 << 10, Parallelism: 4}
	run := runDumpWithStats(t, n, o)
	restored := make([][]byte, n)
	var mu sync.Mutex
	err := collectives.Run(n, func(c collectives.Comm) error {
		buf, err := Restore(c, run.cluster.Node(c.Rank()), "cdc-par")
		if err != nil {
			return err
		}
		mu.Lock()
		restored[c.Rank()] = buf
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < n; r++ {
		if !bytes.Equal(restored[r], run.buffers[r]) {
			t.Errorf("rank %d: CDC parallel dump did not restore byte-exactly", r)
		}
	}
}
