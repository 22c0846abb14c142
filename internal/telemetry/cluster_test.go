package telemetry

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"dedupcr/internal/chunk"
	"dedupcr/internal/collectives"
	"dedupcr/internal/core"
	"dedupcr/internal/obs"
	"dedupcr/internal/storage"
)

// telemetryWorkload builds one rank's buffer: pages drawn from a small
// shared alphabet, so ranks naturally hold duplicate content.
func telemetryWorkload(rank, pages, pageSize int) []byte {
	buf := make([]byte, pages*pageSize)
	for p := 0; p < pages; p++ {
		// A few shared page kinds plus some rank-private ones.
		kind := (rank*7 + p*3) % 5
		if p%4 == 0 {
			kind = 100 + rank // rank-private content
		}
		page := buf[p*pageSize : (p+1)*pageSize]
		for i := range page {
			page[i] = byte(kind + i*31)
		}
	}
	return buf
}

// TestGatherClusterPhase checks that the dump gather runs under its own
// phase: a fault keyed on "dump-telemetry" fires inside GatherCluster,
// and one keyed on the dump's last phase, "barrier", no longer does.
func TestGatherClusterPhase(t *testing.T) {
	const n, victim = 4, 1
	for _, tc := range []struct {
		phase string
		fires bool
	}{{"dump-telemetry", true}, {"barrier", false}} {
		t.Run(tc.phase, func(t *testing.T) {
			ring := obs.New(256)
			defer obs.SetDefault(obs.SetDefault(ring))
			plan := collectives.FaultPlan{Faults: []collectives.Fault{
				{Kind: collectives.FaultKill, Rank: victim, Phase: tc.phase, Peer: collectives.AnyRank},
			}}
			dumps := clusterDumps(n)
			errs := make([]error, n)
			err := collectives.Run(n, func(c collectives.Comm) error {
				fc := collectives.InjectFaults(c, plan)
				collectives.NotePhase(fc, "barrier") // where the dump leaves off
				_, errs[c.Rank()] = GatherCluster(fc, dumps[c.Rank()])
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if got := errors.Is(errs[victim], collectives.ErrInjected); got != tc.fires {
				t.Fatalf("victim error %v: injected = %v, want %v", errs[victim], got, tc.fires)
			}
			if !tc.fires {
				for r, err := range errs {
					if err != nil {
						t.Errorf("rank %d: %v", r, err)
					}
				}
				return
			}
			if errs[0] == nil {
				t.Error("rank 0 gathered without the killed rank")
			}
			var faults []string
			for _, e := range ring.Events() {
				if e.Kind == obs.KindFault {
					faults = append(faults, e.Phase)
				}
			}
			if len(faults) != 1 || faults[0] != "dump-telemetry" {
				t.Errorf("fault events name phases %v, want [dump-telemetry]", faults)
			}
		})
	}
}

// TestClusterAcceptance is the tentpole's end-to-end check: a multi-rank
// in-process dump, the in-band gather to rank 0, and a merged Chrome
// trace with one pid per rank whose barrier alignment is consistent.
func TestClusterAcceptance(t *testing.T) {
	const n = 4
	cluster := storage.NewCluster(n)
	tr := obs.New(1 << 12)
	results := make([]*core.Result, n)
	var cd *ClusterDump
	var mu sync.Mutex
	err := collectives.Run(n, func(c collectives.Comm) error {
		rank := c.Rank()
		opts := core.Options{
			K: 2, Approach: core.CollDedup, Chunker: chunk.Spec{Size: 1024}, Name: "telem",
			Trace: tr.Track(1, rank, fmt.Sprintf("rank %d", rank)),
		}
		res, err := core.DumpOutput(c, cluster.Node(rank), telemetryWorkload(rank, 64, 1024), opts)
		if err != nil {
			return err
		}
		mu.Lock()
		results[rank] = res
		mu.Unlock()
		got, err := GatherCluster(c, res.Metrics)
		if err != nil {
			return err
		}
		if rank == 0 {
			if got == nil {
				return fmt.Errorf("rank 0 got nil cluster dump")
			}
			cd = got
		} else if got != nil {
			return fmt.Errorf("rank %d got a cluster dump, want nil", rank)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// --- ClusterDump content ---
	if cd.Ranks != n {
		t.Fatalf("ranks = %d, want %d", cd.Ranks, n)
	}
	total := cd.Phase("total")
	if total.Min <= 0 || total.Max < total.Min {
		t.Errorf("total spread malformed: %+v", total)
	}
	for _, ps := range cd.Phases {
		if ps.Min > ps.Median || ps.Median > ps.P95 || ps.P95 > ps.Max {
			t.Errorf("%s: min/median/p95/max not ordered: %+v", ps.Name, ps)
		}
		if ps.SlowestRank < 0 || ps.SlowestRank >= n {
			t.Errorf("%s: slowest rank %d out of range", ps.Name, ps.SlowestRank)
		}
	}
	// The gathered per-rank summaries must match what each rank measured
	// locally (wire codec + gather integrity, end to end).
	for r, res := range results {
		rs := cd.PerRank[r]
		if rs.SentBytes != res.Metrics.SentBytes || rs.StoredBytes != res.Metrics.StoredBytes {
			t.Errorf("rank %d: gathered sent/stored %d/%d, local %d/%d",
				r, rs.SentBytes, rs.StoredBytes, res.Metrics.SentBytes, res.Metrics.StoredBytes)
		}
		if rs.ClockOffset < 0 {
			t.Errorf("rank %d: negative clock offset %v", r, rs.ClockOffset)
		}
	}
	if cd.DesignationImbalance < 1 || cd.SendImbalance < 1 {
		t.Errorf("imbalance coefficients below 1: designation %f send %f",
			cd.DesignationImbalance, cd.SendImbalance)
	}
	if cd.ClockSpread < 0 || cd.ClockSpread > time.Second {
		t.Errorf("clock spread %v implausible for an in-process run", cd.ClockSpread)
	}

	// --- merged trace ---
	var buf bytes.Buffer
	if err := MergeTraces(&buf, SplitByTid(tr.Timeline()), cd); err != nil {
		t.Fatal(err)
	}
	var doc chromeDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("merged trace is not valid JSON: %v", err)
	}
	pids := make(map[int]bool)
	barrierEnd := make(map[int]float64)
	for _, e := range doc.TraceEvents {
		if e.Ph == "M" {
			continue
		}
		pids[e.Pid] = true
		if e.Name == "barrier" {
			if end := e.Ts + e.Dur; end > barrierEnd[e.Pid] {
				barrierEnd[e.Pid] = end
			}
		}
	}
	if len(pids) != n {
		t.Fatalf("merged trace has %d pids, want one per rank (%d): %v", len(pids), n, pids)
	}
	if len(barrierEnd) != n {
		t.Fatalf("barrier spans on %d pids, want %d", len(barrierEnd), n)
	}
	// Monotonically consistent alignment: every rank's completion
	// barrier ends at the same merged timestamp (µs floats, so allow
	// sub-microsecond rounding).
	ref := barrierEnd[0]
	for pid, end := range barrierEnd {
		if math.Abs(end-ref) > 0.5 {
			t.Errorf("pid %d barrier ends at %fµs, pid 0 at %fµs", pid, end, ref)
		}
	}
}
