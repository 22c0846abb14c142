package core

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"

	"dedupcr/internal/chunk"
	"dedupcr/internal/collectives"
	"dedupcr/internal/storage"
)

// runRestoreOutput restores "name" on every rank of an existing cluster
// and returns the per-rank results, failing on any content mismatch.
func runRestoreOutput(t *testing.T, cluster *storage.Cluster, n int, name string, buffers [][]byte) []*RestoreResult {
	t.Helper()
	results := make([]*RestoreResult, n)
	var mu sync.Mutex
	err := collectives.Run(n, func(c collectives.Comm) error {
		res, err := RestoreOutputCtx(context.Background(), c, cluster.Node(c.Rank()), name, nil)
		if err != nil {
			return err
		}
		if !bytes.Equal(res.Data, buffers[c.Rank()]) {
			return fmt.Errorf("rank %d restored wrong content", c.Rank())
		}
		mu.Lock()
		results[c.Rank()] = res
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return results
}

// TestRestoreMetricsAccounting pins the restore instrumentation's
// internal consistency on a healthy cluster: every recipe position is
// accounted to exactly one source, byte totals reconcile, and the
// run-length walk covers the whole recipe. (Even without failures,
// coll-dedup restores fetch the shared chunks designated to other
// holders — the accounting must hold on both sides of that split.)
func TestRestoreMetricsAccounting(t *testing.T) {
	const n, k = 8, 3
	o := Options{K: k, Approach: CollDedup, Chunker: chunk.Spec{Size: testPage}, Name: "ck"}
	cluster, _, buffers := runDump(t, n, o)

	for r, res := range runRestoreOutput(t, cluster, n, "ck", buffers) {
		m := res.Metrics
		if m.Rank != r {
			t.Errorf("rank %d: metrics carry rank %d", r, m.Rank)
		}
		if m.LogicalBytes != int64(len(buffers[r])) {
			t.Errorf("rank %d: logical bytes %d, want %d", r, m.LogicalBytes, len(buffers[r]))
		}
		if m.LocalChunks+m.FetchedChunks != m.TotalChunks {
			t.Errorf("rank %d: %d local + %d fetched != %d total chunks",
				r, m.LocalChunks, m.FetchedChunks, m.TotalChunks)
		}
		if m.LocalBytes+m.FetchedBytes != m.LogicalBytes {
			t.Errorf("rank %d: %d local + %d fetched bytes != %d logical",
				r, m.LocalBytes, m.FetchedBytes, m.LogicalBytes)
		}
		if m.UniqueChunks <= 0 || m.UniqueChunks > m.TotalChunks {
			t.Errorf("rank %d: unique chunks %d out of range (total %d)", r, m.UniqueChunks, m.TotalChunks)
		}
		// Runs partition the recipe walk: their lengths sum to TotalChunks.
		if got := m.RunLengths.Sum(); got != int64(m.TotalChunks) {
			t.Errorf("rank %d: run lengths sum to %d, want %d", r, got, m.TotalChunks)
		}
		if m.LargestRun <= 0 || m.LargestRun > int64(m.TotalChunks) {
			t.Errorf("rank %d: largest run %d out of range", r, m.LargestRun)
		}
		var peerSum int64
		for _, b := range m.PeerFetchBytes {
			peerSum += b
		}
		if peerSum != m.FetchedBytes {
			t.Errorf("rank %d: peer matrix sums to %d, fetched %d", r, peerSum, m.FetchedBytes)
		}
		if m.ObjectsTouched <= 0 {
			t.Errorf("rank %d: no objects touched", r)
		}
		if m.Phases.Total <= 0 || m.Phases.Assemble <= 0 {
			t.Errorf("rank %d: phases not measured: %+v", r, m.Phases)
		}
		// Fetch is wall time — the batched fetch stage inside Assemble plus
		// the metadata blob fetches inside Meta — so it cannot exceed the
		// two phases that contain it, however much its exchanges overlap.
		// (The per-exchange latencies may well sum to more.)
		if m.Phases.Fetch > m.Phases.Meta+m.Phases.Assemble {
			t.Errorf("rank %d: fetch %v exceeds containing meta %v + assemble %v",
				r, m.Phases.Fetch, m.Phases.Meta, m.Phases.Assemble)
		}
		if m.BarrierExit.IsZero() {
			t.Errorf("rank %d: barrier exit not stamped", r)
		}
		if m.StoreReadLatency.Count() == 0 {
			t.Errorf("rank %d: local reads happened but read-latency histogram is empty", r)
		}
	}
}

// TestRestoreMetricsAfterNodeFailure drives the fetch path: a wiped node
// restores everything remotely, so its metrics must show fetches, a
// recovered metadata blob, distinct sources and latency samples, while
// its read amplification reaches 1.0.
func TestRestoreMetricsAfterNodeFailure(t *testing.T) {
	const n, k = 10, 3
	o := Options{K: k, Approach: CollDedup, Chunker: chunk.Spec{Size: testPage}, Name: "ck"}
	cluster, _, buffers := runDump(t, n, o)
	failed := 4
	cluster.FailNodes(failed)
	cluster.Replace(failed)

	results := runRestoreOutput(t, cluster, n, "ck", buffers)
	m := results[failed].Metrics
	if m.MetaFetches != 1 {
		t.Errorf("replaced node: %d meta fetches, want 1", m.MetaFetches)
	}
	if m.LocalChunks != 0 {
		// The wiped store starts empty, but the second and later recipe
		// positions of a fetched chunk count as local (copies of the
		// re-provisioned bytes).
		t.Logf("replaced node: %d local chunk positions (re-provisioned duplicates)", m.LocalChunks)
	}
	if m.FetchedChunks == 0 || m.FetchedBytes == 0 {
		t.Fatalf("replaced node shows no fetches: %+v", m)
	}
	// Every unique chunk must travel once; duplicate recipe positions
	// are filled from the same fetched bytes, so amplification lands
	// below 1.0 exactly by the intra-rank duplicate share.
	if m.FetchedChunks < m.UniqueChunks {
		t.Errorf("replaced node: fetched %d < %d unique chunks", m.FetchedChunks, m.UniqueChunks)
	}
	if got := m.ReadAmplificationBytes(); got <= 0.5 {
		t.Errorf("replaced node: read amplification %.3f, want near 1.0", got)
	}
	if m.SourceRanks == 0 {
		t.Error("replaced node: no source ranks recorded")
	}
	if m.FetchRequests < int64(m.FetchedChunks) {
		t.Errorf("fetch requests %d < fetched chunks %d", m.FetchRequests, m.FetchedChunks)
	}
	if m.FetchLatency.Count() == 0 {
		t.Error("fetches happened but fetch-latency histogram is empty")
	}
	// One latency sample per exchange, not per chunk: the wiped rank's
	// chunks travel in batches.
	if got := m.FetchLatency.Count(); got >= int64(m.FetchedChunks) {
		t.Errorf("replaced node: %d fetch-latency samples for %d fetched chunks, want fewer (batched)", got, m.FetchedChunks)
	}
	if m.Phases.Fetch == 0 {
		t.Error("fetch phase time not attributed")
	}

	// Surviving ranks kept their metadata, and while coll-dedup makes
	// them fetch the shared chunks designated to other holders, none
	// should come close to the wiped node's fetch-everything cost.
	for r, res := range results {
		if r == failed {
			continue
		}
		sm := res.Metrics
		if sm.MetaFetches != 0 {
			t.Errorf("surviving rank %d fetched metadata — local copy intact", r)
		}
		if got := sm.ReadAmplificationBytes(); got >= m.ReadAmplificationBytes() {
			t.Errorf("surviving rank %d: read amplification %.3f not below wiped node's %.3f",
				r, got, m.ReadAmplificationBytes())
		}
	}
}

// blobWrites counts a store's PutBlob calls per blob name.
type blobWrites struct {
	storage.Store
	writes map[string]int
}

func (s *blobWrites) PutBlob(name string, data []byte) error {
	s.writes[name]++
	return s.Store.PutBlob(name, data)
}

// TestRestoreRewritesOnlyFetchedMeta: a restore that reads its metadata
// locally writes no metadata blob; a rank whose store was wiped fetches
// its metadata from a neighbour and persists it once.
func TestRestoreRewritesOnlyFetchedMeta(t *testing.T) {
	const n, wiped = 4, 1
	cluster, _, buffers := runDump(t, n, Options{K: 2, Approach: CollDedup, Chunker: chunk.Spec{Size: testPage}, Name: "ck"})
	cluster.FailNodes(wiped)
	cluster.Replace(wiped)
	stores := make([]*blobWrites, n)
	for r := range stores {
		stores[r] = &blobWrites{Store: cluster.Node(r), writes: map[string]int{}}
	}
	err := collectives.Run(n, func(c collectives.Comm) error {
		got, err := Restore(c, stores[c.Rank()], "ck")
		if err == nil && !bytes.Equal(got, buffers[c.Rank()]) {
			err = fmt.Errorf("rank %d restored wrong content", c.Rank())
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, s := range stores {
		want := 0
		if r == wiped {
			want = 1
		}
		if got := s.writes[metaName("ck", r)]; got != want {
			t.Errorf("rank %d wrote its restore metadata %d times, want %d", r, got, want)
		}
	}
}
