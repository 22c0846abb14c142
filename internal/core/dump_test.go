package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"dedupcr/internal/chunk"
	"dedupcr/internal/collectives"
	"dedupcr/internal/fingerprint"
	"dedupcr/internal/metrics"
	"dedupcr/internal/storage"
)

const testPage = 256 // small chunk size keeps tests fast

// Every frame buffer given back to a free list is overwritten, so a frame
// given back while a store or a restore still reads it fails a test.
func init() { collectives.PoisonFrames() }

// page builds one deterministic page of content from a label.
func page(label string) []byte {
	seed := int64(0)
	for _, b := range []byte(label) {
		seed = seed*131 + int64(b)
	}
	buf := make([]byte, testPage)
	rand.New(rand.NewSource(seed)).Read(buf)
	return buf
}

// testBuffer builds a rank's dataset with controlled redundancy:
// `shared` pages identical on every rank, `group` pages shared within
// groups of 4 consecutive ranks, `localdup` pages each appearing twice
// within the rank, and `unique` rank-private pages.
func testBuffer(rank, shared, group, localdup, unique int) []byte {
	var buf []byte
	for i := 0; i < shared; i++ {
		buf = append(buf, page(fmt.Sprintf("shared-%d", i))...)
	}
	for i := 0; i < group; i++ {
		buf = append(buf, page(fmt.Sprintf("group-%d-%d", rank/4, i))...)
	}
	for i := 0; i < localdup; i++ {
		p := page(fmt.Sprintf("ldup-%d-%d", rank, i))
		buf = append(buf, p...)
		buf = append(buf, p...)
	}
	for i := 0; i < unique; i++ {
		buf = append(buf, page(fmt.Sprintf("uniq-%d-%d", rank, i))...)
	}
	return buf
}

// runDump executes a collective dump of the standard test workload on a
// fresh in-proc group + cluster and returns everything the assertions
// need.
func runDump(t *testing.T, n int, o Options) (*storage.Cluster, []*Result, [][]byte) {
	t.Helper()
	cluster := storage.NewCluster(n)
	results, buffers := dumpInto(t, clusterStores(cluster), o)
	return cluster, results, buffers
}

// dumpInto is runDump into the given stores, one per rank.
func dumpInto(t *testing.T, stores []storage.Store, o Options) ([]*Result, [][]byte) {
	t.Helper()
	n := len(stores)
	results := make([]*Result, n)
	buffers := make([][]byte, n)
	var mu sync.Mutex
	err := collectives.Run(n, func(c collectives.Comm) error {
		buf := testBuffer(c.Rank(), 6, 4, 3, 2+c.Rank()%3)
		res, err := DumpOutput(c, stores[c.Rank()], buf, o)
		if err != nil {
			return err
		}
		mu.Lock()
		results[c.Rank()] = res
		buffers[c.Rank()] = buf
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return results, buffers
}

func TestDumpRestoreRoundTrip(t *testing.T) {
	for _, approach := range []Approach{NoDedup, LocalDedup, CollDedup} {
		for _, k := range []int{1, 2, 3} {
			approach, k := approach, k
			t.Run(fmt.Sprintf("%v/K=%d", approach, k), func(t *testing.T) {
				const n = 8
				o := Options{K: k, Approach: approach, Chunker: chunk.Spec{Size: testPage}, Name: "ck"}
				cluster, _, buffers := runDump(t, n, o)
				err := collectives.Run(n, func(c collectives.Comm) error {
					got, err := Restore(c, cluster.Node(c.Rank()), "ck")
					if err != nil {
						return err
					}
					if !bytes.Equal(got, buffers[c.Rank()]) {
						return fmt.Errorf("rank %d restored %d bytes != original %d",
							c.Rank(), len(got), len(buffers[c.Rank()]))
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

func TestDumpRejectsBadK(t *testing.T) {
	err := collectives.Run(2, func(c collectives.Comm) error {
		_, err := DumpOutput(c, storage.NewMem(), []byte("x"), Options{K: 3})
		if err == nil {
			return fmt.Errorf("K > N accepted")
		}
		_, err = DumpOutput(c, storage.NewMem(), []byte("x"), Options{K: 0})
		if err == nil {
			return fmt.Errorf("K = 0 accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// held reports whether s holds fp, intact or not: GetChunk misses only a
// chunk s does not hold.
func held(s storage.Store, fp fingerprint.FP) bool {
	_, err := s.GetChunk(fp)
	return !errors.Is(err, storage.ErrNotFound)
}

// holderCount maps every fingerprint of every dataset to the number of
// distinct surviving nodes storing it.
func holderCount(t *testing.T, cluster *storage.Cluster, buffers [][]byte) map[fingerprint.FP]int {
	t.Helper()
	fps := make(map[fingerprint.FP]bool)
	for _, buf := range buffers {
		for _, ch := range chunk.NewFixed(testPage).Split(buf) {
			fps[ch.FP] = true
		}
	}
	holders := make(map[fingerprint.FP]int)
	for fp := range fps {
		for r := 0; r < cluster.Size(); r++ {
			if cluster.Node(r).Failed() {
				continue
			}
			if held(cluster.Node(r), fp) {
				holders[fp]++
			}
		}
	}
	return holders
}

func TestReplicationFactorMaintained(t *testing.T) {
	const n, k = 10, 3
	for _, approach := range []Approach{NoDedup, LocalDedup, CollDedup} {
		approach := approach
		t.Run(approach.String(), func(t *testing.T) {
			o := Options{K: k, Approach: approach, Chunker: chunk.Spec{Size: testPage}, Name: "ck"}
			cluster, _, buffers := runDump(t, n, o)
			for fp, h := range holderCount(t, cluster, buffers) {
				switch approach {
				case NoDedup, LocalDedup:
					// Self + K-1 distinct partners; widely shared chunks
					// accumulate more holders.
					if h < k {
						t.Errorf("%v: chunk %s on %d nodes, want >= %d", approach, fp.Short(), h, k)
					}
				case CollDedup:
					// Target refinement steers extra replicas away from
					// natural holders, so the distinct-node count reaches
					// K whenever the partner sets allow it — and at this
					// group size they always do.
					if h < k {
						t.Errorf("coll-dedup: chunk %s on %d nodes, want >= %d", fp.Short(), h, k)
					}
				}
			}
		})
	}
}

func TestCollDedupStoresLess(t *testing.T) {
	const n, k = 12, 3
	usage := make(map[Approach]int64)   // physical bytes on the stores
	uniqueC := make(map[Approach]int64) // identified unique content (Fig 3a)
	rawTotal := int64(0)
	for _, approach := range []Approach{NoDedup, LocalDedup, CollDedup} {
		o := Options{K: k, Approach: approach, Chunker: chunk.Spec{Size: testPage}, Name: "ck"}
		cluster, results, buffers := runDump(t, n, o)
		bytes, _ := cluster.TotalUsage()
		usage[approach] = bytes
		for _, res := range results {
			uniqueC[approach] += res.Metrics.UniqueContentBytes
		}
		if approach == NoDedup {
			for _, b := range buffers {
				rawTotal += int64(len(b))
			}
		}
	}
	// Identified unique content shrinks strictly along the paper's axis.
	if uniqueC[NoDedup] != rawTotal {
		t.Errorf("no-dedup unique content = %d, want raw total %d", uniqueC[NoDedup], rawTotal)
	}
	if !(uniqueC[CollDedup] < uniqueC[LocalDedup] && uniqueC[LocalDedup] < uniqueC[NoDedup]) {
		t.Errorf("unique content ordering violated: coll=%d local=%d no=%d",
			uniqueC[CollDedup], uniqueC[LocalDedup], uniqueC[NoDedup])
	}
	// Physical usage: our stores are content addressed, so no-dedup's
	// intra-node duplicates collapse to local-dedup levels; coll-dedup
	// still strictly wins by dropping cross-node duplicates.
	if !(usage[CollDedup] < usage[LocalDedup] && usage[LocalDedup] <= usage[NoDedup]) {
		t.Fatalf("storage usage ordering violated: coll=%d local=%d no=%d",
			usage[CollDedup], usage[LocalDedup], usage[NoDedup])
	}
}

func TestDumpMetricsConservation(t *testing.T) {
	const n, k = 9, 3
	o := Options{K: k, Approach: CollDedup, Chunker: chunk.Spec{Size: testPage}, Name: "ck"}
	_, results, buffers := runDump(t, n, o)

	var sent, recv, sentChunks, recvChunks int64
	for r, res := range results {
		m := res.Metrics
		if m.DatasetBytes != int64(len(buffers[r])) {
			t.Errorf("rank %d DatasetBytes = %d, want %d", r, m.DatasetBytes, len(buffers[r]))
		}
		if m.HashedBytes != m.DatasetBytes {
			t.Errorf("rank %d hashed %d of %d bytes", r, m.HashedBytes, m.DatasetBytes)
		}
		if m.LocalUniqueChunks > m.TotalChunks {
			t.Errorf("rank %d more unique than total chunks", r)
		}
		// Window = received payload + 4-byte record headers.
		if m.WindowBytes != m.RecvBytes+4*int64(m.RecvChunks) {
			t.Errorf("rank %d window %d != recv %d + headers %d",
				r, m.WindowBytes, m.RecvBytes, 4*m.RecvChunks)
		}
		sent += m.SentBytes
		recv += m.RecvBytes
		sentChunks += int64(m.SentChunks)
		recvChunks += int64(m.RecvChunks)
	}
	if sent != recv {
		t.Errorf("sent %d bytes but received %d", sent, recv)
	}
	if sentChunks != recvChunks {
		t.Errorf("sent %d chunks but received %d", sentChunks, recvChunks)
	}
}

func TestPlanIdenticalOnAllRanks(t *testing.T) {
	const n, k = 7, 3
	o := Options{K: k, Approach: CollDedup, Chunker: chunk.Spec{Size: testPage}, Name: "ck"}
	_, results, _ := runDump(t, n, o)
	ref := results[0].Plan
	for r := 1; r < n; r++ {
		p := results[r].Plan
		for i := range ref.Shuffle {
			if p.Shuffle[i] != ref.Shuffle[i] {
				t.Fatalf("rank %d computed different shuffle", r)
			}
		}
		for i := range ref.SendLoad {
			for d := range ref.SendLoad[i] {
				if p.SendLoad[i][d] != ref.SendLoad[i][d] {
					t.Fatalf("rank %d computed different SendLoad", r)
				}
			}
		}
	}
}

func TestHintsPointToActualHolders(t *testing.T) {
	const n, k = 10, 3
	o := Options{K: k, Approach: CollDedup, Chunker: chunk.Spec{Size: testPage}, Name: "ck"}
	cluster, _, _ := runDump(t, n, o)
	for r := 0; r < n; r++ {
		blob, err := cluster.Node(r).GetBlob(metaName("ck", r))
		if err != nil {
			t.Fatalf("rank %d metadata missing: %v", r, err)
		}
		var meta RestoreMeta
		if err := meta.UnmarshalBinary(blob); err != nil {
			t.Fatal(err)
		}
		for fp, ranks := range meta.Hints {
			if len(ranks) == 0 {
				t.Errorf("rank %d: empty hint for %s", r, fp.Short())
			}
			for _, hr := range ranks {
				if !held(cluster.Node(int(hr)), fp) {
					t.Errorf("rank %d: hint says rank %d holds %s, but it does not", r, hr, fp.Short())
				}
			}
		}
	}
}

func TestRestoreAfterNodeFailure(t *testing.T) {
	const n, k = 10, 3
	o := Options{K: k, Approach: CollDedup, Chunker: chunk.Spec{Size: testPage}, Name: "ck"}
	cluster, _, buffers := runDump(t, n, o)

	// Lose one node (K=3 tolerates up to 2 in theory; see DESIGN.md on
	// designated/partner overlap), replace it with blank storage, and
	// restore everywhere — including on the replaced node.
	failed := 4
	cluster.FailNodes(failed)
	cluster.Replace(failed)

	err := collectives.Run(n, func(c collectives.Comm) error {
		got, err := Restore(c, cluster.Node(c.Rank()), "ck")
		if err != nil {
			return err
		}
		if !bytes.Equal(got, buffers[c.Rank()]) {
			return fmt.Errorf("rank %d restored wrong content after failure", c.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// The replaced node must have been re-provisioned with its chunks.
	bytesUsed, chunks := cluster.Node(failed).Usage()
	if bytesUsed == 0 || chunks == 0 {
		t.Error("replaced node was not re-provisioned during restore")
	}
}

func TestRestoreAfterFailureAllApproaches(t *testing.T) {
	for _, approach := range []Approach{NoDedup, LocalDedup, CollDedup} {
		approach := approach
		t.Run(approach.String(), func(t *testing.T) {
			const n, k = 8, 3
			o := Options{K: k, Approach: approach, Chunker: chunk.Spec{Size: testPage}, Name: "ck"}
			cluster, _, buffers := runDump(t, n, o)
			cluster.FailNodes(2)
			cluster.Replace(2)
			err := collectives.Run(n, func(c collectives.Comm) error {
				got, err := Restore(c, cluster.Node(c.Rank()), "ck")
				if err != nil {
					return err
				}
				if !bytes.Equal(got, buffers[c.Rank()]) {
					return fmt.Errorf("rank %d restored wrong content", c.Rank())
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestConsecutiveDumps(t *testing.T) {
	const n, k = 6, 2
	cluster := storage.NewCluster(n)
	var mu sync.Mutex
	buffers := make(map[string][][]byte)
	err := collectives.Run(n, func(c collectives.Comm) error {
		for step := 0; step < 3; step++ {
			name := fmt.Sprintf("ck-%d", step)
			buf := testBuffer(c.Rank()+step*100, 4, 2, 1, 2)
			o := Options{K: k, Approach: CollDedup, Chunker: chunk.Spec{Size: testPage}, Name: name}
			if _, err := DumpOutput(c, cluster.Node(c.Rank()), buf, o); err != nil {
				return err
			}
			mu.Lock()
			if buffers[name] == nil {
				buffers[name] = make([][]byte, n)
			}
			buffers[name][c.Rank()] = buf
			mu.Unlock()
		}
		// Restore both an old and the newest checkpoint.
		for _, name := range []string{"ck-0", "ck-2"} {
			got, err := Restore(c, cluster.Node(c.Rank()), name)
			if err != nil {
				return err
			}
			mu.Lock()
			want := buffers[name][c.Rank()]
			mu.Unlock()
			if !bytes.Equal(got, want) {
				return fmt.Errorf("rank %d: %s restored wrong content", c.Rank(), name)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDumpUnevenBufferSizes(t *testing.T) {
	// Ranks write different amounts, including one empty dataset and one
	// not a multiple of the chunk size — all allowed by the paper.
	const n, k = 5, 3
	cluster := storage.NewCluster(n)
	sizes := []int{0, testPage*3 + 17, testPage, testPage * 10, 1}
	buffers := make([][]byte, n)
	var mu sync.Mutex
	err := collectives.Run(n, func(c collectives.Comm) error {
		buf := make([]byte, sizes[c.Rank()])
		rand.New(rand.NewSource(int64(c.Rank()))).Read(buf)
		o := Options{K: k, Approach: CollDedup, Chunker: chunk.Spec{Size: testPage}, Name: "ck"}
		if _, err := DumpOutput(c, cluster.Node(c.Rank()), buf, o); err != nil {
			return err
		}
		mu.Lock()
		buffers[c.Rank()] = buf
		mu.Unlock()
		got, err := Restore(c, cluster.Node(c.Rank()), "ck")
		if err != nil {
			return err
		}
		mu.Lock()
		defer mu.Unlock()
		if !bytes.Equal(got, buffers[c.Rank()]) {
			return fmt.Errorf("rank %d round trip failed for %d bytes", c.Rank(), sizes[c.Rank()])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDumpContentDefinedChunking(t *testing.T) {
	// The CDC alternative must round-trip and still deduplicate the
	// shared content (cut points are content-derived, so shared regions
	// produce identical chunks regardless of their offset per rank).
	const n, k = 6, 3
	cluster := storage.NewCluster(n)
	buffers := make([][]byte, n)
	results := make([]*Result, n)
	var mu sync.Mutex
	err := collectives.Run(n, func(c collectives.Comm) error {
		// Shared content preceded by a rank-specific prefix of varying
		// length: fixed-size chunking would see no cross-rank duplicates
		// at all; CDC must.
		prefix := bytes.Repeat([]byte{byte(c.Rank())}, 37*(c.Rank()+1))
		buf := append(prefix, testBuffer(0, 12, 0, 0, 0)...)
		o := Options{K: k, Approach: CollDedup,
			Chunker: chunk.Spec{Algo: chunk.AlgoGear, Size: 128}, Name: "cdc"}
		res, err := DumpOutput(c, cluster.Node(c.Rank()), buf, o)
		if err != nil {
			return err
		}
		mu.Lock()
		buffers[c.Rank()] = buf
		results[c.Rank()] = res
		mu.Unlock()
		got, err := Restore(c, cluster.Node(c.Rank()), "cdc")
		if err != nil {
			return err
		}
		mu.Lock()
		defer mu.Unlock()
		if !bytes.Equal(got, buffers[c.Rank()]) {
			return fmt.Errorf("rank %d CDC round trip failed", c.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Cross-rank dedup must have fired despite the shifted offsets.
	var unique int64
	var raw int64
	for r, res := range results {
		unique += res.Metrics.UniqueContentBytes
		raw += int64(len(buffers[r]))
	}
	if unique*2 > raw {
		t.Errorf("CDC identified only %d of %d bytes as shared; shift resistance broken", raw-unique, raw)
	}
}

func TestShuffleReducesMaxReceive(t *testing.T) {
	// With an imbalanced workload, the shuffled plan's max receive size
	// must not exceed the naive plan's.
	const n, k = 12, 4
	imbalancedBuffer := func(rank int) []byte {
		unique := 1
		if rank < 2 {
			unique = 20 // two heavy ranks
		}
		return testBuffer(rank, 8, 0, 0, unique)
	}
	maxRecv := make(map[bool]int64)
	for _, shuffleOn := range []bool{false, true} {
		cluster := storage.NewCluster(n)
		var mu sync.Mutex
		var plan *Plan
		err := collectives.Run(n, func(c collectives.Comm) error {
			o := Options{K: k, Approach: CollDedup, Chunker: chunk.Spec{Size: testPage},
				Shuffle: Bool(shuffleOn), Name: "ck"}
			res, err := DumpOutput(c, cluster.Node(c.Rank()), imbalancedBuffer(c.Rank()), o)
			if err != nil {
				return err
			}
			mu.Lock()
			plan = res.Plan
			mu.Unlock()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		maxRecv[shuffleOn] = metrics.Max(plan.RecvBytesByRank())
	}
	if maxRecv[true] > maxRecv[false] {
		t.Fatalf("shuffle increased max receive: %d > %d", maxRecv[true], maxRecv[false])
	}
}
