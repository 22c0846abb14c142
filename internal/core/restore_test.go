package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dedupcr/internal/chunk"
	"dedupcr/internal/collectives"
	"dedupcr/internal/fetch"
	"dedupcr/internal/fingerprint"
	"dedupcr/internal/storage"
)

// fetchChunk is the one-chunk-at-a-time fetch the restore used until the
// batched path replaced it — designated ranks first (the hint path), then
// every other rank, nobody twice — kept here, with the network call
// abstracted into ask, as the reference the batched path's candidate
// order and request/miss counts are checked against.
func fetchChunk(me, n int, hints []int32, ask func(peer int) bool) (int, bool) {
	tried := make(map[int]bool, n)
	tried[me] = true
	try := func(peer int) bool {
		if tried[peer] {
			return false
		}
		tried[peer] = true
		return ask(peer)
	}
	for _, r := range hints {
		if try(int(r)) {
			return int(r), true
		}
	}
	for d := 1; d < n; d++ {
		peer := (me + d) % n
		if try(peer) {
			return peer, true
		}
	}
	return -1, false
}

// TestCandidateOrderMatchesReference: for any group size and hint list —
// duplicates, this rank, ranks outside the group, none at all — the k-th
// peer a hole is queued at is the k-th peer the reference would ask, and
// the list ends once every other rank has been offered exactly once.
func TestCandidateOrderMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(12)
		me := rng.Intn(n)
		hints := make([]int32, rng.Intn(7))
		for i := range hints {
			hints[i] = int32(rng.Intn(n+4) - 2)
		}
		var want []int
		fetchChunk(me, n, hints, func(peer int) bool {
			// The reference sent to a hinted rank outside the group and
			// failed the restore on the transport error; the batched path
			// skips such a hint, so it has no counterpart here.
			if peer >= 0 && peer < n {
				want = append(want, peer)
			}
			return false
		})
		var got []int
		h := &hole{hints: hints}
		for peer, ok := h.nextPeer(me, n); ok; peer, ok = h.nextPeer(me, n) {
			got = append(got, peer)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("n=%d me=%d hints=%v: candidates %v, reference asks %v", n, me, hints, got, want)
		}
		sorted := slices.Clone(got)
		slices.Sort(sorted)
		if len(sorted) != n-1 || len(slices.Compact(sorted)) != n-1 || slices.Contains(sorted, me) {
			t.Fatalf("n=%d me=%d hints=%v: %v is not every other rank once", n, me, hints, got)
		}
		if _, ok := h.nextPeer(me, n); ok {
			t.Fatalf("n=%d me=%d hints=%v: a candidate after the last", n, me, hints)
		}
	}
}

// TestRequestCut: a request holds as many fingerprints as keep the
// expected reply within collectives.MaxPutBytes; a chunk above the cap
// travels alone.
func TestRequestCut(t *testing.T) {
	const quarter = collectives.MaxPutBytes / 4
	for _, tc := range []struct {
		name  string
		sizes []int32
		want  []int // fingerprints per request
	}{
		{"empty", nil, nil},
		{"all fit", []int32{100, 200, 0, 300}, []int{4}},
		{"oversize mid-queue", []int32{100, 2 << 20, 100}, []int{1, 1, 1}},
		{"oversize first", []int32{2 << 20, 100, 100}, []int{1, 2}},
		{"record headers count", []int32{quarter, quarter, quarter, quarter}, []int{3, 1}},
		{"exactly the cap", []int32{collectives.MaxPutBytes - 10}, []int{1}},
	} {
		var q peerQueue
		var holes []hole
		for i, size := range tc.sizes {
			holes = append(holes, hole{fp: fingerprint.Of([]byte{byte(i)}), size: size})
			q.queue = append(q.queue, int32(i))
		}
		var got []int
		at := 0
		for len(q.queue) > 0 {
			fps, cut := q.cut(holes)
			if len(cut) != len(fps) {
				t.Fatalf("%s: request %d names %d fingerprints but hands back %d holes", tc.name, len(got), len(fps), len(cut))
			}
			payload := int64(0)
			for i, fp := range fps {
				if fp != fingerprint.Of([]byte{byte(at + i)}) || cut[i] != int32(at+i) {
					t.Fatalf("%s: request %d is out of queue order", tc.name, len(got))
				}
				payload += int64(tc.sizes[at+i])
			}
			if len(fps) == 0 || (len(fps) > 1 && fetch.ReplyBytes(len(fps), payload) > collectives.MaxPutBytes) {
				t.Fatalf("%s: request of %d fingerprints expects a %d-byte reply", tc.name, len(fps), fetch.ReplyBytes(len(fps), payload))
			}
			got = append(got, len(fps))
			at += len(fps)
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("%s: requests of %v fingerprints, want %v", tc.name, got, tc.want)
		}
	}
}

// startComms opens an n-rank group on the named transport ("inproc" or
// "tcp"), closed when the test ends.
func startComms(t *testing.T, transport string, n int) []collectives.Comm {
	t.Helper()
	comms := make([]collectives.Comm, n)
	if transport == "tcp" {
		tc, err := collectives.StartLocalTCP(n)
		if err != nil {
			t.Fatal(err)
		}
		for r, c := range tc {
			comms[r] = c
		}
	} else {
		g, err := collectives.NewGroup(n)
		if err != nil {
			t.Fatal(err)
		}
		for r := range comms {
			if comms[r], err = g.Comm(r); err != nil {
				t.Fatal(err)
			}
		}
	}
	t.Cleanup(func() {
		for _, c := range comms {
			c.Close()
		}
	})
	return comms
}

// dupHeavyBuffers draws every rank's buffer from small page pools —
// shared by all ranks, by a pair of ranks, repeated within the rank,
// private — so recipes are full of repeated fingerprints, and ends some
// on a short chunk.
func dupHeavyBuffers(rng *rand.Rand, n int) [][]byte {
	buffers := make([][]byte, n)
	for r := range buffers {
		for i, pages := 0, 20+rng.Intn(30); i < pages; i++ {
			var label string
			switch rng.Intn(4) {
			case 0:
				label = fmt.Sprintf("all-%d", rng.Intn(5))
			case 1:
				label = fmt.Sprintf("pair-%d-%d", r/2, rng.Intn(4))
			case 2:
				label = fmt.Sprintf("own-%d-%d", r, rng.Intn(3))
			default:
				label = fmt.Sprintf("private-%d-%d", r, i)
			}
			buffers[r] = append(buffers[r], page(label)...)
		}
		if rng.Intn(2) == 0 {
			buffers[r] = append(buffers[r], page(fmt.Sprintf("tail-%d", r))[:1+rng.Intn(testPage-1)]...)
		}
	}
	return buffers
}

// dumpBuffers dumps buffers over comms into a fresh cluster.
func dumpBuffers(t *testing.T, comms []collectives.Comm, buffers [][]byte, o Options) *storage.Cluster {
	t.Helper()
	cluster := storage.NewCluster(len(comms))
	runComms(t, comms, func(c collectives.Comm) error {
		_, err := DumpOutput(c, cluster.Node(c.Rank()), buffers[c.Rank()], o)
		return err
	})
	return cluster
}

// wipe fails and replaces the given nodes.
func wipe(cluster *storage.Cluster, ranks ...int) {
	cluster.FailNodes(ranks...)
	for _, r := range ranks {
		cluster.Replace(r)
	}
}

// subsets lists every subset of {0…n-1} with at most size members.
func subsets(n, size int) [][]int {
	out := [][]int{nil}
	var grow func(from int, cur []int)
	grow = func(from int, cur []int) {
		if len(cur) == size {
			return
		}
		for r := from; r < n; r++ {
			next := append(slices.Clone(cur), r)
			out = append(out, next)
			grow(r+1, next)
		}
	}
	grow(0, nil)
	return out
}

// TestBatchedRestoreEveryWipeSet is the paper's guarantee through the
// batched fetch path: over random group sizes, replication factors,
// shuffle settings and duplicate-heavy datasets, on both transports, every
// set of at most K-1 wiped nodes restores every rank byte-identically.
func TestBatchedRestoreEveryWipeSet(t *testing.T) {
	rng := rand.New(rand.NewSource(2107))
	for i, transport := range []string{"inproc", "inproc", "inproc", "inproc", "inproc", "inproc", "tcp", "tcp"} {
		n := 2 + rng.Intn(11)
		if transport == "tcp" {
			n = 2 + rng.Intn(4)
		}
		k := 1 + rng.Intn(min(n, 3))
		shuffle := rng.Intn(2) == 0
		buffers := dupHeavyBuffers(rng, n)
		t.Run(fmt.Sprintf("%d-%s-n%d-k%d-shuffle=%v", i, transport, n, k, shuffle), func(t *testing.T) {
			comms := startComms(t, transport, n)
			o := Options{K: k, Approach: CollDedup, Chunker: chunk.Spec{Size: testPage}, Shuffle: &shuffle, Name: "ck"}
			for _, wiped := range subsets(n, k-1) {
				cluster := dumpBuffers(t, comms, buffers, o)
				wipe(cluster, wiped...)
				runComms(t, comms, func(c collectives.Comm) error {
					got, err := Restore(c, cluster.Node(c.Rank()), "ck")
					if err != nil {
						return fmt.Errorf("wiped %v: %w", wiped, err)
					}
					if !bytes.Equal(got, buffers[c.Rank()]) {
						return fmt.Errorf("wiped %v: restored bytes differ", wiped)
					}
					return nil
				})
			}
		})
	}
}

// restoreAlone restores name on rank r only, while every other rank just
// serves fetches from its store until r is through: with peers that do
// not re-provision themselves mid-restore, what r asks of whom is a
// function of the stores' contents alone.
func restoreAlone(t *testing.T, stores []storage.Store, r int, name string) *RestoreResult {
	t.Helper()
	return restoreAloneVia(t, stores, r, name, nil)
}

// restoreAloneVia is restoreAlone with r's communicator passed through
// wrap first, unless wrap is nil.
func restoreAloneVia(t *testing.T, stores []storage.Store, r int, name string, wrap func(collectives.Comm) collectives.Comm) *RestoreResult {
	t.Helper()
	var res *RestoreResult
	err := collectives.Run(len(stores), func(c collectives.Comm) error {
		if c.Rank() == r {
			if wrap != nil {
				c = wrap(c)
			}
			var err error
			res, err = RestoreOutputCtx(context.Background(), c, stores[r], name, nil)
			return err
		}
		srv := fetch.Serve(c, stores[c.Rank()], fetchClass)
		defer srv.Stop()
		return collectives.Barrier(c)
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// loadMetaOf reads rank r's restore metadata from whichever store has it.
func loadMetaOf(t *testing.T, stores []storage.Store, r int, name string) *RestoreMeta {
	t.Helper()
	for _, s := range stores {
		if blob, err := s.GetBlob(metaName(name, r)); err == nil {
			meta := new(RestoreMeta)
			if err := meta.UnmarshalBinary(blob); err != nil {
				t.Fatal(err)
			}
			return meta
		}
	}
	t.Fatalf("no store holds rank %d's metadata", r)
	return nil
}

// referenceCounts replays rank r's restore the old way against the
// stores as they stand — the metadata sweep, then fetchChunk once per
// distinct fingerprint the local store lacks — and returns how many asks
// and misses that takes. A replica counts as held only if its bytes pass
// the sum its store read them under, which is how both paths end up
// treating it.
func referenceCounts(stores []storage.Store, meta *RestoreMeta, r int, name string) (requests, misses int64) {
	n := len(stores)
	holds := func(peer int, fp fingerprint.FP) bool {
		data, sum, err := stores[peer].GetChunkSum(fp)
		return err == nil && storage.CheckSum(&fp, data, sum) == nil
	}
	if _, err := stores[r].GetBlob(metaName(name, r)); err != nil {
		for d := 1; d < n; d++ {
			requests++
			if blob, err := stores[(r+d)%n].GetBlob(metaName(name, r)); err == nil && len(blob) > 0 {
				break
			}
			misses++
		}
	}
	for _, fp := range meta.Recipe.Unique() {
		if holds(r, fp) {
			continue
		}
		fetchChunk(r, n, meta.Hints[fp], func(peer int) bool {
			requests++
			if holds(peer, fp) {
				return true
			}
			misses++
			return false
		})
	}
	return requests, misses
}

// clusterStores lists a cluster's nodes.
func clusterStores(cluster *storage.Cluster) []storage.Store {
	stores := make([]storage.Store, cluster.Size())
	for r := range stores {
		stores[r] = cluster.Node(r)
	}
	return stores
}

// TestBatchedFetchCountsMatchReference: on a single restoring rank with
// quiesced peers, the batched path asks exactly as many fingerprints of
// peers, and is turned down exactly as often, as the one-at-a-time
// reference — the candidate order is the old order end to end.
func TestBatchedFetchCountsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 24; trial++ {
		n := 2 + rng.Intn(11)
		k := 2 + rng.Intn(min(n, 3)-1)
		shuffle := rng.Intn(2) == 0
		buffers := dupHeavyBuffers(rng, n)
		o := Options{K: k, Approach: CollDedup, Chunker: chunk.Spec{Size: testPage}, Shuffle: &shuffle, Name: "ck"}
		cluster := dumpBuffers(t, startComms(t, "inproc", n), buffers, o)
		r := rng.Intn(n)
		meta := loadMetaOf(t, clusterStores(cluster), r, "ck")
		// Up to K-1 losses; half the trials lose the restoring rank itself.
		wiped := rng.Perm(n)[:rng.Intn(k)]
		if len(wiped) > 0 && trial%2 == 0 {
			wiped[0] = r
			slices.Sort(wiped)
			wiped = slices.Compact(wiped)
		}
		wipe(cluster, wiped...)
		stores := clusterStores(cluster)
		requests, misses := referenceCounts(stores, meta, r, "ck")
		res := restoreAlone(t, stores, r, "ck")
		if !bytes.Equal(res.Data, buffers[r]) {
			t.Fatalf("trial %d (n=%d k=%d rank %d, wiped %v): restored bytes differ", trial, n, k, r, wiped)
		}
		if m := res.Metrics; m.FetchRequests != requests || m.FetchMisses != misses {
			t.Errorf("trial %d (n=%d k=%d shuffle=%v rank %d, wiped %v): %d asks / %d misses, reference %d / %d",
				trial, n, k, shuffle, r, wiped, m.FetchRequests, m.FetchMisses, requests, misses)
		}
	}
}

// corruptStore serves one fingerprint with a flipped byte under the sum
// its store read it under. It flips above the store, past its at-rest
// check, so the fetch server sends bytes the reply's sum rejects at the
// requester: one more miss. A chunk that changed inside a store is
// scribble's or flipOnDisk's job (walk_test.go); bytes changed after the
// server's read are tamperComm's (TestRestoreChecksFetchedSums).
type corruptStore struct {
	storage.Store
	fp fingerprint.FP
}

func (s corruptStore) GetChunkSum(fp fingerprint.FP) ([]byte, uint32, error) {
	data, sum, err := s.Store.GetChunkSum(fp)
	if err == nil && fp == s.fp {
		data = slices.Clone(data)
		data[0] ^= 1
	}
	return data, sum, err
}

// recordingStore counts the puts into a store that starts empty and
// remembers every one whose bytes do not hash to the fingerprint they
// were stored under.
type recordingStore struct {
	storage.Store
	mu   sync.Mutex
	puts int
	bad  []fingerprint.FP
}

func (s *recordingStore) PutChunkSum(fp fingerprint.FP, data []byte, sum uint32) error {
	s.mu.Lock()
	s.puts++
	if fingerprint.Of(data) != fp {
		s.bad = append(s.bad, fp)
	}
	s.mu.Unlock()
	return s.Store.PutChunkSum(fp, data, sum)
}

// checkPuts fails the test if the store was handed bytes that do not hash
// to their fingerprint, or holds a chunk no put through it stored.
func (s *recordingStore) checkPuts(t *testing.T) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.bad) != 0 {
		t.Errorf("requester's store was handed unverified bytes for %v", s.bad)
	}
	if _, chunks := s.Usage(); chunks > s.puts {
		t.Errorf("requester's store holds %d chunks, %d were put through it", chunks, s.puts)
	}
}

// TestRestoreVerifiesBeforeStoring: a replica whose bytes do not match
// its fingerprint is a miss like any other — the restore moves on to the
// next holder — and it never reaches the requester's store. Before the
// batched path, re-provisioning ran ahead of the check: the restore
// failed on the mismatch, but only after PutChunk had been handed the
// corrupt bytes under the good fingerprint.
func TestRestoreVerifiesBeforeStoring(t *testing.T) {
	const n, k, r = 6, 3, 2
	o := Options{K: k, Approach: CollDedup, Chunker: chunk.Spec{Size: testPage}, Name: "ck"}
	private := page("uniq-2-0") // only rank r's recipe has it
	bad := fingerprint.Of(private)

	// setup dumps, wipes r and returns the stores with r's recording, plus
	// the other ranks that hold a replica of the private page.
	setup := func(t *testing.T) ([]storage.Store, *recordingStore, [][]byte, []int) {
		cluster, _, buffers := runDump(t, n, o)
		wipe(cluster, r)
		stores := clusterStores(cluster)
		rec := &recordingStore{Store: stores[r]}
		stores[r] = rec
		var holders []int
		for p, s := range stores {
			if held(s, bad) {
				holders = append(holders, p)
			}
		}
		if len(holders) != k-1 {
			t.Fatalf("private page held by %v, want %d partners of rank %d", holders, k-1, r)
		}
		return stores, rec, buffers, holders
	}

	// The first holder's replica is corrupt in one of two places: above
	// its store, so the reply's sum rejects the bytes at the requester; or
	// inside its store, so its fetch server's read fails the at-rest check
	// and it answers not-found. Either way that is one more miss, the next
	// holder serves, and the requester stores only verified bytes.
	for _, tc := range []struct {
		name    string
		corrupt func(t *testing.T, stores []storage.Store, first int)
	}{
		{"next replica serves", func(t *testing.T, stores []storage.Store, first int) {
			stores[first] = corruptStore{stores[first], bad}
		}},
		{"first holder's store corrupt", func(t *testing.T, stores []storage.Store, first int) {
			scribble(t, stores[first], bad)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stores, rec, buffers, _ := setup(t)
			meta := loadMetaOf(t, stores, r, "ck")
			_, cleanMisses := referenceCounts(stores, meta, r, "ck")
			first, _ := fetchChunk(r, n, meta.Hints[bad], func(peer int) bool {
				return held(stores[peer], bad)
			})
			tc.corrupt(t, stores, first)
			requests, misses := referenceCounts(stores, meta, r, "ck")
			if misses <= cleanMisses {
				t.Fatalf("test premise: corrupting rank %d's replica adds no miss (%d, clean %d)", first, misses, cleanMisses)
			}

			res := restoreAlone(t, stores, r, "ck")
			if !bytes.Equal(res.Data, buffers[r]) {
				t.Fatal("restored bytes differ")
			}
			if m := res.Metrics; m.FetchRequests != requests || m.FetchMisses != misses {
				t.Errorf("%d asks / %d misses, want %d / %d: the rejected replica is one more miss",
					m.FetchRequests, m.FetchMisses, requests, misses)
			}
			rec.checkPuts(t)
			if data, err := rec.GetChunk(bad); err != nil || !bytes.Equal(data, private) {
				t.Errorf("requester not re-provisioned with the good replica: %v", err)
			}
		})
	}

	t.Run("every replica corrupt", func(t *testing.T) {
		stores, rec, _, holders := setup(t)
		for _, p := range holders {
			stores[p] = corruptStore{stores[p], bad}
		}
		errs := runRanks(t, n, 30*time.Second, func(c collectives.Comm) error {
			_, err := RestoreOutputCtx(context.Background(), c, stores[c.Rank()], "ck", nil)
			return err
		})
		for rank, err := range errs {
			var ce *collectives.CollectiveError
			if !errors.As(err, &ce) {
				t.Errorf("rank %d: %v, want a *CollectiveError", rank, err)
			}
		}
		rec.checkPuts(t)
		if held(rec, bad) {
			t.Error("requester's store has an entry for the chunk nobody could serve intact")
		}
	})
}

// tamperComm hands every batched fetch reply its rank receives from a
// peer in from to tamper, in place, before the restore decodes it: a
// reply changed after the serving store checked it, as a bad link or a
// bad peer would change it. It reads the fetch protocol off the wire as
// depthComm does.
type tamperComm struct {
	collectives.Comm
	from   []int
	tamper func(frame []byte)
	mu     sync.Mutex
	peerOf map[uint32]int // exchange id → peer asked
}

// Base lets the abort protocol reach the transport.
func (c *tamperComm) Base() collectives.Comm { return c.Comm }

func (c *tamperComm) Send(to int, tag collectives.Tag, data []byte) error {
	if tag == collectives.WildcardTag(0) && len(data) >= 9 && data[0] == 3 {
		c.mu.Lock()
		c.peerOf[binary.BigEndian.Uint32(data[5:])] = to
		c.mu.Unlock()
	}
	return c.Comm.Send(to, tag, data)
}

func (c *tamperComm) Recv(from int, tag collectives.Tag) ([]byte, error) {
	data, err := c.Comm.Recv(from, tag)
	if err == nil && tag == collectives.WildcardTag(1+uint32(c.Rank())) && len(data) >= 5 && data[0] == 2 {
		c.mu.Lock()
		peer := c.peerOf[binary.BigEndian.Uint32(data[1:])]
		c.mu.Unlock()
		if slices.Contains(c.from, peer) {
			c.tamper(data)
		}
	}
	return data, err
}

// TestRestoreChecksFetchedSums: the restoring rank checks each fetched
// record against the sum the serving store read it under, taken over the
// fingerprint it asked for. A holder whose reply changes after that read
// (one payload byte flipped), or that answers with another chunk's bytes
// under that chunk's true sum, is a miss like any other: the next holder
// serves, and the requester's store never sees the bad bytes. When every
// holder does so, the chunk is lost and the restore fails on every rank.
func TestRestoreChecksFetchedSums(t *testing.T) {
	const n, k, r = 6, 3, 2
	o := Options{K: k, Approach: CollDedup, Chunker: chunk.Spec{Size: testPage}, Name: "ck"}
	private := page("uniq-2-0") // only rank r's recipe has it
	bad := fingerprint.Of(private)
	other := page("another chunk")
	otherStore := storage.NewMem()
	if err := otherStore.PutChunk(fingerprint.Of(other), other); err != nil {
		t.Fatal(err)
	}
	_, otherSum, err := otherStore.GetChunkSum(fingerprint.Of(other))
	if err != nil {
		t.Fatal(err)
	}
	flip := func(frame []byte) {
		if i := bytes.Index(frame, private); i >= 0 {
			frame[i+testPage/2] ^= 1
		}
	}
	// A found record is 1 | len | sum | payload: the sum is the four
	// bytes before the payload.
	swap := func(frame []byte) {
		if i := bytes.Index(frame, private); i >= 0 {
			binary.BigEndian.PutUint32(frame[i-4:], otherSum)
			copy(frame[i:], other)
		}
	}

	// setup dumps, wipes r and returns the stores with r's recording, and
	// the holders of the private page in the order r asks them.
	setup := func(t *testing.T) ([]storage.Store, *recordingStore, [][]byte, []int) {
		cluster, _, buffers := runDump(t, n, o)
		wipe(cluster, r)
		stores := clusterStores(cluster)
		rec := &recordingStore{Store: stores[r]}
		stores[r] = rec
		meta := loadMetaOf(t, stores, r, "ck")
		var holders []int
		fetchChunk(r, n, meta.Hints[bad], func(peer int) bool {
			if held(stores[peer], bad) {
				holders = append(holders, peer)
			}
			return false
		})
		if len(holders) != k-1 {
			t.Fatalf("private page held by %v, want %d partners of rank %d", holders, k-1, r)
		}
		return stores, rec, buffers, holders
	}
	wrap := func(from []int, tamper func([]byte)) func(collectives.Comm) collectives.Comm {
		return func(c collectives.Comm) collectives.Comm {
			return &tamperComm{Comm: c, from: from, tamper: tamper, peerOf: make(map[uint32]int)}
		}
	}

	for _, tc := range []struct {
		name   string
		tamper func([]byte)
	}{
		{"payload byte flipped after the store's check", flip},
		{"another chunk under its true sum", swap},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stores, rec, buffers, holders := setup(t)
			meta := loadMetaOf(t, stores, r, "ck")
			// The reference asks as if the first holder lacked the page.
			_, cleanMisses := referenceCounts(stores, meta, r, "ck")
			lacking := slices.Clone(stores)
			lacking[holders[0]] = corruptStore{stores[holders[0]], bad}
			requests, misses := referenceCounts(lacking, meta, r, "ck")
			if misses <= cleanMisses {
				t.Fatalf("test premise: the first holder's refusal adds no miss (%d, clean %d)", misses, cleanMisses)
			}
			res := restoreAloneVia(t, stores, r, "ck", wrap(holders[:1], tc.tamper))
			if !bytes.Equal(res.Data, buffers[r]) {
				t.Fatal("restored bytes differ")
			}
			if m := res.Metrics; m.FetchRequests != requests || m.FetchMisses != misses {
				t.Errorf("%d asks / %d misses, want %d / %d: the tampered reply is one more miss",
					m.FetchRequests, m.FetchMisses, requests, misses)
			}
			rec.checkPuts(t)
			if data, err := rec.GetChunk(bad); err != nil || !bytes.Equal(data, private) {
				t.Errorf("requester not re-provisioned with the good replica: %v", err)
			}
		})
	}

	t.Run("every holder tampers", func(t *testing.T) {
		stores, rec, _, holders := setup(t)
		errs := runRanks(t, n, 30*time.Second, func(c collectives.Comm) error {
			if c.Rank() == r {
				c = wrap(holders, swap)(c)
			}
			_, err := RestoreOutputCtx(context.Background(), c, stores[c.Rank()], "ck", nil)
			return err
		})
		for rank, err := range errs {
			var ce *collectives.CollectiveError
			if !errors.As(err, &ce) {
				t.Errorf("rank %d: %v, want a *CollectiveError", rank, err)
			}
		}
		if err := errs[r]; err == nil || !strings.Contains(err.Error(), "lost on all surviving nodes") {
			t.Errorf("rank %d: %v, want the chunk lost on all surviving nodes", r, err)
		}
		rec.checkPuts(t)
		if held(rec, bad) {
			t.Error("requester's store has an entry for the chunk nobody served intact")
		}
	})
}

// failingStore fails its node right after the first chunk a batch read
// places: the rest of that batch, the rest of the walk, and everything
// after it see ErrFailed.
type failingStore struct {
	storage.Store
}

func (s *failingStore) ReadRecords(dst []byte, recs []storage.Record, errs []error) {
	s.Store.ReadRecords(dst, recs, errs)
	for i := range recs {
		switch {
		case s.Store.Failed():
			errs[i] = storage.ErrFailed
		case errs[i] == nil:
			s.Store.Fail()
		}
	}
}

// TestRestoreStoreFailsMidWalk: a store that dies after the walk's first
// read turns the rest of the recipe into holes, which the peers fill.
func TestRestoreStoreFailsMidWalk(t *testing.T) {
	const n, k, r = 6, 3, 3
	o := Options{K: k, Approach: CollDedup, Chunker: chunk.Spec{Size: testPage}, Name: "ck"}
	cluster, _, buffers := runDump(t, n, o)
	stores := clusterStores(cluster)
	stores[r] = &failingStore{Store: stores[r]}
	var m *RestoreResult
	errs := runRanks(t, n, 30*time.Second, func(c collectives.Comm) error {
		res, err := RestoreOutputCtx(context.Background(), c, stores[c.Rank()], "ck", nil)
		if err != nil {
			return err
		}
		if !bytes.Equal(res.Data, buffers[c.Rank()]) {
			return fmt.Errorf("restored bytes differ")
		}
		if c.Rank() == r {
			m = res
		}
		return nil
	})
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
	if !stores[r].Failed() {
		t.Fatal("test premise: the store never failed")
	}
	// At most one chunk was read before the store died (none, if a peer's
	// ask reached this rank's fetch server first); peers served the rest.
	if got := m.Metrics; got.FetchedChunks < got.UniqueChunks-1 || got.LocalChunks+got.FetchedChunks != got.TotalChunks {
		t.Errorf("rank %d: %d of %d distinct chunks fetched, %d local + %d fetched of %d positions",
			r, got.FetchedChunks, got.UniqueChunks, got.LocalChunks, got.FetchedChunks, got.TotalChunks)
	}
}

// depthComm counts, per peer, the batched fetch requests this rank has
// sent and not yet seen answered. It reads the fetch protocol off the
// wire: class 0 requests travel under WildcardTag(0) as
// u8 3 | u32 requester | u32 id | …, replies to rank r under
// WildcardTag(1+r) as u8 2 | u32 id | ….
type depthComm struct {
	collectives.Comm
	mu          sync.Mutex
	peerOf      map[uint32]int // exchange id → peer asked
	outstanding []int
	deepest     int
	exchanges   int
}

func (d *depthComm) Send(to int, tag collectives.Tag, data []byte) error {
	if tag == collectives.WildcardTag(0) && len(data) >= 9 && data[0] == 3 {
		d.mu.Lock()
		d.peerOf[binary.BigEndian.Uint32(data[5:])] = to
		d.outstanding[to]++
		d.deepest = max(d.deepest, d.outstanding[to])
		d.exchanges++
		d.mu.Unlock()
	}
	return d.Comm.Send(to, tag, data)
}

func (d *depthComm) Recv(from int, tag collectives.Tag) ([]byte, error) {
	data, err := d.Comm.Recv(from, tag)
	if err == nil && tag == collectives.WildcardTag(1+uint32(d.Rank())) && len(data) >= 5 && data[0] == 2 {
		d.mu.Lock()
		d.outstanding[d.peerOf[binary.BigEndian.Uint32(data[1:])]]--
		d.mu.Unlock()
	}
	return data, err
}

// TestFetchDepthBound: 16 ranks, K-1 = 2 of them wiped, each wiped rank
// with several MiB to pull back from the one partner every sweep starts
// at — far more than two requests' worth — and still no rank ever has
// more than fetchDepth requests outstanding at any peer.
func TestFetchDepthBound(t *testing.T) {
	const n, k, chunkSize = 16, 3, 64 << 10
	buffers := make([][]byte, n)
	for r := range buffers {
		size := chunkSize
		if r < k-1 {
			size = 5 << 20 // the ranks about to be wiped
		}
		buffers[r] = make([]byte, size)
		rand.New(rand.NewSource(int64(300 + r))).Read(buffers[r])
	}
	comms := startComms(t, "inproc", n)
	o := Options{K: k, Approach: CollDedup, Chunker: chunk.Spec{Size: chunkSize}, Name: "deep"}
	cluster := dumpBuffers(t, comms, buffers, o)
	wipe(cluster, 0, 1)

	counted := make([]*depthComm, n)
	wrapped := make([]collectives.Comm, n)
	for r, c := range comms {
		counted[r] = &depthComm{Comm: c, peerOf: make(map[uint32]int), outstanding: make([]int, n)}
		wrapped[r] = counted[r]
	}
	runComms(t, wrapped, func(c collectives.Comm) error {
		got, err := Restore(c, cluster.Node(c.Rank()), "deep")
		if err != nil {
			return err
		}
		if !bytes.Equal(got, buffers[c.Rank()]) {
			return fmt.Errorf("restored bytes differ")
		}
		return nil
	})
	for r, d := range counted {
		if d.deepest > fetchDepth {
			t.Errorf("rank %d had %d requests outstanding at one peer, bound is %d", r, d.deepest, fetchDepth)
		}
		for p, left := range d.outstanding {
			if left != 0 {
				t.Errorf("rank %d: %d requests to rank %d never answered", r, left, p)
			}
		}
	}
	if d := counted[0]; d.deepest != fetchDepth || d.exchanges < 5 {
		t.Errorf("test premise: the wiped rank reached depth %d over %d exchanges, want the bound to bite", d.deepest, d.exchanges)
	}
}

// sumlessPuts counts the chunks put into a store without a sum. It embeds
// a Timed, whose summed put it keeps: a put that carries its sum goes past
// PutChunk here to the store underneath.
type sumlessPuts struct {
	*storage.Timed
	n atomic.Int64
}

func (s *sumlessPuts) PutChunk(fp fingerprint.FP, data []byte) error {
	s.n.Add(1)
	return s.Timed.PutChunk(fp, data)
}

// TestRestoreReprovisionsWithSums: a wiped rank's restore re-stores every
// chunk it fetched with the sum it checked it against, so its store takes
// no sumless put and sums nothing again.
func TestRestoreReprovisionsWithSums(t *testing.T) {
	const n, wiped = 4, 1
	o := Options{K: 2, Approach: LocalDedup, Chunker: chunk.Spec{Size: testPage}, Name: "rp"}
	cluster, _, buffers := runDump(t, n, o)
	cluster.FailNodes(wiped)
	cluster.Replace(wiped)
	counted := &sumlessPuts{Timed: storage.NewTimed(cluster.Node(wiped))}
	err := collectives.Run(n, func(c collectives.Comm) error {
		store := cluster.Node(c.Rank())
		if c.Rank() == wiped {
			store = counted
		}
		got, err := Restore(c, store, "rp")
		if err == nil && !bytes.Equal(got, buffers[c.Rank()]) {
			err = fmt.Errorf("rank %d restored other bytes", c.Rank())
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, chunks := cluster.Node(wiped).Usage(); chunks == 0 {
		t.Fatal("the wiped rank re-provisioned nothing")
	}
	if got := counted.n.Load(); got != 0 {
		t.Fatalf("the wiped rank's store took %d chunks without their sum", got)
	}
}
