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
	"testing"
	"time"

	"dedupcr/internal/chunk"
	"dedupcr/internal/collectives"
	"dedupcr/internal/fingerprint"
	"dedupcr/internal/storage"
)

// gcList is the reclamation record of the earlier formats: every chunk
// reference a rank stored for a dataset, in full, and the ranks whose
// restore-metadata replicas of it the rank holds. It writes records in
// those formats, and it is the reference the holdings record's derived
// references are checked against.
type gcList struct {
	refs []fingerprint.FP
	held []int
}

// marshal encodes the list: u32 count | fingerprints | u32 count | u32
// ranks. The earliest format stops after the fingerprints.
func (g gcList) marshal() []byte {
	buf := make([]byte, 0, 8+len(g.refs)*fingerprint.Size+4*len(g.held))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(g.refs)))
	for _, fp := range g.refs {
		buf = append(buf, fp[:]...)
	}
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(g.held)))
	for _, r := range g.held {
		buf = binary.BigEndian.AppendUint32(buf, uint32(r))
	}
	return buf
}

// unmarshalGC decodes a list written by marshal.
func unmarshalGC(data []byte) (g gcList, err error) {
	if len(data) < 8 {
		return g, fmt.Errorf("core: gc list truncated")
	}
	n, data := int(binary.BigEndian.Uint32(data)), data[4:]
	if n > (len(data)-4)/fingerprint.Size {
		return g, fmt.Errorf("core: gc list has %d bytes for %d references", len(data), n)
	}
	g.refs = make([]fingerprint.FP, n)
	for i := range g.refs {
		g.refs[i] = fingerprint.FP(data[i*fingerprint.Size:])
	}
	data = data[n*fingerprint.Size:]
	if h := int(binary.BigEndian.Uint32(data)); len(data) != 4+4*h {
		return g, fmt.Errorf("core: gc list has %d bytes for %d metadata replicas", len(data)-4, h)
	}
	for data = data[4:]; len(data) > 0; data = data[4:] {
		g.held = append(g.held, int(binary.BigEndian.Uint32(data)))
	}
	return g, nil
}

func TestForgetReclaimsStorage(t *testing.T) {
	const n, k = 8, 3
	cluster := storage.NewCluster(n)
	buffers := make(map[string][][]byte)

	// Two checkpoints sharing their structural content (epoch-varying
	// private part), like consecutive real checkpoints.
	err := collectives.Run(n, func(c collectives.Comm) error {
		for epoch, name := range []string{"e0", "e1"} {
			// The +100*epoch offset changes the private pages between
			// epochs while the shared/structural pages stay identical —
			// the overlap profile of consecutive real checkpoints.
			buf := testBuffer(c.Rank()+100*epoch, 6, 4, 3, 2)
			o := Options{K: k, Approach: CollDedup, Chunker: chunk.Spec{Size: testPage}, Name: name}
			if _, err := DumpOutput(c, cluster.Node(c.Rank()), buf, o); err != nil {
				return err
			}
			if c.Rank() == 0 {
				buffers[name] = append(buffers[name], nil)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	afterBoth, _ := cluster.TotalUsage()

	// Forget the first checkpoint on every node.
	for r := 0; r < n; r++ {
		if err := Forget(cluster.Node(r), "e0", r); err != nil {
			t.Fatalf("node %d forget: %v", r, err)
		}
	}
	afterForget, _ := cluster.TotalUsage()
	if afterForget >= afterBoth {
		t.Fatalf("forget reclaimed nothing: %d -> %d bytes", afterBoth, afterForget)
	}

	// The second checkpoint must still restore byte-exactly.
	restored := make([][]byte, n)
	err = collectives.Run(n, func(c collectives.Comm) error {
		got, err := Restore(c, cluster.Node(c.Rank()), "e1")
		if err != nil {
			return err
		}
		restored[c.Rank()] = got
		want := testBuffer(c.Rank()+100, 6, 4, 3, 2)
		if !bytes.Equal(got, want) {
			return fmt.Errorf("rank %d: e1 corrupted by forgetting e0", c.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// Double forget fails cleanly.
	if err := Forget(cluster.Node(0), "e0", 0); !errors.Is(err, storage.ErrNotFound) {
		t.Fatalf("second forget = %v, want ErrNotFound", err)
	}
	// Forgetting an unknown dataset fails cleanly.
	if err := Forget(cluster.Node(0), "never-dumped", 0); !errors.Is(err, storage.ErrNotFound) {
		t.Fatalf("unknown forget = %v, want ErrNotFound", err)
	}
}

func TestForgetAllCheckpointsEmptiesStores(t *testing.T) {
	const n, k = 6, 2
	cluster := storage.NewCluster(n)
	err := collectives.Run(n, func(c collectives.Comm) error {
		buf := testBuffer(c.Rank(), 4, 2, 1, 1)
		o := Options{K: k, Approach: CollDedup, Chunker: chunk.Spec{Size: testPage}, Name: "only"}
		_, err := DumpOutput(c, cluster.Node(c.Rank()), buf, o)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < n; r++ {
		if err := Forget(cluster.Node(r), "only", r); err != nil {
			t.Fatal(err)
		}
	}
	if bytes, chunks := cluster.TotalUsage(); chunks != 0 || bytes != 0 {
		t.Fatalf("stores still hold %d bytes in %d chunks after forgetting everything", bytes, chunks)
	}
}

func TestGCListRoundTrip(t *testing.T) {
	got, err := unmarshalGC(gcList{}.marshal())
	if err != nil || len(got.refs) != 0 || len(got.held) != 0 {
		t.Fatalf("empty list round trip: %+v %v", got, err)
	}
	want := gcList{refs: []fingerprint.FP{fingerprint.Of([]byte("a")), fingerprint.Of(nil)}, held: []int{3, 0, 7}}
	if got, err = unmarshalGC(want.marshal()); err != nil || !slices.Equal(got.refs, want.refs) || !slices.Equal(got.held, want.held) {
		t.Fatalf("round trip: %+v %v, want %+v", got, err, want)
	}
	for _, bad := range [][]byte{{1, 2}, gcList{}.marshal()[:6], append(gcList{}.marshal(), 0xFF), want.marshal()[:50]} {
		if _, err := unmarshalGC(bad); err == nil {
			t.Fatalf("malformed list % x accepted", bad)
		}
	}
}

// TestRedumpThenForgetEmptiesStores: dumping a name again replaces the
// earlier dump, references included. After two dumps of X with different
// buffers and a Forget of X on every rank, no store holds anything.
func TestRedumpThenForgetEmptiesStores(t *testing.T) {
	const n, k = 6, 3
	o := Options{K: k, Approach: CollDedup, Chunker: chunk.Spec{Size: testPage}, Name: "X"}
	cluster := storage.NewCluster(n)
	dumpAll(t, cluster, ringBuffers(n, false, 0), o)
	dumpAll(t, cluster, ringBuffers(n, true, 1), o)
	for r := 0; r < n; r++ {
		if err := Forget(cluster.Node(r), "X", r); err != nil {
			t.Fatalf("rank %d forget: %v", r, err)
		}
		if bytes, chunks := cluster.Node(r).Usage(); bytes != 0 || chunks != 0 {
			t.Errorf("rank %d still holds %d bytes in %d chunks", r, bytes, chunks)
		}
	}
}

// TestFailedRedumpThenForgetEmptiesStores: a re-dump that fails — here a
// frame flipped in flight — leaves each rank either its earlier dump of
// the name, intact, or nothing of either dump. Forgetting the name on
// every rank then empties every store.
func TestFailedRedumpThenForgetEmptiesStores(t *testing.T) {
	const n, k = 6, 3
	// Serial puts: the corrupting wrapper is not safe for concurrent sends.
	o := Options{K: k, Approach: CollDedup, Chunker: chunk.Spec{Size: testPage}, Name: "X", Parallelism: 1}
	cluster := storage.NewCluster(n)
	dumpAll(t, cluster, ringBuffers(n, false, 0), o)
	second := ringBuffers(n, true, 1)
	errs := runRanks(t, n, 5*time.Second, func(c collectives.Comm) error {
		if c.Rank() == 1 {
			c = &corruptingComm{Comm: c}
		}
		_, err := DumpOutputCtx(context.Background(), c, cluster.Node(c.Rank()), second[c.Rank()], o)
		return err
	})
	for r, err := range errs {
		if err == nil {
			t.Fatalf("rank %d completed the corrupted re-dump", r)
		}
		if err := Forget(cluster.Node(r), "X", r); err != nil && !errors.Is(err, storage.ErrNotFound) {
			t.Fatalf("rank %d forget: %v", r, err)
		}
		if bytes, chunks := cluster.Node(r).Usage(); bytes != 0 || chunks != 0 {
			t.Errorf("rank %d still holds %d bytes in %d chunks", r, bytes, chunks)
		}
	}
}

// refLog is a store that keeps count of the chunk references it holds:
// each chunk stored adds one — own chunks and re-provisioned ones put
// alone, window records in batches — and each release takes one away.
type refLog struct {
	storage.Store
	mu   sync.Mutex
	held map[fingerprint.FP]int
}

func newRefLog(s storage.Store) *refLog {
	return &refLog{Store: s, held: make(map[fingerprint.FP]int)}
}

func (s *refLog) PutChunkSum(fp fingerprint.FP, data []byte, sum uint32) error {
	err := s.Store.PutChunkSum(fp, data, sum)
	if err == nil {
		s.mu.Lock()
		s.held[fp]++
		s.mu.Unlock()
	}
	return err
}

func (s *refLog) PutRecords(payload []byte, recs []storage.Record) (int, bool, error) {
	n, kept, err := s.Store.PutRecords(payload, recs)
	s.mu.Lock()
	for _, r := range recs[:n] {
		s.held[r.FP]++
	}
	s.mu.Unlock()
	return n, kept, err
}

func (s *refLog) ReleaseChunk(fp fingerprint.FP) error {
	err := s.Store.ReleaseChunk(fp)
	if err == nil {
		s.mu.Lock()
		s.held[fp]--
		s.mu.Unlock()
	}
	return err
}

// list is the store's references as an earlier-format gc list records
// them: encoded, decoded, and sorted.
func (s *refLog) list() ([]fingerprint.FP, error) {
	var refs []fingerprint.FP
	s.mu.Lock()
	for fp, c := range s.held {
		if c < 0 {
			s.mu.Unlock()
			return nil, fmt.Errorf("%s released %d more times than stored", fp.Short(), -c)
		}
		for range c {
			refs = append(refs, fp)
		}
	}
	s.mu.Unlock()
	g, err := unmarshalGC(gcList{refs: refs}.marshal())
	slices.SortFunc(g.refs, fingerprint.FP.Compare)
	return g.refs, err
}

// TestHoldingsMatchStoredReferences is the holdings record's differential
// property: over random group sizes N ∈ [2, 8], K ∈ [1, min(4, N)], all
// three approaches, F unbounded or below the shared set, fixed and gear
// chunkers, Shuffle on and off and Parallelism 1, 0 and 3, after a dump, a
// re-dump of the name with other buffers, and a restore with K-1 stores
// wiped that re-provisions them, the references each rank's holdings
// record derives from its metadata are exactly those its store holds, as
// a gc list of the earlier format records them.
func TestHoldingsMatchStoredReferences(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(7)
		k := 1 + rng.Intn(min(4, n))
		const shared = 3
		o := Options{
			K:           k,
			Approach:    Approach(rng.Intn(3)),
			F:           []int{-1, 1, shared - 1}[rng.Intn(3)],
			Chunker:     chunk.Spec{Algo: []chunk.Algo{chunk.AlgoFixed, chunk.AlgoGear}[rng.Intn(2)], Size: testPage},
			Shuffle:     Bool(rng.Intn(2) == 0),
			Parallelism: []int{1, 0, 3}[rng.Intn(3)],
			Name:        "diff",
		}
		redump, restore := rng.Intn(2) == 0, k > 1 && rng.Intn(3) > 0
		label := fmt.Sprintf("trial %d: n=%d k=%d %v F=%d %v shuffle=%v par=%d redump=%v restore=%v",
			trial, n, k, o.Approach, o.F, o.Chunker, *o.Shuffle, o.Parallelism, redump, restore)
		cluster := storage.NewCluster(n)
		stores := make([]*refLog, n)
		for r := range stores {
			stores[r] = newRefLog(cluster.Node(r))
		}
		dump := func(epoch int) [][]byte {
			buffers := make([][]byte, n)
			for r := range buffers {
				buffers[r] = testBuffer(r+100*epoch, shared, 2, rng.Intn(3), 1+rng.Intn(3))
			}
			err := collectives.Run(n, func(c collectives.Comm) error {
				_, err := DumpOutput(c, stores[c.Rank()], buffers[c.Rank()], o)
				return err
			})
			if err != nil {
				t.Fatalf("%s: dump %d: %v", label, epoch, err)
			}
			checkHoldings(t, label, stores, o.Name)
			return buffers
		}
		buffers := dump(0)
		if redump {
			buffers = dump(1)
		}
		if !restore {
			continue
		}
		wiped := rng.Perm(n)[:k-1]
		cluster.FailNodes(wiped...)
		for _, r := range wiped {
			cluster.Replace(r)
			stores[r] = newRefLog(cluster.Node(r))
		}
		err := collectives.Run(n, func(c collectives.Comm) error {
			got, err := Restore(c, stores[c.Rank()], o.Name)
			if err == nil && !bytes.Equal(got, buffers[c.Rank()]) {
				err = fmt.Errorf("rank %d restored other bytes", c.Rank())
			}
			return err
		})
		if err != nil {
			t.Fatalf("%s, wiped %v: %v", label, wiped, err)
		}
		checkHoldings(t, label+fmt.Sprintf(", wiped %v", wiped), stores, o.Name)
	}
}

// checkHoldings fails unless every rank's holdings record of name derives
// exactly the references its store holds.
func checkHoldings(t *testing.T, label string, stores []*refLog, name string) {
	t.Helper()
	for r, s := range stores {
		want, err := s.list()
		if err != nil {
			t.Fatalf("%s: rank %d: %v", label, r, err)
		}
		blob, err := s.GetBlob(gcName(name, r))
		if err != nil {
			t.Fatalf("%s: rank %d holdings record: %v", label, r, err)
		}
		_, got, err := storedRefs(s, name, blob)
		if err != nil {
			t.Fatalf("%s: rank %d holdings record: %v", label, r, err)
		}
		slices.SortFunc(got, fingerprint.FP.Compare)
		if !slices.Equal(got, want) {
			t.Fatalf("%s: rank %d holdings derive %d references, its store holds %d", label, r, len(got), len(want))
		}
	}
}

// TestHoldingsRoundTrip: a record decodes to what was encoded, bit for
// bit, and every malformed one — either earlier format among them — fails.
func TestHoldingsRoundTrip(t *testing.T) {
	want := holdings{newHolding(2, 11), newHolding(0, 0), newHolding(5, 16)}
	want[0].set(0)
	want[0].set(10)
	want[2].set(9)
	for _, h := range []holdings{nil, want} {
		got, err := unmarshalHoldings(h.marshal())
		if err != nil || !bytes.Equal(got.marshal(), h.marshal()) || !slices.Equal(got.ranks(), h.ranks()) {
			t.Fatalf("round trip of %v: %v %v", h.ranks(), got.ranks(), err)
		}
	}
	enc := want.marshal()
	twice := append(holdings{}, want...)
	twice[1].rank = 2
	fps := []fingerprint.FP{fingerprint.Of([]byte("a"))}
	for name, bad := range map[string][]byte{
		"empty":          nil,
		"truncated":      enc[:len(enc)-1],
		"trailing":       append(slices.Clone(enc), 0),
		"rank twice":     twice.marshal(),
		"refs format":    gcList{refs: fps}.marshal()[:4+fingerprint.Size],
		"refs-held list": gcList{refs: fps, held: []int{1}}.marshal(),
		"empty gc list":  gcList{}.marshal(),
	} {
		if _, err := unmarshalHoldings(bad); err == nil {
			t.Errorf("%s: % x accepted", name, bad)
		}
	}
}

// TestForgetRefusesMismatchedHoldings: a bitmap whose length differs from
// its recipe's count fails Forget before anything is released.
func TestForgetRefusesMismatchedHoldings(t *testing.T) {
	const n = 4
	o := Options{K: 2, Approach: CollDedup, Chunker: chunk.Spec{Size: testPage}, Name: "X"}
	cluster := storage.NewCluster(n)
	dumpAll(t, cluster, ringBuffers(n, false, 0), o)
	s := cluster.Node(0)
	blob, _ := s.GetBlob(gcName("X", 0))
	h, err := unmarshalHoldings(blob)
	if err != nil {
		t.Fatal(err)
	}
	h[0] = newHolding(h[0].rank, h[0].n+1)
	if err := s.PutBlob(gcName("X", 0), h.marshal()); err != nil {
		t.Fatal(err)
	}
	bytes, chunks := s.Usage()
	if err := Forget(s, "X", 0); err == nil || !strings.Contains(err.Error(), "positions") {
		t.Fatalf("forget = %v, want the length mismatch", err)
	}
	if b, c := s.Usage(); b != bytes || c != chunks {
		t.Fatalf("the refused forget released chunks: %d in %d, %d in %d before", b, c, bytes, chunks)
	}
}
