package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"dedupcr/internal/chunk"
	"dedupcr/internal/collectives"
	"dedupcr/internal/fetch"
	"dedupcr/internal/fingerprint"
	"dedupcr/internal/metrics"
	"dedupcr/internal/storage"
)

// countingStore counts the records its batch reads ask for, per
// fingerprint.
type countingStore struct {
	storage.Store
	mu    sync.Mutex
	reads map[fingerprint.FP]int
}

func newCountingStore(s storage.Store) *countingStore {
	return &countingStore{Store: s, reads: make(map[fingerprint.FP]int)}
}

func (s *countingStore) ReadRecords(dst []byte, recs []storage.Record, errs []error) {
	s.mu.Lock()
	for _, r := range recs {
		s.reads[r.FP]++
	}
	s.mu.Unlock()
	s.Store.ReadRecords(dst, recs, errs)
}

// readTwice lists the fingerprints read more than once.
func (s *countingStore) readTwice() []fingerprint.FP {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []fingerprint.FP
	for fp, n := range s.reads {
		if n > 1 {
			out = append(out, fp)
		}
	}
	return out
}

// randomImage draws a recipe over a small pool of chunks, so positions
// repeat, and returns the meta, the image it describes and the pool. A
// few chunks are short, and some fingerprints carry hints.
func randomImage(rng *rand.Rand, n int) (*RestoreMeta, []byte, [][]byte) {
	pool := make([][]byte, 1+rng.Intn(12))
	for i := range pool {
		pool[i] = page(fmt.Sprintf("walk-%d-%d", rng.Int63(), i))
		if rng.Intn(4) == 0 {
			pool[i] = pool[i][:rng.Intn(testPage)]
		}
	}
	meta := &RestoreMeta{Hints: make(map[fingerprint.FP][]int32)}
	var image []byte
	for i, positions := 0, rng.Intn(40); i < positions; i++ {
		data := pool[rng.Intn(len(pool))]
		meta.Recipe.FPs = append(meta.Recipe.FPs, fingerprint.Of(data))
		meta.Recipe.Sizes = append(meta.Recipe.Sizes, int32(len(data)))
		image = append(image, data...)
	}
	for _, data := range pool {
		if rng.Intn(2) == 0 {
			meta.Hints[fingerprint.Of(data)] = []int32{int32(rng.Intn(n)), int32(rng.Intn(n))}
		}
	}
	return meta, image, pool
}

// walkWith runs the local walk alone, as rank comm.Rank() of comm's group.
func walkWith(comm collectives.Comm, store storage.Store, meta *RestoreMeta) (*assembly, error) {
	a := &assembly{comm: comm, store: store, meta: meta, m: &metrics.Restore{RunLengths: metrics.NewHistogram()}}
	return a, a.walk()
}

// TestWalkReadsEachDistinctOnce: over random recipes full of repeats, the
// walk reads (and so hashes) each distinct fingerprint from the store
// exactly once, whether the store serves everything, nothing, or dies
// after its first read, and UniqueChunks always equals the number of
// distinct fingerprints in the recipe. A full store places the whole
// image; otherwise every fingerprint the store did not serve is one hole,
// queued once, with its later positions waiting as repeats.
func TestWalkReadsEachDistinctOnce(t *testing.T) {
	const n = 4
	comm := startComms(t, "inproc", n)[1]
	rng := rand.New(rand.NewSource(28))
	for trial := 0; trial < 300; trial++ {
		meta, image, pool := randomImage(rng, n)
		unique := meta.Recipe.Unique()
		for _, state := range []string{"full", "wiped", "fails mid-walk"} {
			mem := storage.NewMem()
			if state != "wiped" {
				for _, data := range pool {
					if err := mem.PutChunk(fingerprint.Of(data), data); err != nil {
						t.Fatal(err)
					}
				}
			}
			counted := newCountingStore(mem)
			var store storage.Store = counted
			if state == "fails mid-walk" {
				store = &failingStore{Store: counted}
			}
			a, err := walkWith(comm, store, meta)
			if err != nil {
				t.Fatalf("trial %d, %s store: %v", trial, state, err)
			}
			if twice := counted.readTwice(); len(twice) > 0 {
				t.Fatalf("trial %d, %s store: %d fingerprints read more than once", trial, state, len(twice))
			}
			if len(counted.reads) != len(unique) {
				t.Fatalf("trial %d, %s store: %d fingerprints read, recipe has %d", trial, state, len(counted.reads), len(unique))
			}
			if a.m.UniqueChunks != len(unique) {
				t.Fatalf("trial %d, %s store: UniqueChunks %d, recipe has %d distinct", trial, state, a.m.UniqueChunks, len(unique))
			}
			queued := 0
			for _, q := range a.peers {
				queued += len(q.queue)
			}
			wantHoles := map[string]int{"full": 0, "wiped": len(unique), "fails mid-walk": max(0, len(unique)-1)}[state]
			if len(a.holes) != wantHoles || queued != wantHoles {
				t.Fatalf("trial %d, %s store: %d holes, %d queued; want %d", trial, state, len(a.holes), queued, wantHoles)
			}
			// Every later position of a hole waits as a repeat, and a hole
			// knows whether it has any.
			positions := make(map[fingerprint.FP]int)
			for _, fp := range meta.Recipe.FPs {
				positions[fp]++
			}
			later := 0
			for _, h := range a.holes {
				later += positions[h.fp] - 1
				if h.later != (positions[h.fp] > 1) {
					t.Fatalf("trial %d, %s store: hole %s marked later=%v at %d positions", trial, state, h.fp.Short(), h.later, positions[h.fp])
				}
			}
			if len(a.repeats) != later {
				t.Fatalf("trial %d, %s store: %d repeats for %d later positions of holes", trial, state, len(a.repeats), later)
			}
			if state == "full" && !bytes.Equal(a.buf, image) {
				t.Fatalf("trial %d: full store walk placed the wrong image", trial)
			}
		}
	}
}

// scribble corrupts fp's bytes inside an in-memory store by writing
// through the slice GetChunk returned: the arena itself changes, under
// the sum the store took at put.
func scribble(t *testing.T, s storage.Store, fp fingerprint.FP) {
	t.Helper()
	data, err := s.GetChunk(fp)
	if err != nil || len(data) == 0 {
		t.Fatalf("scribble %s: %d bytes, %v", fp.Short(), len(data), err)
	}
	data[0] ^= 1
}

// openSeg opens a segment store at dir, closed when the test ends.
func openSeg(t *testing.T, dir string) *storage.SegStore {
	t.Helper()
	s, err := storage.NewSegStore(dir, storage.SegConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// flipOnDisk closes the segment store s at dir, flips one byte of data
// where it sits in a committed segment file, and reopens the store.
func flipOnDisk(t *testing.T, s *storage.SegStore, dir string, data []byte) *storage.SegStore {
	t.Helper()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "segments", "*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if i := bytes.Index(raw, data); i >= 0 {
			raw[i] ^= 1
			if err := os.WriteFile(f, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			return openSeg(t, dir)
		}
	}
	t.Fatalf("no segment file under %s holds the chunk", dir)
	return nil
}

// TestWalkChecksEveryPosition: reading a fingerprint once does not mean
// checking it once. A repeat whose recipe size differs from the first
// position's fails with the same text a re-read would have produced; a
// repeated hole of a different size fails as before; a chunk whose bytes
// changed inside the store — scribbled into a memory arena, or flipped in
// a sealed segment file — fails the walk at its first position.
func TestWalkChecksEveryPosition(t *testing.T) {
	comm := startComms(t, "inproc", 3)[0]
	a, b := page("check-a"), page("check-b")
	fa, fb := fingerprint.Of(a), fingerprint.Of(b)
	meta := &RestoreMeta{Recipe: chunk.Recipe{
		FPs:   []fingerprint.FP{fa, fb, fa},
		Sizes: []int32{int32(len(a)), int32(len(b)), int32(len(a)) - 1},
	}}
	fill := func(s storage.Store) storage.Store {
		for _, data := range [][]byte{a, b} {
			if err := s.PutChunk(fingerprint.Of(data), data); err != nil {
				t.Fatal(err)
			}
		}
		return s
	}
	full, scribbled := fill(storage.NewMem()), fill(storage.NewMem())
	scribble(t, scribbled, fb)
	dir := t.TempDir()
	seg := fill(openSeg(t, dir)).(*storage.SegStore)
	flipped := flipOnDisk(t, seg, dir, b)
	mismatch := fmt.Sprintf("chunk 1: content does not match fingerprint %s", fb.Short())
	for _, tc := range []struct {
		name  string
		store storage.Store
		want  string
	}{
		{"placed repeat, other size", full,
			fmt.Sprintf("chunk 2 (%s): got %d bytes, recipe says %d", fa.Short(), len(a), len(a)-1)},
		{"hole repeat, other size", storage.NewMem(),
			fmt.Sprintf("chunk 2 (%s): recipe says %d bytes here and %d earlier", fa.Short(), len(a)-1, len(a))},
		{"corrupt chunk in memory", scribbled, mismatch},
		{"corrupt chunk on disk", flipped, mismatch},
	} {
		if _, err := walkWith(comm, tc.store, meta); err == nil || err.Error() != tc.want {
			t.Errorf("%s: walk error %v, want %q", tc.name, err, tc.want)
		}
	}
}

// TestRestoreReadsEachLocalChunkOnce: on either engine, a whole restore
// of one rank reads its local store once per distinct fingerprint of its
// recipe — the chunks it holds and the ones it then fetches — and a local
// chunk whose bytes changed inside the store fails the restore on every
// rank before any image is returned.
func TestRestoreReadsEachLocalChunkOnce(t *testing.T) {
	const n, k, r = 6, 3, 2
	o := Options{K: k, Approach: CollDedup, Chunker: chunk.Spec{Size: testPage}, Name: "ck"}
	private := page(fmt.Sprintf("uniq-%d-0", r)) // rank r's own, not asked of it by anyone else
	bad := fingerprint.Of(private)
	for _, engine := range []string{"mem", "seg"} {
		t.Run(engine, func(t *testing.T) {
			stores := make([]storage.Store, n)
			dirs := make([]string, n)
			for i := range stores {
				if engine == "mem" {
					stores[i] = storage.NewMem()
				} else {
					dirs[i] = t.TempDir()
					stores[i] = openSeg(t, dirs[i])
				}
			}
			_, buffers := dumpInto(t, stores, o)
			engineStore := stores[r]
			counted := newCountingStore(engineStore)
			stores[r] = counted
			res := restoreAlone(t, stores, r, "ck")
			if !bytes.Equal(res.Data, buffers[r]) {
				t.Fatal("restored bytes differ")
			}
			if twice := counted.readTwice(); len(twice) > 0 {
				t.Fatalf("%d fingerprints read from the local store more than once", len(twice))
			}
			if m := res.Metrics; len(counted.reads) != m.UniqueChunks || m.TotalChunks <= m.UniqueChunks || m.FetchedChunks == 0 {
				t.Fatalf("%d local reads for %d distinct of %d positions (%d fetched); want one read per distinct, and repeats and fetches in the recipe",
					len(counted.reads), m.UniqueChunks, m.TotalChunks, m.FetchedChunks)
			}

			if !held(engineStore, bad) {
				t.Fatal("test premise: rank r does not hold its own unique page")
			}
			if engine == "mem" {
				scribble(t, engineStore, bad)
				stores[r] = engineStore
			} else {
				stores[r] = flipOnDisk(t, engineStore.(*storage.SegStore), dirs[r], private)
			}
			results := make([]*RestoreResult, n)
			errs := runRanks(t, n, 30*time.Second, func(c collectives.Comm) error {
				var err error
				results[c.Rank()], err = RestoreOutputCtx(context.Background(), c, stores[c.Rank()], "ck", nil)
				return err
			})
			for rank, err := range errs {
				var ce *collectives.CollectiveError
				if !errors.As(err, &ce) || results[rank] != nil {
					t.Errorf("rank %d: %v (image returned: %v), want a *CollectiveError and no image", rank, err, results[rank] != nil)
				}
			}
			if errs[r] == nil || !strings.Contains(errs[r].Error(), "content does not match fingerprint "+bad.Short()) {
				t.Errorf("rank %d: %v, want the walk's fingerprint mismatch", r, errs[r])
			}
		})
	}
}

// slowStore sleeps before every chunk its fetch server reads.
type slowStore struct {
	storage.Store
	delay time.Duration
}

func (s slowStore) GetChunkSum(fp fingerprint.FP) ([]byte, uint32, error) {
	time.Sleep(s.delay)
	return s.Store.GetChunkSum(fp)
}

// orderComm records, off the fetch protocol on the wire (see depthComm),
// the exchange ids this rank asked in order and the ids of the replies in
// the order they arrived.
type orderComm struct {
	collectives.Comm
	mu            sync.Mutex
	asked, landed []uint32
	peerOf        map[uint32]int
}

// Base lets the abort protocol reach the transport.
func (o *orderComm) Base() collectives.Comm { return o.Comm }

func (o *orderComm) Send(to int, tag collectives.Tag, data []byte) error {
	if tag == collectives.WildcardTag(0) && len(data) >= 9 && data[0] == 3 {
		o.mu.Lock()
		id := binary.BigEndian.Uint32(data[5:])
		o.asked = append(o.asked, id)
		o.peerOf[id] = to
		o.mu.Unlock()
	}
	return o.Comm.Send(to, tag, data)
}

func (o *orderComm) Recv(from int, tag collectives.Tag) ([]byte, error) {
	data, err := o.Comm.Recv(from, tag)
	if err == nil && tag == collectives.WildcardTag(1+uint32(o.Rank())) && len(data) >= 5 && data[0] == 2 {
		o.mu.Lock()
		o.landed = append(o.landed, binary.BigEndian.Uint32(data[1:]))
		o.mu.Unlock()
	}
	return data, err
}

// TestRepliesFillTheirOwnHoles: rank 0 has nothing and pulls its image
// from two peers, each holding half of it, several requests' worth each.
// The first peer asked is slow, so replies land out of the order they
// were asked in, interleaved across peers. Each reply still fills exactly
// the holes of its own request: no record is rejected, every chunk is
// asked once, and the image is byte-identical — in-proc and over TCP.
func TestRepliesFillTheirOwnHoles(t *testing.T) {
	const n, chunkSize, perPeer = 3, 64 << 10, 40 // ~2.5 MiB per peer: three requests each
	for _, transport := range []string{"inproc", "tcp"} {
		t.Run(transport, func(t *testing.T) {
			stores := []storage.Store{storage.NewMem(), storage.NewMem(), storage.NewMem()}
			meta := &RestoreMeta{Rank: 0, K: 2, Hints: make(map[fingerprint.FP][]int32)}
			rng := rand.New(rand.NewSource(4))
			content := make(map[fingerprint.FP][]byte)
			var order []fingerprint.FP
			for i := 0; i < 2*perPeer; i++ {
				data := make([]byte, chunkSize)
				rng.Read(data)
				fp := fingerprint.Of(data)
				holder := 1 + i%2
				if err := stores[holder].PutChunk(fp, data); err != nil {
					t.Fatal(err)
				}
				meta.Hints[fp] = []int32{int32(holder)}
				content[fp] = data
				order = append(order, fp)
			}
			// Every chunk twice: once in order, once in reverse.
			meta.Recipe.FPs = append(slices.Clone(order), order...)
			slices.Reverse(meta.Recipe.FPs[len(order):])
			var image []byte
			for _, fp := range meta.Recipe.FPs {
				meta.Recipe.Sizes = append(meta.Recipe.Sizes, chunkSize)
				image = append(image, content[fp]...)
			}
			blob, err := meta.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			if err := stores[0].PutBlob(metaName("img", 0), blob); err != nil {
				t.Fatal(err)
			}
			stores[1] = slowStore{stores[1], 300 * time.Microsecond}

			comms := startComms(t, transport, n)
			rec := &orderComm{Comm: comms[0], peerOf: make(map[uint32]int)}
			comms[0] = rec
			var res *RestoreResult
			runComms(t, comms, func(c collectives.Comm) error {
				if c.Rank() == 0 {
					var err error
					res, err = RestoreOutputCtx(context.Background(), c, stores[0], "img", nil)
					return err
				}
				srv := fetch.Serve(c, stores[c.Rank()], fetchClass)
				defer srv.Stop()
				return collectives.Barrier(c)
			})
			if !bytes.Equal(res.Data, image) {
				t.Fatal("restored image differs")
			}
			if m := res.Metrics; m.FetchMisses != 0 || m.FetchRequests != 2*perPeer || m.FetchedChunks != 2*perPeer {
				t.Fatalf("%d asks, %d misses, %d fetched; want %d, 0, %d: a reply filled another request's holes",
					m.FetchRequests, m.FetchMisses, m.FetchedChunks, 2*perPeer, 2*perPeer)
			}
			// Premise: the slow peer was asked first, the fast one answered
			// first.
			if len(rec.asked) < 4 || rec.peerOf[rec.asked[0]] != 1 || rec.peerOf[rec.landed[0]] != 2 {
				t.Fatalf("test premise: asked %v, landed %v (peers %v); want rank 1 asked first and rank 2 answering first",
					rec.asked, rec.landed, rec.peerOf)
			}
		})
	}
}

// oneByOne reads a batch one record at a time, as the walk did before it
// batched: the engine's batch read never sees two records at once.
type oneByOne struct{ storage.Store }

func (s oneByOne) ReadRecords(dst []byte, recs []storage.Record, errs []error) {
	for i := range recs {
		s.Store.ReadRecords(dst, recs[i:i+1], errs[i:i+1])
	}
}

// TestWalkBatchesMatchOneByOne: over recipes long enough to fill many
// batches — by record count and by image span — with repeats near and far
// and a store missing some chunks, the batched walk on a segment store
// places the same image and files the same holes and repeats as a walk
// reading one chunk at a time.
func TestWalkBatchesMatchOneByOne(t *testing.T) {
	comm := startComms(t, "inproc", 4)[2]
	rng := rand.New(rand.NewSource(44))
	for trial := 0; trial < 4; trial++ {
		pool := make([][]byte, 400+rng.Intn(400))
		for i := range pool {
			pool[i] = make([]byte, rng.Intn(3000))
			rng.Read(pool[i])
		}
		seg := openSeg(t, t.TempDir())
		for _, data := range pool {
			if rng.Intn(5) > 0 {
				if err := seg.PutChunk(fingerprint.Of(data), data); err != nil {
					t.Fatal(err)
				}
			}
		}
		if trial%2 == 0 {
			if err := seg.Commit(); err != nil {
				t.Fatal(err)
			}
		}
		meta := &RestoreMeta{Hints: map[fingerprint.FP][]int32{}}
		for i := 0; i < 2500; i++ {
			k := rng.Intn(len(pool))
			if rng.Intn(2) == 0 { // mostly forward, so repeats land near their first position
				k = min(len(pool)-1, i*len(pool)/2500+rng.Intn(8))
			}
			meta.Recipe.FPs = append(meta.Recipe.FPs, fingerprint.Of(pool[k]))
			meta.Recipe.Sizes = append(meta.Recipe.Sizes, int32(len(pool[k])))
		}
		timed, one := storage.NewTimed(seg), storage.NewTimed(seg)
		batched, err := walkWith(comm, timed, meta)
		if err != nil {
			t.Fatal(err)
		}
		single, err := walkWith(comm, oneByOne{one}, meta)
		if err != nil {
			t.Fatal(err)
		}
		if n := one.ReadLatency().Count(); n != int64(single.m.UniqueChunks) || timed.ReadLatency().Count() >= n {
			t.Fatalf("trial %d: test premise: %d reads one by one for %d distinct, %d batched; want one per distinct, and fewer batched",
				trial, n, single.m.UniqueChunks, timed.ReadLatency().Count())
		}
		if !bytes.Equal(batched.buf, single.buf) {
			t.Fatalf("trial %d: the batched walk placed another image", trial)
		}
		if fmt.Sprint(batched.holes) != fmt.Sprint(single.holes) || batched.m.UniqueChunks != single.m.UniqueChunks {
			t.Fatalf("trial %d: batched walk filed %d holes of %d distinct, one by one %d of %d",
				trial, len(batched.holes), batched.m.UniqueChunks, len(single.holes), single.m.UniqueChunks)
		}
		byDst := func(a, b repeat) int { return int(a.dst - b.dst) }
		slices.SortFunc(batched.repeats, byDst)
		slices.SortFunc(single.repeats, byDst)
		if !slices.Equal(batched.repeats, single.repeats) || len(batched.holes) == 0 || len(single.repeats) == 0 {
			t.Fatalf("trial %d: %d repeats batched, %d one by one, %d holes; want the same repeats, and some",
				trial, len(batched.repeats), len(single.repeats), len(batched.holes))
		}
	}
}
