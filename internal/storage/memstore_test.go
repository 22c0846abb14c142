package storage

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"testing"

	"dedupcr/internal/fingerprint"
)

// refStore is the in-memory store as it was before chunk bytes moved into
// arenas — one heap object per chunk — kept as the reference both engines
// are checked against. Its batch put and batch read are per-record loops:
// the oracle an engine's one-pass batch must match.
type refStore struct {
	chunks map[fingerprint.FP]*refChunk
	bytes  int64
	failed bool
}

type refChunk struct {
	data []byte
	sum  uint32
	refs int
}

func newRefStore() *refStore {
	return &refStore{chunks: make(map[fingerprint.FP]*refChunk)}
}

func (s *refStore) PutChunk(fp fingerprint.FP, data []byte) error {
	return s.PutChunkSum(fp, data, fingerprint.ChunkSum(&fp, data))
}

func (s *refStore) PutChunkSum(fp fingerprint.FP, data []byte, sum uint32) error {
	if s.failed {
		return ErrFailed
	}
	if c, ok := s.chunks[fp]; ok {
		c.refs++
		return nil
	}
	s.chunks[fp] = &refChunk{data: append([]byte{}, data...), sum: sum, refs: 1}
	s.bytes += int64(len(data))
	return nil
}

// PutRecords is one PutChunkSum per record.
func (s *refStore) PutRecords(payload []byte, recs []Record) (int, bool, error) {
	for i, r := range recs {
		if err := s.PutChunkSum(r.FP, payload[r.Off:r.Off+r.Len], r.Sum); err != nil {
			return i, false, err
		}
	}
	return len(recs), false, nil
}

func (s *refStore) GetChunk(fp fingerprint.FP) ([]byte, error) {
	data, _, err := s.GetChunkSum(fp)
	return data, err
}

func (s *refStore) GetChunkSum(fp fingerprint.FP) ([]byte, uint32, error) {
	if s.failed {
		return nil, 0, ErrFailed
	}
	c, ok := s.chunks[fp]
	if !ok {
		return nil, 0, chunkNotFound(fp)
	}
	return c.data, c.sum, nil
}

// ReadRecords is one GetChunk, a length compare and a copy per record.
func (s *refStore) ReadRecords(dst []byte, recs []Record, errs []error) {
	for i, r := range recs {
		data, err := s.GetChunk(r.FP)
		if err == nil && len(data) != int(r.Len) {
			data, err = nil, LengthError{Got: len(data), Want: int(r.Len)}
		}
		copy(dst[r.Off:r.Off+r.Len], data)
		errs[i] = err
	}
}

func (s *refStore) ReleaseChunk(fp fingerprint.FP) error {
	if s.failed {
		return ErrFailed
	}
	c, ok := s.chunks[fp]
	if !ok {
		return fmt.Errorf("release chunk %s: %w", fp.Short(), ErrNotFound)
	}
	c.refs--
	if c.refs == 0 {
		s.bytes -= int64(len(c.data))
		delete(s.chunks, fp)
	}
	return nil
}

func (s *refStore) Usage() (int64, int) { return s.bytes, len(s.chunks) }

func (s *refStore) Fail() {
	s.failed = true
	s.chunks = nil
	s.bytes = 0
}

// refsOf is the reference count s's engine holds for fp, 0 if none.
func refsOf(s Store, fp fingerprint.FP) int {
	if t, ok := s.(*Timed); ok {
		s = t.Inner()
	}
	switch s := s.(type) {
	case *memStore:
		s.mu.Lock()
		defer s.mu.Unlock()
		return int(s.index[fp].refs)
	case *SegStore:
		s.mu.Lock()
		defer s.mu.Unlock()
		loc, ok := s.index[fp]
		if !ok {
			return 0
		}
		e, _ := s.entryAtLocked(loc)
		return int(e.Refs)
	}
	panic(fmt.Sprintf("refsOf: no engine behind %T", s))
}

// sameError reports whether two results carry the same error: both nil,
// or the same text and the same answers to errors.Is for the store's two
// sentinels.
func sameError(got, want error) error {
	if (got == nil) != (want == nil) {
		return fmt.Errorf("error %v, reference %v", got, want)
	}
	if got == nil {
		return nil
	}
	if got.Error() != want.Error() {
		return fmt.Errorf("error %q, reference %q", got, want)
	}
	for _, sentinel := range []error{ErrNotFound, ErrFailed} {
		if errors.Is(got, sentinel) != errors.Is(want, sentinel) {
			return fmt.Errorf("errors.Is(%v, %v) = %v, reference %v", got, sentinel, errors.Is(got, sentinel), !errors.Is(got, sentinel))
		}
	}
	return nil
}

// checkArenas asserts the arena store's accounting: dead is exactly what
// the arenas hold beyond the live chunks — an adopted payload counting
// its full capacity — every arena's live count matches the chunks indexed
// into it, no arena without live bytes is kept, and the arenas hold at
// most 2 × live bytes plus one arena.
func checkArenas(s *memStore) error {
	live := make([]int64, len(s.arenas))
	for _, sl := range s.index {
		if sl.arena >= 0 {
			live[sl.arena] += int64(sl.length)
		}
	}
	var held, dead int64
	for a, ar := range s.arenas {
		if ar.live != live[a] {
			return fmt.Errorf("arena %d counts %d live bytes, its chunks have %d", a, ar.live, live[a])
		}
		if ar.buf == nil {
			continue
		}
		if ar.live == 0 {
			return fmt.Errorf("arena %d has no live bytes but was not dropped", a)
		}
		held += int64(len(ar.buf))
		dead += int64(len(ar.buf)) - ar.live
	}
	if dead != s.dead {
		return fmt.Errorf("store counts %d dead bytes, arenas hold %d", s.dead, dead)
	}
	if held > 2*s.bytes+arenaSize {
		return fmt.Errorf("arenas hold %d bytes for %d live", held, s.bytes)
	}
	return nil
}

// drawBatch draws a landed put frame of one to six chunks from pool (fps
// are their fingerprints): mostly chunks the reference does not hold yet
// (fresh-heavy: the store keeps the payload) or mostly chunks it holds
// (mostly duplicates: the store copies the few new ones), with a repeat
// inside the batch now and then. Each record sits behind a 4-byte header,
// the payload exactly sized or with spare capacity.
func drawBatch(rng *rand.Rand, pool [][]byte, fps []fingerprint.FP, want *refStore) ([]byte, []Record) {
	freshHeavy := rng.Intn(2) == 0
	var picks []int
	for n := 1 + rng.Intn(6); len(picks) < n; {
		i := rng.Intn(len(pool))
		_, held := want.chunks[fps[i]]
		switch {
		case len(picks) > 0 && rng.Intn(10) == 0:
			picks = append(picks, picks[rng.Intn(len(picks))])
		case held != freshHeavy || rng.Intn(8) == 0:
			picks = append(picks, i)
		}
	}
	size, spare := 0, 0
	for _, i := range picks {
		size += 4 + len(pool[i])
	}
	if rng.Intn(3) == 0 {
		spare = rng.Intn(size + 1)
	}
	payload := make([]byte, 0, size+spare)
	recs := make([]Record, len(picks))
	for k, i := range picks {
		payload = append(payload, 0, 0, 0, byte(k))
		recs[k] = Record{FP: fps[i], Off: int32(len(payload)), Len: int32(len(pool[i])), Sum: fingerprint.ChunkSum(&fps[i], pool[i])}
		payload = append(payload, pool[i]...)
	}
	return payload, recs
}

// handedOut is a slice GetChunk returned and the bytes it had then.
type handedOut struct {
	data, want []byte
}

// readBatch draws up to eight records over pool, back to back in dst,
// one in six of the wrong length.
func readBatch(rng *rand.Rand, pool [][]byte, fps []fingerprint.FP) []Record {
	recs := make([]Record, 1+rng.Intn(8))
	off := int32(0)
	for k := range recs {
		i := rng.Intn(len(pool))
		n := int32(len(pool[i]))
		if rng.Intn(6) == 0 {
			n++
		}
		recs[k] = Record{FP: fps[i], Off: off, Len: n}
		off += n
	}
	return recs
}

// TestMemStoreMatchesReference drives each engine — the arena store over
// twelve seeds, the same behind Timed over two, and the segment store
// over four — and the reference with the same seeded random sequences of
// puts, landed batches (PutRecords; one PutChunkSum per record for the
// reference), gets, summed gets, batch reads (one GetChunk per record for
// the reference), releases and failures, some landing while a batch is
// under way, over chunk sizes from empty to larger than an arena. Every
// result, error text, errors.Is answer, sum and Usage must agree, and so
// must every reference count a batch touched; every slice GetChunk
// returned must keep its bytes through later puts, releases and repacks
// and have cap == len. On the arena store, after every batch and release
// the arenas hold at most 2 × live bytes plus one arena, an adopted
// payload counting its full capacity, and both fresh-heavy batches
// (adopted) and batches of mostly duplicates (copied) occur. On the
// segment store, batches cross the tail buffer, carry records larger than
// it, and seal a segment with records still to store; and behind Timed a
// batch is one sample.
func TestMemStoreMatchesReference(t *testing.T) {
	for _, e := range []struct {
		engine string
		seeds  int64
	}{{"mem", 12}, {"timed", 2}, {"seg", 4}} {
		t.Run(e.engine, func(t *testing.T) { matchReference(t, e.engine, e.seeds) })
	}
}

func matchReference(t *testing.T, engine string, seeds int64) {
	repacks, drops, adopted, copied, failedBatches := 0, 0, 0, 0, 0
	crossed, oversized, sealedMid, repeated, spanned := 0, 0, 0, 0, 0
	for seed := int64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pool := make([][]byte, 24+rng.Intn(40))
		poolFPs := make([]fingerprint.FP, len(pool))
		for i := range pool {
			var size int
			switch k := rng.Intn(20); {
			case k == 0:
				size = 0
			case k == 1:
				size = arenaSize + 1 + rng.Intn(arenaSize/2)
			case k < 5:
				size = arenaSize/4 + rng.Intn(arenaSize/2)
			default:
				size = 1 + rng.Intn(16<<10)
			}
			pool[i] = make([]byte, size)
			rng.Read(pool[i])
			poolFPs[i] = fingerprint.Of(pool[i])
		}
		var got Store
		var mem *memStore // the arena store under got, if it is one
		var seg *SegStore
		switch engine {
		case "mem":
			mem = NewMem().(*memStore)
			got = mem
		case "timed":
			mem = NewMem().(*memStore)
			got = NewTimed(mem)
		default:
			dir := t.TempDir()
			var err error
			if seg, err = NewSegStore(dir, SegConfig{SegmentTarget: 512 << 10}); err != nil {
				t.Fatal(err)
			}
			got = seg
			defer os.RemoveAll(dir)
			defer seg.Close()
		}
		timed, _ := got.(*Timed)
		want := newRefStore()
		var out []handedOut
		verifyOut := func(step int) {
			for j, h := range out {
				if !bytes.Equal(h.data, h.want) {
					t.Fatalf("seed %d step %d: slice %d handed out earlier changed its bytes", seed, step, j)
				}
			}
		}
		steps := 1500 + rng.Intn(1500)
		for step := 0; step < steps; step++ {
			pick := rng.Intn(len(pool))
			data, fp := pool[pick], poolFPs[pick]
			var err error
			switch op := rng.Intn(100); {
			case op < 30:
				err = sameError(got.PutChunk(fp, data), want.PutChunk(fp, data))
			case op < 40:
				payload, recs := drawBatch(rng, pool, poolFPs, want)
				newBytes, seen, dup, big := 0, map[fingerprint.FP]bool{}, false, false
				start, end := int32(-1), int32(0) // the span of the new records
				for _, r := range recs {
					if _, ok := want.chunks[r.FP]; !ok && !seen[r.FP] {
						newBytes += int(r.Len)
						big = big || r.Len > segTailBytes
						if start < 0 {
							start = r.Off
						}
						end = r.Off + r.Len
					}
					dup = dup || seen[r.FP]
					seen[r.FP] = true
				}
				var tail, seals, writes int64
				if seg != nil {
					tail, seals = int64(len(seg.tail)), seg.Stats().Seals
				}
				if timed != nil {
					writes = timed.WriteLatency().Count()
				}
				gn, gkept, gerr := got.PutRecords(payload, recs)
				wn, _, werr := want.PutRecords(payload, recs)
				if err = sameError(gerr, werr); err == nil && gn != wn {
					err = fmt.Errorf("PutRecords stored %d records, reference %d", gn, wn)
				}
				for _, r := range recs {
					if g, w := refsOf(got, r.FP), want.chunks[r.FP]; err == nil && w != nil && g != w.refs {
						err = fmt.Errorf("after PutRecords %s has %d references, reference %d", r.FP.Short(), g, w.refs)
					}
				}
				if timed != nil && err == nil && timed.WriteLatency().Count() != writes+1 {
					err = fmt.Errorf("a batch of %d records recorded %d write samples, want 1", len(recs), timed.WriteLatency().Count()-writes)
				}
				if got.Failed() || err != nil {
					break
				}
				if seg != nil {
					if gkept {
						err = fmt.Errorf("the segment store kept a batch's payload")
						break
					}
					if start >= 0 && end-start >= segTailBytes {
						spanned++
					}
					switch {
					case big:
						oversized++
					case tail+int64(newBytes) > segTailBytes:
						crossed++
					}
					if seg.Stats().Seals > seals && seg.active != nil && len(seg.active.entries) > 0 {
						sealedMid++
					}
					if dup {
						repeated++
					}
					break
				}
				if err = checkArenas(mem); err != nil {
					break
				}
				kept := false
				for _, ar := range mem.arenas {
					kept = kept || cap(payload) > 0 && cap(ar.buf) == cap(payload) && &ar.buf[:1][0] == &payload[:1][0]
				}
				switch adopt := newBytes > 0 && 2*newBytes >= cap(payload); {
				case kept != adopt || gkept != kept:
					err = fmt.Errorf("batch of %d new bytes in a payload of capacity %d: kept %v, reported kept %v", newBytes, cap(payload), kept, gkept)
				case kept:
					adopted++
				case newBytes > 0:
					copied++
				}
			case op < 50:
				g, gerr := got.GetChunk(fp)
				w, werr := want.GetChunk(fp)
				err = sameError(gerr, werr)
				switch {
				case err != nil:
				case !bytes.Equal(g, w) || (g == nil) != (w == nil):
					err = fmt.Errorf("GetChunk returned %d bytes, reference %d", len(g), len(w))
				case cap(g) != len(g):
					err = fmt.Errorf("GetChunk returned cap %d for %d bytes", cap(g), len(g))
				case gerr == nil && len(g) > 0:
					if len(out) < 48 {
						out = append(out, handedOut{g, bytes.Clone(g)})
					} else {
						out[rng.Intn(len(out))] = handedOut{g, bytes.Clone(g)}
					}
				}
			case op < 55:
				g, gs, gerr := got.GetChunkSum(fp)
				w, ws, werr := want.GetChunkSum(fp)
				if err = sameError(gerr, werr); err == nil && (!bytes.Equal(g, w) || gs != ws) {
					err = fmt.Errorf("GetChunkSum returned %d bytes under %08x, reference %d under %08x", len(g), gs, len(w), ws)
				}
			case op < 65:
				recs := readBatch(rng, pool, poolFPs)
				end := recs[len(recs)-1].Off + recs[len(recs)-1].Len
				gdst, gerrs := make([]byte, end), make([]error, len(recs))
				wdst, werrs := make([]byte, end), make([]error, len(recs))
				got.ReadRecords(gdst, recs, gerrs)
				want.ReadRecords(wdst, recs, werrs)
				for i := range recs {
					if err = sameError(gerrs[i], werrs[i]); err != nil {
						err = fmt.Errorf("ReadRecords record %d: %v", i, err)
						break
					}
				}
				if err == nil && !bytes.Equal(gdst, wdst) {
					err = fmt.Errorf("ReadRecords placed other bytes than the reference")
				}
			case op < 99 || step < steps-100:
				// A release that repacks moves every live chunk: watch one.
				var watch fingerprint.FP
				var before *byte
				for wfp, c := range want.chunks {
					if mem != nil && len(c.data) > 0 && wfp != fp {
						watch = wfp
						b, _ := got.GetChunk(wfp)
						before = &b[0]
						break
					}
				}
				var freeBefore int
				if mem != nil {
					freeBefore = len(mem.free)
				}
				err = sameError(got.ReleaseChunk(fp), want.ReleaseChunk(fp))
				if err != nil || mem == nil || got.Failed() {
					break
				}
				err = checkArenas(mem)
				if before != nil {
					if b, gerr := got.GetChunk(watch); gerr == nil && &b[0] != before {
						repacks++
					}
				}
				if len(mem.free) > freeBefore {
					drops++
				}
			case rng.Intn(2) == 0:
				got.Fail()
				want.Fail()
			default:
				// The node fails while a batch is being stored: the batch
				// holds the store, so it lands whole, before the failure, or
				// not at all.
				payload, recs := drawBatch(rng, pool, poolFPs, want)
				var gn int
				var gerr error
				done := make(chan struct{})
				go func() {
					defer close(done)
					gn, _, gerr = got.PutRecords(payload, recs)
				}()
				got.Fail()
				<-done
				switch {
				case gn == len(recs) && gerr == nil:
					_, _, err = want.PutRecords(payload, recs)
				case gn != 0 || !errors.Is(gerr, ErrFailed):
					err = fmt.Errorf("a batch of %d records racing Fail stored %d: %v", len(recs), gn, gerr)
				}
				want.Fail()
				failedBatches++
			}
			if err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			gb, gn := got.Usage()
			wb, wn := want.Usage()
			if gb != wb || gn != wn {
				t.Fatalf("seed %d step %d: Usage %d bytes / %d chunks, reference %d / %d", seed, step, gb, gn, wb, wn)
			}
			if step%32 == 0 {
				verifyOut(step)
			}
		}
		verifyOut(steps)
		// Release everything left: the store ends with no arena at all.
		for fp, c := range want.chunks {
			for c.refs > 0 {
				if err := sameError(got.ReleaseChunk(fp), want.ReleaseChunk(fp)); err != nil {
					t.Fatalf("seed %d draining: %v", seed, err)
				}
			}
		}
		if mem != nil && !mem.failed {
			if err := checkArenas(mem); err != nil {
				t.Fatalf("seed %d drained: %v", seed, err)
			}
			for a, ar := range mem.arenas {
				if ar.buf != nil {
					t.Fatalf("seed %d: arena %d survives an empty store", seed, a)
				}
			}
		}
		verifyOut(steps)
	}
	switch {
	case engine == "seg":
		if crossed == 0 || oversized == 0 || sealedMid == 0 || repeated == 0 || spanned == 0 {
			t.Fatalf("test premise: %d batches crossing the tail buffer, %d with a record larger than it, %d sealing a segment mid-batch, %d repeating a chunk, %d written from the payload; want all", crossed, oversized, sealedMid, repeated, spanned)
		}
		t.Logf("%d batches crossing the tail buffer, %d with a record larger than it, %d sealing mid-batch, %d repeating a chunk, %d written from the payload, %d racing a failure", crossed, oversized, sealedMid, repeated, spanned, failedBatches)
		return
	case engine == "mem" && failedBatches == 0:
		t.Fatal("test premise: no node failed while a batch was stored")
	case repacks == 0 || drops == 0 || adopted == 0 || copied == 0:
		t.Fatalf("test premise: %d repacks, %d arena drops, %d adopted and %d copied batches over all seeds, want all", repacks, drops, adopted, copied)
	}
	t.Logf("%d repacks, %d arena drops, %d adopted and %d copied batches, %d racing a failure", repacks, drops, adopted, copied, failedBatches)
}

// TestMemStoreRepack walks the two reclamation rules by hand: emptying a
// whole arena drops it, and releasing most of the rest repacks the live
// chunks into fresh arenas, while every slice handed out before keeps its
// bytes.
func TestMemStoreRepack(t *testing.T) {
	const size, perArena = 16 << 10, arenaSize / (16 << 10)
	s := NewMem().(*memStore)
	var fps []fingerprint.FP
	var out []handedOut
	for i := 0; i < 4*perArena; i++ {
		data := bytes.Repeat([]byte{byte(i), byte(i >> 8)}, size/2)
		fp := fingerprint.Of(data)
		if err := s.PutChunk(fp, data); err != nil {
			t.Fatal(err)
		}
		got, err := s.GetChunk(fp)
		if err != nil {
			t.Fatal(err)
		}
		fps = append(fps, fp)
		out = append(out, handedOut{got, data})
	}
	if len(s.arenas) != 4 || s.dead != 0 {
		t.Fatalf("%d arenas, %d dead bytes after filling four", len(s.arenas), s.dead)
	}
	for _, fp := range fps[:perArena] {
		if err := s.ReleaseChunk(fp); err != nil {
			t.Fatal(err)
		}
	}
	if s.arenas[0].buf != nil || len(s.free) != 1 || s.dead != 0 {
		t.Fatalf("first arena emptied: buf nil=%v, %d free, %d dead; want dropped", s.arenas[0].buf == nil, len(s.free), s.dead)
	}
	// Release two of every three of the rest: dead passes live and one
	// arena on the way, and the survivors move.
	moved := false
	for i, fp := range fps[perArena:] {
		if i%3 == 2 {
			continue
		}
		if err := s.ReleaseChunk(fp); err != nil {
			t.Fatal(err)
		}
		if err := checkArenas(s); err != nil {
			t.Fatal(err)
		}
		if s.dead == 0 {
			moved = true
		}
	}
	if !moved {
		t.Fatal("no repack while releasing two thirds of three arenas")
	}
	for i, fp := range fps[perArena:] {
		got, err := s.GetChunk(fp)
		if i%3 != 2 {
			if !errors.Is(err, ErrNotFound) {
				t.Fatalf("released chunk %d: %v", i, err)
			}
			continue
		}
		if err != nil || !bytes.Equal(got, out[perArena+i].want) || cap(got) != len(got) {
			t.Fatalf("surviving chunk %d after repack: %d bytes (cap %d), %v", i, len(got), cap(got), err)
		}
	}
	for i, h := range out {
		if !bytes.Equal(h.data, h.want) {
			t.Fatalf("slice of chunk %d handed out before the repack changed", i)
		}
	}
}

// TestMemStoreConcurrentReaders: readers fetch chunks and check their
// bytes while another goroutine puts, releases and repacks. Under -race
// this is the proof that no arena is written once its bytes are handed
// out.
func TestMemStoreConcurrentReaders(t *testing.T) {
	s := NewMem().(*memStore)
	chunks := make([][]byte, 64)
	fps := make([]fingerprint.FP, len(chunks))
	for i := range chunks {
		chunks[i] = bytes.Repeat([]byte{byte(i), byte(i * 7)}, 2<<10+i*256)
		fps[i] = fingerprint.Of(chunks[i])
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, 3)
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				i := rng.Intn(len(chunks))
				got, err := s.GetChunk(fps[i])
				if err == nil && !bytes.Equal(got, chunks[i]) {
					errs <- fmt.Errorf("reader %d: chunk %d read back wrong", r, i)
					return
				}
			}
		}(r)
	}
	// Chunk 0 stays put throughout: only a repack moves it.
	if err := s.PutChunk(fps[0], chunks[0]); err != nil {
		t.Fatal(err)
	}
	at := func() *byte {
		b, err := s.GetChunk(fps[0])
		if err != nil {
			t.Fatal(err)
		}
		return &b[0]
	}
	rng := rand.New(rand.NewSource(9))
	refs := make([]int, len(chunks))
	repacks, was := 0, at()
	for step := 0; step < 20000; step++ {
		i := 1 + rng.Intn(len(chunks)-1)
		if rng.Intn(100) < 55 {
			if err := s.PutChunk(fps[i], chunks[i]); err != nil {
				t.Fatal(err)
			}
			refs[i]++
			continue
		}
		if refs[i] == 0 {
			continue
		}
		if err := s.ReleaseChunk(fps[i]); err != nil {
			t.Fatal(err)
		}
		refs[i]--
		if now := at(); now != was {
			repacks, was = repacks+1, now
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if repacks == 0 {
		t.Fatal("test premise: the writer never repacked")
	}
}
