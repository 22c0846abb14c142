package storage

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"dedupcr/internal/fingerprint"
)

// refStore is the in-memory store as it was before chunk bytes moved into
// arenas — one heap object per chunk — kept as the reference the arena
// store is checked against.
type refStore struct {
	chunks map[fingerprint.FP]*refChunk
	bytes  int64
	failed bool
}

type refChunk struct {
	data []byte
	refs int
}

func newRefStore() *refStore {
	return &refStore{chunks: make(map[fingerprint.FP]*refChunk)}
}

func (s *refStore) PutChunk(fp fingerprint.FP, data []byte) error {
	if s.failed {
		return ErrFailed
	}
	if c, ok := s.chunks[fp]; ok {
		c.refs++
		return nil
	}
	s.chunks[fp] = &refChunk{data: append([]byte{}, data...), refs: 1}
	s.bytes += int64(len(data))
	return nil
}

func (s *refStore) GetChunk(fp fingerprint.FP) ([]byte, error) {
	if s.failed {
		return nil, ErrFailed
	}
	c, ok := s.chunks[fp]
	if !ok {
		return nil, chunkNotFound(fp)
	}
	return c.data, nil
}

func (s *refStore) HasChunk(fp fingerprint.FP) (bool, error) {
	if s.failed {
		return false, ErrFailed
	}
	_, ok := s.chunks[fp]
	return ok, nil
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

// TestMemStoreMatchesReference drives the arena store and the reference
// with the same seeded random sequences of puts, landed batches
// (PutRecords; one PutChunk per record for the reference), gets,
// has-checks, releases and failures, over chunk sizes from empty to
// larger than an arena. Every result, error text, errors.Is answer and
// Usage must agree; every slice GetChunk returned must keep its bytes
// through later puts, releases and repacks and have cap == len; and after
// every batch and release the arenas hold at most 2 × live bytes plus one
// arena, an adopted payload counting its full capacity. Both fresh-heavy
// batches (adopted) and batches of mostly duplicates (copied) occur.
func TestMemStoreMatchesReference(t *testing.T) {
	repacks, drops, adopted, copied := 0, 0, 0, 0
	for seed := int64(1); seed <= 12; seed++ {
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
		got, want := NewMem().(*memStore), newRefStore()
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
				newBytes, seen := 0, map[fingerprint.FP]bool{}
				for _, r := range recs {
					if _, ok := want.chunks[r.FP]; !ok && !seen[r.FP] {
						newBytes += int(r.Len)
					}
					seen[r.FP] = true
				}
				wn := 0
				var werr error
				for _, r := range recs {
					if werr = want.PutChunk(r.FP, payload[r.Off:r.Off+r.Len]); werr != nil {
						break
					}
					wn++
				}
				gn, gerr := PutRecords(got, payload, recs)
				if err = sameError(gerr, werr); err == nil && gn != wn {
					err = fmt.Errorf("PutRecords stored %d records, reference %d", gn, wn)
				}
				if err == nil && !got.failed {
					err = checkArenas(got)
				}
				kept := false
				for _, ar := range got.arenas {
					kept = kept || cap(payload) > 0 && cap(ar.buf) == cap(payload) && &ar.buf[:1][0] == &payload[:1][0]
				}
				switch adopt := newBytes > 0 && 2*newBytes >= cap(payload); {
				case got.failed:
				case kept != adopt:
					err = fmt.Errorf("batch of %d new bytes in a payload of capacity %d: kept %v", newBytes, cap(payload), kept)
				case kept:
					adopted++
				case newBytes > 0:
					copied++
				}
			case op < 55:
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
			case op < 65:
				g, gerr := got.HasChunk(fp)
				w, werr := want.HasChunk(fp)
				if err = sameError(gerr, werr); err == nil && g != w {
					err = fmt.Errorf("HasChunk = %v, reference %v", g, w)
				}
			case op < 99 || step < steps-100:
				// A release that repacks moves every live chunk: watch one.
				var watch fingerprint.FP
				var before *byte
				for wfp, c := range want.chunks {
					if len(c.data) > 0 && wfp != fp {
						watch = wfp
						b, _ := got.GetChunk(wfp)
						before = &b[0]
						break
					}
				}
				freeBefore := len(got.free)
				err = sameError(got.ReleaseChunk(fp), want.ReleaseChunk(fp))
				if err == nil && !got.failed {
					err = checkArenas(got)
				}
				if before != nil {
					if b, gerr := got.GetChunk(watch); gerr == nil && &b[0] != before {
						repacks++
					}
				}
				if len(got.free) > freeBefore {
					drops++
				}
			default:
				got.Fail()
				want.Fail()
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
		if !got.failed {
			if err := checkArenas(got); err != nil {
				t.Fatalf("seed %d drained: %v", seed, err)
			}
			for a, ar := range got.arenas {
				if ar.buf != nil {
					t.Fatalf("seed %d: arena %d survives an empty store", seed, a)
				}
			}
		}
		verifyOut(steps)
	}
	if repacks == 0 || drops == 0 || adopted == 0 || copied == 0 {
		t.Fatalf("test premise: %d repacks, %d arena drops, %d adopted and %d copied batches over all seeds, want all", repacks, drops, adopted, copied)
	}
	t.Logf("%d repacks, %d arena drops, %d adopted and %d copied batches", repacks, drops, adopted, copied)
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
