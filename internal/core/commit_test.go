package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"testing"

	"dedupcr/internal/chunk"
	"dedupcr/internal/collectives"
	"dedupcr/internal/fingerprint"
	"dedupcr/internal/metrics"
	"dedupcr/internal/storage"
)

// testWindow is a window as its owner sees it: the senders' regions — each
// with the sender's RestoreMeta blob — and their records back to back.
type testWindow struct {
	regions []region
	bytes   []byte
}

// frames hands out pieces as window frames, each with its checksum; like
// a Window, it skips empty ones.
func frames(pieces ...[]byte) func() ([]byte, uint32, error) {
	return func() ([]byte, uint32, error) {
		for len(pieces) > 0 && len(pieces[0]) == 0 {
			pieces = pieces[1:]
		}
		if len(pieces) == 0 {
			return nil, 0, io.EOF
		}
		p := pieces[0]
		pieces = pieces[1:]
		return p, collectives.Checksum(0, p), nil
	}
}

// commitReceived commits a whole window held in one buffer, as one frame,
// and returns the references stored (on error, those stored before it).
func commitReceived(store storage.Store, w testWindow, m *metrics.Dump) ([]fingerprint.FP, error) {
	c := committer{store: store, m: m, regions: w.regions, next: frames(w.bytes)}
	err := c.commit()
	return c.refs, err
}

// commitReceivedPerRecord walks a window held in one buffer by offset,
// region by region, with each sender's recipe decoded — one lookup and
// one PutChunk per record, failing at the first malformed one. It is the
// reference the committer's frame-by-frame walk over the undecoded
// metadata must reproduce: same references in the same order, same
// counters, same error, on whole and broken windows. Every record it
// stores names a position in its sender's recipe above the region's
// previous one, and fits its region.
func commitReceivedPerRecord(store storage.Store, w testWindow, m *metrics.Dump) ([]fingerprint.FP, error) {
	var refs []fingerprint.FP
	buf, off := w.bytes, 0
	for _, r := range w.regions {
		var fps []fingerprint.FP
		var sizes []int
		enc := metaRecipe(r.meta)
		for i := 0; i < chunk.RecipeCount(enc); i++ {
			fp, size := chunk.RecipeEntry(enc, i)
			fps, sizes = append(fps, fp), append(sizes, int(size))
		}
		next := 0
		for end := off + int(r.size); off < end; {
			if end-off < 4 {
				return refs, fmt.Errorf("window record header truncated at offset %d", off)
			}
			pos := int(binary.BigEndian.Uint32(buf[off:]))
			if pos < next || pos >= len(fps) {
				return refs, fmt.Errorf("window record at offset %d names recipe position %d, want one in [%d, %d)", off, pos, next, len(fps))
			}
			next = pos + 1
			size := sizes[pos]
			if off += 4; size > end-off {
				return refs, fmt.Errorf("window record of %d bytes overruns its region at offset %d", size, off)
			}
			data := buf[off : off+size]
			off += size
			if err := store.PutChunk(fps[pos], data); err != nil {
				return refs, err
			}
			refs = append(refs, fps[pos])
			m.RecvChunks++
			m.RecvBytes += int64(size)
		}
	}
	if off < len(buf) {
		return refs, fmt.Errorf("window holds bytes beyond its %d-byte regions", off)
	}
	return refs, nil
}

// TestCommitReceivedMatchesPerRecord feeds whole windows (empty, one
// record, 63, 64, 65 and 3×64+7 records, three regions one of them empty)
// and broken windows — a header cut short, a record overrunning its
// region, a position out of the recipe, repeated or falling, metadata
// without a recipe — to the committer and to the per-record reference:
// both must store the same chunks, return exactly the references stored
// so far and report the same error.
func TestCommitReceivedMatchesPerRecord(t *testing.T) {
	for name, w := range receivedWindows() {
		checkCommitted(t, name, commitWith(commitReceived, w), commitWith(commitReceivedPerRecord, w))
	}
}

// senderRegion is one sender's side of a window: its recipe's chunk
// contents by position, its metadata blob, and the records of the
// positions it sent.
type senderRegion struct {
	data    [][]byte
	meta    []byte
	sent    []int
	records []byte
}

// newSenderRegion draws a recipe of 2·records+1 chunks — some empty, some
// repeated — and sends records of its positions but the last, strictly
// ascending.
func newSenderRegion(rng *rand.Rand, records int) senderRegion {
	s := senderRegion{data: make([][]byte, 2*records+1)}
	var rec chunk.Recipe
	for i := range s.data {
		if i > 0 && rng.Intn(8) == 0 {
			s.data[i] = s.data[rng.Intn(i)]
		} else {
			s.data[i] = make([]byte, rng.Intn(40))
			rng.Read(s.data[i])
		}
		rec.FPs = append(rec.FPs, fingerprint.Of(s.data[i]))
		rec.Sizes = append(rec.Sizes, int32(len(s.data[i])))
	}
	s.meta, _ = (&RestoreMeta{Rank: 1, K: 2, Recipe: rec}).MarshalBinary()
	s.sent = rng.Perm(len(s.data) - 1)[:records]
	slices.Sort(s.sent)
	for _, pos := range s.sent {
		s.records = append(s.records, encodeRecord(int32(pos), s.data[pos])...)
	}
	return s
}

// window is the sender's records as a one-region window, plus tail bytes
// counted into the region.
func (s senderRegion) window(tail ...[]byte) testWindow {
	b := slices.Concat(append([][]byte{s.records}, tail...)...)
	return testWindow{regions: []region{{size: int64(len(b)), meta: s.meta}}, bytes: b}
}

// receivedWindows are the whole and broken windows the commit tests
// feed.
func receivedWindows() map[string]testWindow {
	rng := rand.New(rand.NewSource(22))
	cases := map[string]testWindow{}
	for _, n := range []int{0, 1, 63, 64, 65, 3*64 + 7} {
		cases[fmt.Sprintf("%d records", n)] = newSenderRegion(rng, n).window()
	}
	var three testWindow
	for _, n := range []int{20, 0, 30} {
		s := newSenderRegion(rng, n)
		three.regions = append(three.regions, region{size: int64(len(s.records)), meta: s.meta})
		three.bytes = append(three.bytes, s.records...)
	}
	cases["three regions, the middle one empty"] = three

	s74 := newSenderRegion(rng, 74)
	cases["header truncated after 74 records"] = s74.window([]byte{0, 0})
	cases["header truncated after 64 records"] = newSenderRegion(rng, 64).window([]byte{0})
	last := len(s74.data) - 1
	over := s74.window(encodeRecord(int32(last), s74.data[last]))
	over.bytes = over.bytes[:len(over.bytes)-1]
	over.regions[0].size--
	cases["last record overruns"] = over
	cases["position past the recipe"] = s74.window(encodeRecord(int32(len(s74.data)), nil))
	lastSent := s74.sent[len(s74.sent)-1]
	cases["position repeats"] = s74.window(encodeRecord(int32(lastSent), s74.data[lastSent]))
	cases["position falls"] = newSenderRegion(rng, 3).window(encodeRecord(0, nil))
	short := s74.window()
	short.regions[0].meta = short.regions[0].meta[:8+4+10*(fingerprint.Size+4)+7] // rank, K, count, 10 entries and a piece
	cases["metadata holding fewer entries than it claims"] = short
	cases["metadata without a recipe"] = testWindow{regions: []region{{size: 8, meta: []byte{0, 0, 0, 1}}}, bytes: make([]byte, 8)}
	cases["bytes beyond the regions"] = testWindow{regions: []region{{size: 0}}, bytes: []byte{1}}
	return cases
}

// commitRun is one commit of a window: the store it filled, the
// references and error it returned, and its counters.
type commitRun struct {
	store storage.Store
	refs  []fingerprint.FP
	err   error
	m     metrics.Dump
}

// commitWith commits window w into a fresh store through commit.
func commitWith(commit func(storage.Store, testWindow, *metrics.Dump) ([]fingerprint.FP, error), w testWindow) commitRun {
	r := commitRun{store: storage.NewMem()}
	r.refs, r.err = commit(r.store, w, &r.m)
	return r
}

// checkCommitted compares a commit against its reference: same error,
// same references in the same order, same counters, same store contents,
// every stored chunk hashing to its key.
func checkCommitted(t *testing.T, name string, got, want commitRun) {
	t.Helper()
	if fmt.Sprint(got.err) != fmt.Sprint(want.err) {
		t.Errorf("%s: error %v, reference %v", name, got.err, want.err)
	}
	if !slices.Equal(got.refs, want.refs) {
		t.Errorf("%s: %d references returned, reference %d (or another order)", name, len(got.refs), len(want.refs))
	}
	if got.m.RecvChunks != want.m.RecvChunks || got.m.RecvBytes != want.m.RecvBytes || got.m.RecvChunks != len(want.refs) {
		t.Errorf("%s: counted %d chunks / %d bytes, reference %d / %d", name, got.m.RecvChunks, got.m.RecvBytes, want.m.RecvChunks, want.m.RecvBytes)
	}
	for _, fp := range want.refs {
		g, err1 := got.store.GetChunk(fp)
		w, err2 := want.store.GetChunk(fp)
		if err1 != nil || err2 != nil || string(g) != string(w) || fingerprint.Of(g) != fp {
			t.Errorf("%s: chunk %s stored differently (%v, %v)", name, fp.Short(), err1, err2)
		}
	}
	gb, gc := got.store.Usage()
	if wb, wc := want.store.Usage(); gb != wb || gc != wc {
		t.Errorf("%s: store holds %d bytes in %d chunks, reference %d in %d", name, gb, gc, wb, wc)
	}
}

// cutInto cuts b at random points into pieces of 1 to maxPiece bytes.
func cutInto(rng *rand.Rand, b []byte, maxPiece int) [][]byte {
	var pieces [][]byte
	for len(b) > 0 {
		k := min(1+rng.Intn(maxPiece), len(b))
		pieces, b = append(pieces, b[:k]), b[k:]
	}
	return pieces
}

// TestCommitterCutFramesMatchWholeWindow: a window that arrives as many
// frames — cut at random points, inside headers and payloads alike, in
// pieces down to one byte — commits exactly as the whole window does:
// records cut by a frame boundary are carried across, and a broken
// window fails with the same error after the same records.
func TestCommitterCutFramesMatchWholeWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for name, w := range receivedWindows() {
		for trial := 0; trial < 8; trial++ {
			maxPiece := 1 + rng.Intn(1+len(w.bytes)/(1+trial))
			cuts := func(store storage.Store, w testWindow, m *metrics.Dump) ([]fingerprint.FP, error) {
				c := committer{store: store, m: m, regions: w.regions, next: frames(cutInto(rng, w.bytes, maxPiece)...)}
				err := c.commit()
				return c.refs, err
			}
			checkCommitted(t, fmt.Sprintf("%s, pieces of at most %d bytes", name, maxPiece), commitWith(cuts, w), commitWith(commitReceived, w))
		}
	}
}

// TestCommitterChecksFrameSums: one byte flipped after its frame was
// summed — in a header or a payload, of the first, a middle or the last
// frame — fails the commit with collectives.ErrChecksum, the records of
// the frames before it stored, and nothing of the frames after it.
func TestCommitterChecksFrameSums(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	w := newSenderRegion(rng, 120).window()
	for trial := 0; trial < 40; trial++ {
		pieces := cutInto(rng, w.bytes, 1+rng.Intn(len(w.bytes)/3))
		bad := rng.Intn(len(pieces))
		sums := make([]uint32, len(pieces))
		for i, p := range pieces {
			sums[i] = collectives.Checksum(0, p)
		}
		flipped := slices.Clone(pieces[bad])
		flipped[rng.Intn(len(flipped))] ^= 1 << rng.Intn(8)
		pieces[bad] = flipped
		i := 0
		var m metrics.Dump
		c := committer{store: storage.NewMem(), m: &m, regions: w.regions, next: func() ([]byte, uint32, error) {
			if i == len(pieces) {
				return nil, 0, io.EOF
			}
			i++
			return pieces[i-1], sums[i-1], nil
		}}
		err := c.commit()
		if !errors.Is(err, collectives.ErrChecksum) {
			// A flipped header may be caught by the parse first, but never
			// let through.
			if err == nil {
				t.Fatalf("trial %d: frame %d of %d corrupted, commit succeeded", trial, bad, len(pieces))
			}
			continue
		}
		if i != bad+1 {
			t.Errorf("trial %d: frame %d corrupted, caught after %d frames", trial, bad, i)
		}
	}
}

// failingPuts is a store whose PutChunk fails from the given call on.
type failingPuts struct {
	storage.Store
	left int
}

func (f *failingPuts) PutChunk(fp fingerprint.FP, data []byte) error {
	if f.left--; f.left < 0 {
		return storage.ErrFailed
	}
	return f.Store.PutChunk(fp, data)
}

// TestCommitReceivedStoreErrorMidBatch: a store that fails at its 70th
// put gets nothing after the failing put, and the references returned
// are exactly the puts that succeeded.
func TestCommitReceivedStoreErrorMidBatch(t *testing.T) {
	var data [][]byte
	var rec chunk.Recipe
	var records []byte
	for i := 0; i < 128; i++ {
		data = append(data, []byte{byte(i), 1, 2})
		rec.FPs = append(rec.FPs, fingerprint.Of(data[i]))
		rec.Sizes = append(rec.Sizes, 3)
		records = append(records, encodeRecord(int32(i), data[i])...)
	}
	meta, err := (&RestoreMeta{Recipe: rec}).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	store := &failingPuts{Store: storage.NewMem(), left: 69}
	var m metrics.Dump
	refs, err := commitReceived(store, testWindow{regions: []region{{size: int64(len(records)), meta: meta}}, bytes: records}, &m)
	if err != storage.ErrFailed || len(refs) != 69 || m.RecvChunks != len(refs) {
		t.Fatalf("got %d references, %d counted, error %v", len(refs), m.RecvChunks, err)
	}
	if _, chunks := store.Usage(); chunks != len(refs) {
		t.Fatalf("store holds %d chunks, %d references returned", chunks, len(refs))
	}
}
