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
// with the sender's RestoreMeta blob — and their records back to back,
// arriving as pieces (nil: as one frame).
type testWindow struct {
	regions []region
	bytes   []byte
	pieces  [][]byte
}

// frames returns the frames the window's bytes arrive in.
func (w testWindow) frames() [][]byte {
	if w.pieces == nil {
		return [][]byte{w.bytes}
	}
	return w.pieces
}

// frames hands out pieces as window frames, each with its checksum; like
// a Window, it skips empty ones.
func frames(pieces [][]byte, sums []uint32) func() ([]byte, uint32, error) {
	i := 0
	return func() ([]byte, uint32, error) {
		for i < len(pieces) && len(pieces[i]) == 0 {
			i++
		}
		if i == len(pieces) {
			return nil, 0, io.EOF
		}
		i++
		return pieces[i-1], sums[i-1], nil
	}
}

// commitReceived commits a window frame by frame, each frame with the
// checksum an honest sender stamps on it, and returns the references
// stored (on error, those stored before it).
func commitReceived(store storage.Store, w testWindow, m *metrics.Dump) ([]fingerprint.FP, error) {
	c := committer{store: store, m: m, regions: w.regions, next: frames(w.frames(), frameSums(w))}
	err := c.commit()
	return stored(&c), err
}

// stored is the references c stored, read from its holdings bitmaps
// against its regions' recipes: in region and then position order, which
// is the order it stored them in.
func stored(c *committer) []fingerprint.FP {
	refs, err := holdings(c.held).refs(func(i int) ([]byte, error) { return c.regions[i].meta, nil })
	if err != nil {
		panic(err)
	}
	return refs
}

// walked is one record of a window as walkWindow parses it: the
// fingerprint and size its sender's recipe gives its position, and the
// window offset one past its last byte.
type walked struct {
	fp        fingerprint.FP
	pos       uint32
	size, end int
}

// sentRecord is one record of a window as its sender sums it: the window
// offset one past its last byte, its recipe position and its chunk's sum.
type sentRecord struct {
	end      int
	pos, sum uint32
}

// frameSumsOf returns the checksum an honest sender stamps on each frame
// of pieces — a window's bytes in order, holding the records recs in
// ascending order: the CRC-32C over u32 position ‖ u32 sum of every
// record that ends in the frame.
func frameSumsOf(pieces [][]byte, recs []sentRecord) []uint32 {
	sums := make([]uint32, len(pieces))
	var b []byte
	start := 0
	for i, p := range pieces {
		b = b[:0]
		for len(recs) > 0 && recs[0].end <= start+len(p) {
			b = binary.BigEndian.AppendUint32(binary.BigEndian.AppendUint32(b, recs[0].pos), recs[0].sum)
			recs = recs[1:]
		}
		sums[i] = collectives.Checksum(0, b)
		start += len(p)
	}
	return sums
}

// frameSums returns the checksum an honest sender stamps on each frame
// window w arrives in, every record summed as w holds its bytes under the
// fingerprint its sender's recipe names. Records past the first malformed
// one count in no frame.
func frameSums(w testWindow) []uint32 {
	walk, _, _ := walkWindow(w)
	recs := make([]sentRecord, len(walk))
	for i, r := range walk {
		recs[i] = sentRecord{r.end, r.pos, fingerprint.ChunkSum(&walk[i].fp, w.bytes[r.end-r.size:r.end])}
	}
	return frameSumsOf(w.frames(), recs)
}

// commitReceivedPerRecord walks a window held in one buffer (walkWindow)
// and then stores, one PutChunk each, the records that lie wholly in
// frames that passed their checksum: every frame when the walk reached
// the end, else those the walk needed a byte past before it failed. It is
// the reference the committer's frame-by-frame walk over the undecoded
// metadata must reproduce: same references in the same order, same
// counters, same error, on whole and broken windows, in one frame or
// many.
func commitReceivedPerRecord(store storage.Store, w testWindow, m *metrics.Dump) ([]fingerprint.FP, error) {
	buf := w.bytes
	recs, read, walkErr := walkWindow(w)
	checked := len(buf) // every frame, after a whole walk
	if walkErr != nil {
		checked = 0
		for _, p := range w.frames() {
			if checked+len(p) >= read {
				break
			}
			checked += len(p)
		}
	}
	var refs []fingerprint.FP
	for _, r := range recs {
		if r.end > checked {
			break
		}
		if err := store.PutChunk(r.fp, buf[r.end-r.size:r.end]); err != nil {
			return refs, err
		}
		refs = append(refs, r.fp)
		m.RecvChunks++
		m.RecvBytes += int64(r.size)
	}
	return refs, walkErr
}

// walkWindow walks a window held in one buffer by offset, region by
// region, with each sender's recipe decoded — one lookup per record — and
// returns its records up to the first malformed one, one past the last
// byte the walk needed, and the error it stopped at. Every record it
// returns names a position in its sender's recipe above the region's
// previous one, and fits its region.
func walkWindow(w testWindow) (recs []walked, read int, err error) {
	buf, off := w.bytes, 0
	err = func() error {
		for _, r := range w.regions {
			var fps []fingerprint.FP
			var sizes []int
			enc := metaRecipe(r.meta)
			for i := 0; i < chunk.RecipeCount(enc); i++ {
				fp, size := chunk.RecipeEntry(enc, i)
				fps, sizes = append(fps, *fp), append(sizes, int(size))
			}
			next := 0
			for end := off + int(r.size); off < end; {
				if end-off < 4 {
					return fmt.Errorf("window record header truncated at offset %d", off)
				}
				read = off + 4
				pos := int(binary.BigEndian.Uint32(buf[off:]))
				if pos < next || pos >= len(fps) {
					return fmt.Errorf("window record at offset %d names recipe position %d, want one in [%d, %d)", off, pos, next, len(fps))
				}
				next = pos + 1
				size := sizes[pos]
				if off += 4; size > end-off {
					return fmt.Errorf("window record of %d bytes overruns its region at offset %d", size, off)
				}
				read = off + size
				off += size
				recs = append(recs, walked{fps[pos], uint32(pos), size, off})
			}
		}
		read = off + 1 // is there a byte beyond the regions?
		if off < len(buf) {
			return fmt.Errorf("window holds bytes beyond its %d-byte regions", off)
		}
		return nil
	}()
	return recs, read, err
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
// pieces down to one byte — commits exactly as the per-record reference
// does with the same cuts: records cut by a frame boundary are carried
// across, a broken window fails with the same error after storing the
// records of the frames checked before it, and a whole one stores what
// it stores in one frame.
func TestCommitterCutFramesMatchWholeWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for name, w := range receivedWindows() {
		whole := commitWith(commitReceived, w)
		for trial := 0; trial < 8; trial++ {
			maxPiece := 1 + rng.Intn(1+len(w.bytes)/(1+trial))
			cut := w
			cut.pieces = cutInto(rng, w.bytes, maxPiece)
			name := fmt.Sprintf("%s, pieces of at most %d bytes", name, maxPiece)
			got := commitWith(commitReceived, cut)
			checkCommitted(t, name, got, commitWith(commitReceivedPerRecord, cut))
			if whole.err == nil {
				checkCommitted(t, name+" against one frame", got, whole)
			}
		}
	}
}

// TestCommitterChecksFrameSums: one byte flipped after its frame was
// summed — in a header or a payload, of the first, a middle or the last
// frame — fails the commit with collectives.ErrChecksum, the records of
// the frames before it stored, and nothing of the frames after it. A
// frame's sum covers the records that end in it, so a flipped payload
// byte is caught at the frame where its record ends, which for a record
// cut across frames is a later one than the flip's. A flipped header byte
// can misparse the record's size and end it earlier, so it is caught no
// earlier than the flip's frame and no later than that one.
func TestCommitterChecksFrameSums(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	w := newSenderRegion(rng, 120).window()
	recs, _, _ := walkWindow(w)
	for trial := 0; trial < 40; trial++ {
		pieces := cutInto(rng, w.bytes, 1+rng.Intn(len(w.bytes)/3))
		bad := rng.Intn(len(pieces))
		w.pieces = pieces
		sums := frameSums(w)
		flipped := slices.Clone(pieces[bad])
		at := rng.Intn(len(flipped))
		flipped[at] ^= 1 << rng.Intn(8)
		pieces[bad] = flipped
		// The flipped byte's window offset, the record it is in, whether
		// it is in that record's header, and the frame that record ends in.
		for _, p := range pieces[:bad] {
			at += len(p)
		}
		r := recs[slices.IndexFunc(recs, func(r walked) bool { return at < r.end })]
		inHeader := at < r.end-r.size
		ends, end := 0, len(pieces[0])
		for end < r.end {
			ends++
			end += len(pieces[ends])
		}
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
		if caught := i - 1; caught != ends && (!inHeader || caught < bad || caught > ends) {
			t.Errorf("trial %d: frame %d corrupted (header %v) in a record ending in frame %d, caught at frame %d", trial, bad, inHeader, ends, caught)
		}
	}
}

// failingPuts is a store that stores the first left records it is handed
// and fails on the next.
type failingPuts struct {
	storage.Store
	left int
}

func (f *failingPuts) PutRecords(payload []byte, recs []storage.Record) (int, bool, error) {
	n, kept, err := f.Store.PutRecords(payload, recs[:min(len(recs), f.left)])
	if f.left -= n; err == nil && n < len(recs) {
		err = storage.ErrFailed
	}
	return n, kept, err
}

// TestCommitReceivedStoreErrorMidBatch: a store that fails at its 70th
// put — inside the fifth of eight 16-record frames — gets nothing after
// the failing put, the references returned are exactly the puts that
// succeeded, and rolling them back leaves Usage as it was before the
// commit, chunks the store held before included.
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
	w := testWindow{regions: []region{{size: int64(len(records)), meta: meta}}, bytes: records}
	for f := 0; f < 8; f++ {
		w.pieces = append(w.pieces, records[f*16*7:(f+1)*16*7])
	}
	store := &failingPuts{Store: storage.NewMem(), left: 69}
	for _, d := range append(data[60:75:75], []byte("held before")) {
		if err := store.Store.PutChunk(fingerprint.Of(d), d); err != nil {
			t.Fatal(err)
		}
	}
	bytesBefore, chunksBefore := store.Usage()
	var m metrics.Dump
	refs, err := commitReceived(store, w, &m)
	if err != storage.ErrFailed || len(refs) != 69 || m.RecvChunks != len(refs) || !slices.Equal(refs, rec.FPs[:69]) {
		t.Fatalf("got %d references, %d counted, error %v", len(refs), m.RecvChunks, err)
	}
	if _, chunks := store.Usage(); chunks != 69+1+(75-69) {
		t.Fatalf("store holds %d chunks, want the 69 stored, the 6 held before beyond them and one more", chunks)
	}
	rollbackDump(store, "ckpt", 0, nil, refs)
	if b, c := store.Usage(); b != bytesBefore || c != chunksBefore {
		t.Fatalf("after the rollback the store holds %d bytes in %d chunks, %d in %d before", b, c, bytesBefore, chunksBefore)
	}
}

// putLog logs the fingerprint of every record its batch puts store, in
// order.
type putLog struct {
	storage.Store
	puts []fingerprint.FP
}

func (p *putLog) PutRecords(payload []byte, recs []storage.Record) (int, bool, error) {
	n, kept, err := p.Store.PutRecords(payload, recs)
	for _, r := range recs[:n] {
		p.puts = append(p.puts, r.FP)
	}
	return n, kept, err
}

// recordFrames packs a sender's records into frames of per records, each
// frame an allocation of its own, exactly sized, as a sender puts them;
// sent[i] are the positions frame i carries.
func recordFrames(s senderRegion, per int) (pieces [][]byte, sent [][]int) {
	for i := 0; i < len(s.sent); i += per {
		ps := s.sent[i:min(i+per, len(s.sent))]
		var b []byte
		for _, pos := range ps {
			b = append(b, encodeRecord(int32(pos), s.data[pos])...)
		}
		frame := make([]byte, len(b))
		copy(frame, b)
		pieces, sent = append(pieces, frame), append(sent, ps)
	}
	return pieces, sent
}

// TestCorruptFrameStoresNothingOfIt: of a sender's frames of whole
// records, a middle one has a payload byte flipped in flight. The commit
// fails with collectives.ErrChecksum; the store has stored the records
// of the frames before it, in window order, and none of that frame or
// after; and the references are exactly those records.
func TestCorruptFrameStoresNothingOfIt(t *testing.T) {
	s := newSenderRegion(rand.New(rand.NewSource(41)), 90)
	pieces, sent := recordFrames(s, 10)
	w := s.window()
	w.pieces = pieces
	sums := frameSums(w)
	for bad := 1; bad < len(pieces)-1; bad++ {
		var want []fingerprint.FP
		for _, ps := range sent[:bad] {
			for _, pos := range ps {
				want = append(want, fingerprint.Of(s.data[pos]))
			}
		}
		flipped := slices.Clone(pieces[bad])
		at := 0
		for _, pos := range sent[bad] {
			if at += 4; len(s.data[pos]) > 0 {
				break
			}
		}
		flipped[at] ^= 0x10
		i := 0
		log := &putLog{Store: storage.NewMem()}
		var m metrics.Dump
		c := committer{store: log, m: &m, regions: w.regions, next: func() ([]byte, uint32, error) {
			if i == len(pieces) {
				return nil, 0, io.EOF
			}
			i++
			if i-1 == bad {
				return flipped, sums[bad], nil
			}
			return pieces[i-1], sums[i-1], nil
		}}
		err := c.commit()
		if !errors.Is(err, collectives.ErrChecksum) {
			t.Fatalf("frame %d flipped: %v, want the checksum mismatch", bad, err)
		}
		if !slices.Equal(log.puts, want) || !slices.Equal(stored(&c), want) || m.RecvChunks != len(want) {
			t.Errorf("frame %d flipped: %d puts, %d references, %d counted; want the %d records of the frames before it", bad, len(log.puts), len(stored(&c)), m.RecvChunks, len(want))
		}
	}
}

// TestCommitterRejectsWrongChunk: a sender puts another chunk's bytes, of
// the same size, at a valid position and stamps each frame's checksum
// honestly over what it sent: every record's sum taken under the
// fingerprint of the bytes it carries. The committer sums each record
// under the fingerprint the recipe names for its position, so the frame
// holding the wrong chunk fails with collectives.ErrChecksum; the records
// of the frames before it are stored, in window order, and nothing of it
// or after. Without the swap, the same sums commit every record.
func TestCommitterRejectsWrongChunk(t *testing.T) {
	const chunks, per, size = 12, 3, 64
	rng := rand.New(rand.NewSource(43))
	s := senderRegion{data: make([][]byte, chunks)}
	var rec chunk.Recipe
	for i := range s.data {
		s.data[i] = make([]byte, size)
		rng.Read(s.data[i])
		rec.FPs, rec.Sizes = append(rec.FPs, fingerprint.Of(s.data[i])), append(rec.Sizes, size)
		s.sent = append(s.sent, i)
	}
	s.meta, _ = (&RestoreMeta{Rank: 1, K: 2, Recipe: rec}).MarshalBinary()
	for bad := -1; bad < chunks/per; bad++ {
		sent := s
		if bad >= 0 { // the middle record of frame bad carries another chunk
			sent.data = slices.Clone(s.data)
			sent.data[bad*per+1] = s.data[(bad*per+5)%chunks]
		}
		pieces, _ := recordFrames(sent, per)
		var recs []sentRecord
		end := 0
		for _, pos := range sent.sent {
			data := sent.data[pos]
			end += 4 + len(data)
			fp := fingerprint.Of(data)
			recs = append(recs, sentRecord{end, uint32(pos), fingerprint.ChunkSum(&fp, data)})
		}
		log := &putLog{Store: storage.NewMem()}
		var m metrics.Dump
		c := committer{store: log, m: &m, regions: []region{{size: int64(end), meta: s.meta}}, next: frames(pieces, frameSumsOf(pieces, recs))}
		err := c.commit()
		want := rec.FPs
		if bad >= 0 {
			want = rec.FPs[:bad*per]
			if !errors.Is(err, collectives.ErrChecksum) {
				t.Errorf("wrong chunk in frame %d: %v, want the checksum mismatch", bad, err)
			}
		} else if err != nil {
			t.Errorf("no chunk swapped: %v", err)
		}
		if !slices.Equal(log.puts, want) || !slices.Equal(stored(&c), want) || m.RecvChunks != len(want) {
			t.Errorf("wrong chunk in frame %d: %d puts, %d references, %d counted; want %d", bad, len(log.puts), len(stored(&c)), m.RecvChunks, len(want))
		}
	}
}

// TestTimedMemStoreKeepsLandedFrames: behind a Timed wrapper the in-memory
// store still keeps each landed frame as an arena — every received
// chunk's GetChunk bytes lie in the frame it arrived in — and takes each
// frame's records as one write.
func TestTimedMemStoreKeepsLandedFrames(t *testing.T) {
	s := newSenderRegion(rand.New(rand.NewSource(42)), 60)
	pieces, sent := recordFrames(s, 12)
	w := s.window()
	w.pieces = pieces
	store := storage.NewTimed(storage.NewMem())
	var m metrics.Dump
	if refs, err := commitReceived(store, w, &m); err != nil || len(refs) != len(s.sent) {
		t.Fatalf("%d references, %v", len(refs), err)
	}
	if n := store.WriteLatency().Count(); n != int64(len(pieces)) {
		t.Errorf("%d write samples for %d frames", n, len(pieces))
	}
	seen := map[fingerprint.FP]bool{}
	for f, ps := range sent {
		for _, pos := range ps {
			fp := fingerprint.Of(s.data[pos])
			if seen[fp] || len(s.data[pos]) == 0 {
				continue // stored by an earlier record, or no bytes to keep
			}
			seen[fp] = true
			b, err := store.GetChunk(fp)
			if err != nil || !inside(b, pieces[f]) {
				t.Errorf("position %d: its bytes are not in frame %d (%v)", pos, f, err)
			}
		}
	}
}

// inside reports whether b starts within f's bytes.
func inside(b, f []byte) bool {
	for i := range f {
		if &f[i] == &b[0] {
			return true
		}
	}
	return false
}
