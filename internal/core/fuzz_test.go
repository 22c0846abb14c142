package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"dedupcr/internal/chunk"
	"dedupcr/internal/collectives"
	"dedupcr/internal/fingerprint"
	"dedupcr/internal/metrics"
	"dedupcr/internal/storage"
)

// fuzzMetaSeed builds one well-formed RestoreMeta encoding with one
// hint, and returns the offset of its u32 hint count: past the u32 rank
// | u32 K header and the encoded recipe.
func fuzzMetaSeed(tb testing.TB) (blob []byte, hintsAt int) {
	var fp1, fp2 fingerprint.FP
	fp1[0], fp2[0] = 1, 2
	m := &RestoreMeta{
		Rank:   2,
		K:      3,
		Recipe: chunk.Recipe{FPs: []fingerprint.FP{fp1, fp2, fp1}, Sizes: []int32{4096, 4096, 100}},
		Hints:  map[fingerprint.FP][]int32{fp2: {0, 1}},
	}
	blob, err := m.MarshalBinary()
	if err != nil {
		tb.Fatal(err)
	}
	recipe, err := m.Recipe.AppendBinary(nil)
	if err != nil {
		tb.Fatal(err)
	}
	return blob, 8 + len(recipe)
}

// TestRestoreMetaRejectsOverCounts: a blob replicated by a peer claims
// more hints, or more ranks in a hint, than its bytes hold. The decoder
// refuses each at the count, before the count sizes an allocation.
func TestRestoreMetaRejectsOverCounts(t *testing.T) {
	valid, hintsAt := fuzzMetaSeed(t)
	hints := append([]byte(nil), valid...)
	binary.BigEndian.PutUint32(hints[hintsAt:], 1000)
	ranks := append([]byte(nil), valid...)
	binary.BigEndian.PutUint16(ranks[hintsAt+4+fingerprint.Size:], 3) // two are encoded
	for _, c := range []struct {
		data []byte
		want string
	}{
		{hints, "core: restore meta claims 1000 hints in 30 bytes"},
		{ranks, "core: hint 0 rank list truncated"},
	} {
		if err := new(RestoreMeta).UnmarshalBinary(c.data); err == nil || err.Error() != c.want {
			t.Errorf("over-count restore meta: %v, want %q", err, c.want)
		}
	}
}

// FuzzRestoreMetaUnmarshal drives the restore-metadata decoder with
// arbitrary bytes: hint counts are peer-controlled and must be bounded
// before they size the hint map.
func FuzzRestoreMetaUnmarshal(f *testing.F) {
	valid, hintsAt := fuzzMetaSeed(f)
	f.Add(valid)
	f.Add(valid[:6])
	f.Add(append(valid, 1, 2, 3))
	// Corrupt the hint count upward.
	hostile := append([]byte(nil), valid...)
	binary.BigEndian.PutUint32(hostile[hintsAt:], 1<<16)
	f.Add(hostile)
	// Corrupt the last hint's last rank id.
	lastRank := append([]byte(nil), valid...)
	binary.BigEndian.PutUint32(lastRank[len(lastRank)-4:], 0x0FFFFFFF)
	f.Add(lastRank)

	f.Fuzz(func(t *testing.T, data []byte) {
		m := new(RestoreMeta)
		if err := m.UnmarshalBinary(data); err != nil {
			return
		}
		enc, err := m.MarshalBinary()
		if err != nil {
			t.Fatalf("re-encode of decoded meta failed: %v", err)
		}
		m2 := new(RestoreMeta)
		if err := m2.UnmarshalBinary(enc); err != nil {
			t.Fatalf("re-decode of re-encoded meta failed: %v", err)
		}
	})
}

// FuzzCommitRecords feeds the committer random windows: shape decides the
// regions — each a sender recipe of random sizes, its metadata blob
// possibly cut short, and a region length — the frame cuts and whether one
// byte flips in flight; records holds the window bytes, padded or cut to
// the regions' total. The committer must never panic, and must store
// exactly what the per-record reference stores with the same cuts — which
// takes only records whose position is in range, above the region's
// previous one, and that fit their region, and only once every frame they
// span has passed its checksum — with the same error; with a flipped byte
// it must fail, having stored a prefix of it.
func FuzzCommitRecords(f *testing.F) {
	rec := newSenderRegion(rand.New(rand.NewSource(1)), 5)
	f.Add([]byte{1, 11, 3, 9, 0, 4, 7, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 2, 200, 5, 7, 0}, rec.records)
	f.Add([]byte{3, 2, 5, 5, 1, 20, 0, 9, 4, 1, 2, 3, 4, 17, 0, 0, 8, 1, 3, 3, 3}, []byte{0, 0, 0, 1, 9, 9, 9, 9, 9, 0, 0, 0, 0})
	f.Add([]byte{2, 4, 1, 2, 3, 4, 1, 12, 2, 8, 8, 1, 30, 6, 6, 6}, []byte{0, 0, 0, 0, 1, 0, 0, 0, 1, 2, 0, 0, 0, 3})
	// One region of three records (10, 5 and 7 bytes) in frames of 10, 13
	// and 11 bytes, the first record cut across the first two: committed
	// whole; then the same with a byte of the first record's payload
	// flipped in the first frame, caught where the record ends.
	three := []byte{0, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 0, 0, 0, 1, 11, 12, 13, 14, 15, 0, 0, 0, 2, 16, 17, 18, 19, 20, 21, 22}
	f.Add([]byte{1, 3, 10, 5, 7, 1, 34, 9, 12, 0}, three)
	f.Add([]byte{1, 3, 10, 5, 7, 1, 34, 9, 12, 39, 6*4 + 1}, three)
	f.Fuzz(func(t *testing.T, shape, records []byte) {
		next := func() int {
			if len(shape) == 0 {
				return 0
			}
			b := shape[0]
			shape = shape[1:]
			return int(b)
		}
		var w testWindow
		var total int64
		for i, n := 0, next()%4; i < n; i++ {
			var r chunk.Recipe
			for j, l := 0, next()%12; j < l; j++ {
				r.FPs = append(r.FPs, fingerprint.Of([]byte{byte(i), byte(j)}))
				r.Sizes = append(r.Sizes, int32(next()%24))
			}
			meta, err := (&RestoreMeta{Recipe: r}).MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			if cut := next(); cut%3 == 0 {
				meta = meta[:cut%(len(meta)+1)]
			}
			size := int64(next() % 96)
			w.regions = append(w.regions, region{size: size, meta: meta})
			total += size
		}
		w.bytes = append(records[:min(int64(len(records)), total):min(int64(len(records)), total)], make([]byte, max(0, total-int64(len(records))))...)
		var pieces [][]byte
		for b := w.bytes; len(b) > 0; {
			k := min(1+next()%40, len(b))
			if len(shape) == 0 {
				k = len(b)
			}
			pieces, b = append(pieces, b[:k]), b[k:]
		}
		w.pieces = pieces
		sums := frameSums(w)
		flip := next()
		if flip%4 == 1 && len(w.bytes) > 0 {
			at := (flip / 4) % len(w.bytes)
			w.bytes = slices.Clone(w.bytes)
			w.bytes[at] ^= 0x80
			for i, off := 0, 0; i < len(pieces); off, i = off+len(pieces[i]), i+1 {
				pieces[i] = w.bytes[off : off+len(pieces[i])]
			}
		}
		w.pieces = pieces
		want := commitWith(commitReceivedPerRecord, w)
		got := commitWith(func(store storage.Store, w testWindow, m *metrics.Dump) ([]fingerprint.FP, error) {
			i := 0
			c := committer{store: store, m: m, regions: w.regions, next: func() ([]byte, uint32, error) {
				if i == len(pieces) {
					return nil, 0, io.EOF
				}
				i++
				return pieces[i-1], sums[i-1], nil
			}}
			err := c.commit()
			return stored(&c), err
		}, w)
		if flip%4 == 1 && len(w.bytes) > 0 {
			if got.err == nil {
				t.Fatal("a flipped byte went unnoticed")
			}
			if len(got.refs) > len(want.refs) || !slices.Equal(got.refs, want.refs[:len(got.refs)]) {
				t.Fatalf("stored %d records, not a prefix of the reference's %d", len(got.refs), len(want.refs))
			}
			if !errors.Is(got.err, collectives.ErrChecksum) && fmt.Sprint(got.err) != fmt.Sprint(want.err) {
				t.Fatalf("error %v, reference %v", got.err, want.err)
			}
			return
		}
		if fmt.Sprint(got.err) != fmt.Sprint(want.err) || !slices.Equal(got.refs, want.refs) || got.m.RecvBytes != want.m.RecvBytes {
			t.Fatalf("stored %d records (%v), reference %d (%v)", len(got.refs), got.err, len(want.refs), want.err)
		}
	})
}

// FuzzHoldingsUnmarshal: the holdings decoder never panics, sizes nothing
// beyond its input — a hostile bitmap count or position count is refused
// before it sizes an allocation — and a record it accepts re-encodes to
// the same bytes.
func FuzzHoldingsUnmarshal(f *testing.F) {
	h := holdings{newHolding(3, 13), newHolding(0, 8), newHolding(7, 0)}
	h[0].set(12)
	h[1].set(0)
	valid := h.marshal()
	f.Add(valid)
	f.Add(holdings{}.marshal())
	header := func(words ...uint32) []byte {
		var b []byte
		for _, w := range words {
			b = binary.BigEndian.AppendUint32(b, w)
		}
		return b
	}
	f.Add(header(holdingsMagic, 0xFFFFFFFF))                           // bitmap count beyond the input
	f.Add(append(header(holdingsMagic, 1, 0, 0xFFFFFFFF), 0xFF, 0xFF)) // position count beyond it
	f.Add(append(header(holdingsMagic, 0x10000000), valid[8:]...))
	f.Add(header(holdingsMagic, 100000))                                 // small enough that an unbounded decode only over-allocates
	f.Add(gcList{refs: []fingerprint.FP{{1}}, held: []int{2}}.marshal()) // the earlier formats
	f.Add(gcList{}.marshal())
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		h, err := unmarshalHoldings(data)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<16+32*uint64(len(data)) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), grew)
		}
		if err == nil && !bytes.Equal(h.marshal(), data) {
			t.Fatalf("% x re-encodes as % x", data, h.marshal())
		}
	})
}
