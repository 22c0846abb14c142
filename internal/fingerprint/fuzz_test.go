package fingerprint

import (
	"bytes"
	"crypto/sha1"
	"encoding/binary"
	"testing"
)

// paddingEdges are the message lengths around SHA-1's padding edges: the
// length field fits the last block up to 55 bytes and spills into
// another one from 56.
var paddingEdges = []int{55, 56, 63, 64, 119, 120}

// FuzzBatchOf splits arbitrary bytes into spans at input-derived
// boundaries and checks that BatchOf and Of both give crypto/sha1's
// digest for every span.
func FuzzBatchOf(f *testing.F) {
	f.Add([]byte("collective dedup"), uint8(3))
	f.Add(make([]byte, 1024), uint8(0))
	f.Add([]byte{}, uint8(7))
	for _, n := range paddingEdges {
		f.Add(bytes.Repeat([]byte{0xa5}, n), uint8(n)) // one span: the whole input
	}
	f.Fuzz(func(t *testing.T, data []byte, step uint8) {
		var spans [][]byte
		stride := int(step) + 1
		for off := 0; off < len(data); {
			end := off + stride + off%3 // uneven spans, some adjacent
			if end > len(data) {
				end = len(data)
			}
			spans = append(spans, data[off:end])
			off = end
		}
		spans = append(spans, nil, data) // edge spans: nil and the whole buffer
		dst := make([]FP, len(spans))
		BatchOf(dst, spans...)
		for i, s := range spans {
			if want := FP(sha1.Sum(s)); dst[i] != want || Of(s) != want {
				t.Fatalf("span %d (%d bytes): BatchOf or Of differs from crypto/sha1", i, len(s))
			}
		}
	})
}

// hostileTables are frames a correct peer never sends and the flat table
// cannot hold: the decoder must turn each down (the last only fails
// Validate).
func hostileTables(tb testing.TB) map[string][]byte {
	blob, err := Local([]FP{fpOf(1), fpOf(2)}, 3, 0, 2).MarshalBinary()
	if err != nil {
		tb.Fatal(err)
	}
	const entry = Size + 6 + 4 // one designated rank
	first, second := blob[12:12+entry], blob[12+entry:]
	with := func(edit func(b []byte)) []byte {
		b := append([]byte(nil), blob...)
		edit(b)
		return b
	}
	// One entry whose rank list is given: 12 + 26 + 4 per rank bytes.
	ranked := func(k uint32, ranks ...uint32) []byte {
		b := append([]byte(nil), blob[:12+Size+4]...)
		binary.BigEndian.PutUint32(b[4:], k)
		binary.BigEndian.PutUint32(b[8:], 1)
		b = binary.BigEndian.AppendUint16(b, uint16(len(ranks)))
		for _, r := range ranks {
			b = binary.BigEndian.AppendUint32(b, r)
		}
		return b
	}
	return map[string][]byte{
		"swapped":      append(append(append([]byte(nil), blob[:12]...), second...), first...),
		"duplicated":   with(func(b []byte) { copy(b[12+entry:], first) }),
		"rank-max":     ranked(2, 0x7fffffff),
		"rank-bound":   ranked(2, maxRanks),
		"rank-neg":     ranked(2, 0x80000000),
		"ranks-swap":   ranked(2, 5, 4),
		"ranks-dup":    ranked(2, 5, 5),
		"ranks-over-k": ranked(1, 4, 5),
	}
}

// FuzzTableUnmarshal drives the table decoder with arbitrary bytes: the
// peer-controlled count prefix and rank ids must never panic or size an
// unbounded allocation, and whatever decodes is a table the flat layout
// can hold — it re-encodes byte-identically, and its order and load
// bookkeeping pass Validate, which may only object to what an entry
// claims (no designated rank, more than K, frequency 0, more than F).
func FuzzTableUnmarshal(f *testing.F) {
	valid, err := buildShuffled(1).MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:8])
	f.Add(append(valid, 0xFF))
	// A header claiming far more entries than the payload holds, which
	// must be rejected before it sizes an allocation.
	hostile := append([]byte(nil), valid[:12]...)
	binary.BigEndian.PutUint32(hostile[8:], 0x0FFFFFFF)
	f.Add(hostile)
	for _, name := range []string{"swapped", "duplicated", "rank-max", "ranks-over-k"} {
		f.Add(hostileTables(f)[name])
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		var tb Table
		if err := tb.UnmarshalBinary(data); err != nil {
			return
		}
		enc, err := tb.MarshalBinary()
		if err != nil {
			t.Fatalf("re-encode of decoded table failed: %v", err)
		}
		if !bytes.Equal(enc, data) {
			t.Fatalf("decode + re-encode changed the bytes")
		}
		claimsOK := tb.F <= 0 || tb.Len() <= tb.F
		for _, e := range tb.Entries() {
			claimsOK = claimsOK && e.Freq > 0 && len(e.Ranks) > 0 && len(e.Ranks) <= tb.K
			if got := tb.Lookup(e.FP); got != e {
				t.Fatalf("Lookup(%s) = %p, entry is %p", e.FP.Short(), got, e)
			}
		}
		if err := tb.Validate(); (err == nil) != claimsOK {
			t.Fatalf("Validate() = %v on a decoded table whose entries' claims are sound: %v", err, claimsOK)
		}
	})
}
