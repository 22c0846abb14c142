package fingerprint

import (
	"bytes"
	"crypto/sha1"
	"hash/crc32"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestOfMatchesSHA1(t *testing.T) {
	data := []byte("the quick brown fox")
	want := sha1.Sum(data)
	if got := Of(data); got != FP(want) {
		t.Fatalf("Of() = %s, want %x", got, want)
	}
}

func TestOfEmpty(t *testing.T) {
	if Of(nil) != Of([]byte{}) {
		t.Fatal("Of(nil) and Of(empty) differ")
	}
}

// TestChunkSumMatchesByteFold: ChunkSum, which hands crc32 the
// fingerprint in place, equals folding the fingerprint into the CRC-32C
// table one byte at a time and then the data, over random fingerprints
// and every length from 0 to 8 KiB.
func TestChunkSumMatchesByteFold(t *testing.T) {
	tab := crc32.MakeTable(crc32.Castagnoli)
	byteFold := func(fp FP, data []byte) uint32 {
		crc := ^uint32(0)
		for _, b := range fp {
			crc = tab[byte(crc)^b] ^ crc>>8
		}
		return crc32.Update(^crc, tab, data)
	}
	rng := rand.New(rand.NewSource(5))
	buf := make([]byte, 8<<10)
	rng.Read(buf)
	fps := make([]FP, 1)
	for n := 0; n <= len(buf); n++ {
		rng.Read(fps[0][:])
		data := buf[rng.Intn(len(buf)-n+1):][:n]
		if got, want := ChunkSum(&fps[0], data), byteFold(fps[0], data); got != want {
			t.Fatalf("%d bytes under %s: ChunkSum %08x, byte-at-a-time fold %08x", n, fps[0].Short(), got, want)
		}
	}
}

func TestStringAndShort(t *testing.T) {
	fp := Of([]byte("x"))
	if len(fp.String()) != 2*Size {
		t.Errorf("String() length = %d, want %d", len(fp.String()), 2*Size)
	}
	if len(fp.Short()) != 8 {
		t.Errorf("Short() length = %d, want 8", len(fp.Short()))
	}
	if fp.String()[:8] != fp.Short() {
		t.Errorf("Short() %q is not a prefix of String() %q", fp.Short(), fp.String())
	}
}

func TestCompareConsistentWithBytes(t *testing.T) {
	check := func(a, b [Size]byte) bool {
		f, g := FP(a), FP(b)
		want := bytes.Compare(a[:], b[:])
		if f.Compare(g) != want {
			return false
		}
		if f.Less(g) != (want < 0) {
			return false
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	fp := Of([]byte("payload"))
	for _, tc := range []struct{ prefix, suffix string }{
		{"", ""},
		{"header", "next field"}, // embedded in a larger record
	} {
		buf := append(fp.Marshal([]byte(tc.prefix)), tc.suffix...)
		got, rest, err := UnmarshalFP(buf[len(tc.prefix):])
		if err != nil {
			t.Fatal(err)
		}
		if got != fp {
			t.Errorf("round trip: got %s, want %s", got, fp)
		}
		if string(buf[:len(tc.prefix)]) != tc.prefix || string(rest) != tc.suffix {
			t.Errorf("neighbouring bytes disturbed: %q ... %q", buf[:len(tc.prefix)], rest)
		}
	}
}

func TestUnmarshalShortBuffer(t *testing.T) {
	if _, _, err := UnmarshalFP(make([]byte, Size-1)); err == nil {
		t.Fatal("expected error on short buffer")
	}
}
