package chunk

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"dedupcr/internal/fingerprint"
)

func TestFixedSplitCoversBuffer(t *testing.T) {
	check := func(seed int64, sz uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		buf := make([]byte, int(sz))
		rng.Read(buf)
		chunks := NewFixed(64).Split(buf)
		var joined []byte
		for _, c := range chunks {
			joined = append(joined, c.Data...)
			if fingerprint.Of(c.Data) != c.FP {
				return false
			}
		}
		return bytes.Equal(joined, buf)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestFixedSplitSizes(t *testing.T) {
	buf := make([]byte, 1000)
	chunks := NewFixed(256).Split(buf)
	if len(chunks) != 4 {
		t.Fatalf("got %d chunks, want 4", len(chunks))
	}
	for i := 0; i < 3; i++ {
		if len(chunks[i].Data) != 256 {
			t.Errorf("chunk %d size = %d, want 256", i, len(chunks[i].Data))
		}
	}
	if len(chunks[3].Data) != 232 {
		t.Errorf("tail chunk size = %d, want 232", len(chunks[3].Data))
	}
}

func TestFixedDefaultSize(t *testing.T) {
	buf := make([]byte, 3*DefaultSize)
	if got := len(NewFixed(0).Split(buf)); got != 3 {
		t.Fatalf("default chunker made %d chunks, want 3", got)
	}
}

func TestFixedSplitEmpty(t *testing.T) {
	if got := NewFixed(64).Split(nil); len(got) != 0 {
		t.Fatalf("empty buffer produced %d chunks", len(got))
	}
}

func TestRecipeRoundTrip(t *testing.T) {
	buf := []byte("aaaa" + "bbbb" + "aaaa" + "cc")
	chunks := NewFixed(4).Split(buf)
	r := BuildRecipe(chunks)
	if r.Len() != 4 {
		t.Fatalf("recipe length = %d, want 4", r.Len())
	}
	if r.TotalBytes() != int64(len(buf)) {
		t.Fatalf("TotalBytes = %d, want %d", r.TotalBytes(), len(buf))
	}
	if got := len(r.Unique()); got != 3 {
		t.Fatalf("unique fingerprints = %d, want 3 (aaaa duplicated)", got)
	}

	index := make(map[fingerprint.FP][]byte)
	for _, c := range chunks {
		index[c.FP] = c.Data
	}
	out, err := r.Assemble(func(fp fingerprint.FP) ([]byte, error) {
		data, ok := index[fp]
		if !ok {
			return nil, fmt.Errorf("missing")
		}
		return data, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, buf) {
		t.Fatal("assembled buffer differs from original")
	}
}

func TestAssembleDetectsCorruption(t *testing.T) {
	buf := []byte("aaaabbbb")
	chunks := NewFixed(4).Split(buf)
	r := BuildRecipe(chunks)
	_, err := r.Assemble(func(fp fingerprint.FP) ([]byte, error) {
		return []byte("XXXX"), nil // wrong content, right length
	})
	if err == nil {
		t.Fatal("Assemble accepted corrupt chunk content")
	}
	_, err = r.Assemble(func(fp fingerprint.FP) ([]byte, error) {
		return []byte("toolongforachunk"), nil
	})
	if err == nil {
		t.Fatal("Assemble accepted wrong-size chunk")
	}
}

func TestRecipeWireRoundTrip(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		buf := make([]byte, rng.Intn(5000))
		rng.Read(buf)
		r := BuildRecipe(NewFixed(128).Split(buf))
		blob, err := r.MarshalBinary()
		if err != nil {
			return false
		}
		var back Recipe
		if err := back.UnmarshalBinary(blob); err != nil {
			return false
		}
		if back.Len() != r.Len() || back.TotalBytes() != r.TotalBytes() {
			return false
		}
		for i := range r.FPs {
			if back.FPs[i] != r.FPs[i] || back.Sizes[i] != r.Sizes[i] {
				return false
			}
		}
		blob2, err := back.MarshalBinary()
		return err == nil && bytes.Equal(blob2, blob)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
	// The empty recipe is a header and nothing else, and decodes back.
	blob, err := Recipe{}.MarshalBinary()
	if err != nil || len(blob) != 4 {
		t.Fatalf("empty recipe encodes to %d bytes (%v)", len(blob), err)
	}
	if back, rest, err := DecodeRecipe(blob); err != nil || back.Len() != 0 || len(rest) != 0 {
		t.Fatalf("empty recipe decoded to %d chunks, %d bytes left (%v)", back.Len(), len(rest), err)
	}
}

func TestDecodeRecipeRejectsTruncation(t *testing.T) {
	r := BuildRecipe(NewFixed(4).Split([]byte("aaaabbbbcccc")))
	blob, err := r.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{0, 2, len(blob) - 1} {
		var back Recipe
		if err := back.UnmarshalBinary(blob[:cut]); err == nil {
			t.Errorf("cut at %d: expected error", cut)
		}
	}
}

func TestContentDefinedCoversBuffer(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		buf := make([]byte, 10000+rng.Intn(10000))
		rng.Read(buf)
		c := NewContentDefined(512)
		var joined []byte
		for _, ch := range c.Split(buf) {
			if len(ch.Data) > c.Max {
				return false
			}
			joined = append(joined, ch.Data...)
		}
		return bytes.Equal(joined, buf)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestContentDefinedShiftResistance(t *testing.T) {
	// Insert bytes at the front; most chunk boundaries (hence
	// fingerprints) must survive — the property fixed-size chunking
	// lacks and CDC exists to provide.
	rng := rand.New(rand.NewSource(99))
	base := make([]byte, 64*1024)
	rng.Read(base)
	shifted := append([]byte("INSERTED PREFIX!"), base...)

	c := NewContentDefined(1024)
	fps := make(map[fingerprint.FP]bool)
	for _, ch := range c.Split(base) {
		fps[ch.FP] = true
	}
	var common, total int
	for _, ch := range c.Split(shifted) {
		total++
		if fps[ch.FP] {
			common++
		}
	}
	if common*2 < total {
		t.Fatalf("only %d/%d chunks survived a prefix shift; CDC is not shift resistant", common, total)
	}
}

// TestContentDefinedBoundsFromRoundedAvg is the regression test for the
// Min/Max derivation bug: a non-power-of-two request must derive Min and
// Max from the ROUNDED average, not the raw one, so the 1:4:16 ratio
// always holds and Max is never less than 4× the effective average.
func TestContentDefinedBoundsFromRoundedAvg(t *testing.T) {
	cases := []struct {
		avg, wantMin, wantAvg, wantMax int
	}{
		{512, 128, 512, 2048},
		{500, 128, 512, 2048}, // rounds up to 512; bounds follow the rounded value
		{4097, 2048, 8192, 32768},
		{100, 48, 128, 512}, // Min clamped to the 48-byte window
		{0, 1024, 4096, 16384},
	}
	for _, tc := range cases {
		c := NewContentDefined(tc.avg)
		if c.Min != tc.wantMin || c.Avg != tc.wantAvg || c.Max != tc.wantMax {
			t.Errorf("NewContentDefined(%d) = min/avg/max %d/%d/%d, want %d/%d/%d",
				tc.avg, c.Min, c.Avg, c.Max, tc.wantMin, tc.wantAvg, tc.wantMax)
		}
		if c.Max < 4*c.Avg {
			t.Errorf("NewContentDefined(%d): Max %d < 4×Avg %d", tc.avg, c.Max, c.Avg)
		}
	}
	if cuts := NewContentDefined(512).Cuts(nil); cuts != nil {
		t.Errorf("empty buffer produced cuts %v", cuts)
	}
}

func TestContentDefinedDeterministic(t *testing.T) {
	buf := make([]byte, 32*1024)
	rand.New(rand.NewSource(5)).Read(buf)
	a := NewContentDefined(512).Split(buf)
	b := NewContentDefined(512).Split(buf)
	if len(a) != len(b) {
		t.Fatalf("chunk counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].FP != b[i].FP {
			t.Fatalf("chunk %d differs between runs", i)
		}
	}
}

// TestCutsMatchSplit pins the CutChunker contract: Cuts + FromCuts must
// produce exactly what Split produces, for both chunkers, so the
// instrumented dump path (which times the two halves separately) cannot
// drift from the plain one.
func TestCutsMatchSplit(t *testing.T) {
	buf := make([]byte, 40*1024+123)
	rand.New(rand.NewSource(7)).Read(buf)
	chunkers := map[string]CutChunker{
		"fixed": NewFixed(4096),
		"cdc":   NewContentDefined(1024),
	}
	for name, c := range chunkers {
		cuts := c.Cuts(buf)
		if len(cuts) == 0 || cuts[len(cuts)-1] != len(buf) {
			t.Fatalf("%s: cuts do not cover buf: %v", name, cuts)
		}
		prev := 0
		for i, end := range cuts {
			if end <= prev {
				t.Fatalf("%s: cut %d (%d) not ascending from %d", name, i, end, prev)
			}
			prev = end
		}
		got := FromCuts(buf, cuts)
		want := c.Split(buf)
		if len(got) != len(want) {
			t.Fatalf("%s: %d chunks via cuts, %d via Split", name, len(got), len(want))
		}
		for i := range got {
			if got[i].FP != want[i].FP || len(got[i].Data) != len(want[i].Data) {
				t.Fatalf("%s: chunk %d differs", name, i)
			}
		}
	}
	if cuts := NewFixed(512).Cuts(nil); len(cuts) != 0 {
		t.Errorf("empty buf produced cuts %v", cuts)
	}
}
