package chunk

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"dedupcr/internal/chunk/gear"
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

// TestRecipeEntryReadsInPlace: RecipeEntry reads every position of an
// encoding as the decoder does, its fingerprint where it lies in the
// encoding, and RecipeCount counts the entries that
// are whole — all of them, fewer on a cut encoding, none without a
// header — and reads a count the bytes cannot hold as what fits.
func TestRecipeEntryReadsInPlace(t *testing.T) {
	buf := make([]byte, 3000)
	rand.New(rand.NewSource(3)).Read(buf)
	r := BuildRecipe(NewFixed(128).Split(buf))
	blob, err := r.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if got := RecipeCount(blob); got != r.Len() {
		t.Fatalf("RecipeCount = %d, want %d", got, r.Len())
	}
	for i := range r.FPs {
		if fp, size := RecipeEntry(blob, i); *fp != r.FPs[i] || int32(size) != r.Sizes[i] {
			t.Fatalf("entry %d = %s/%d, want %s/%d", i, fp.Short(), size, r.FPs[i].Short(), r.Sizes[i])
		}
		if fp, _ := RecipeEntry(blob, i); &fp[0] != &blob[4+i*(fingerprint.Size+4)] {
			t.Fatalf("entry %d: fingerprint copied out of the encoding", i)
		}
	}
	const entry = 24 // fingerprint and u32 size
	for cut, want := range map[int]int{0: 0, 3: 0, 4: 0, 4 + entry - 1: 0, 4 + 5*entry + 7: 5, len(blob) - 1: r.Len() - 1} {
		if got := RecipeCount(blob[:cut]); got != want {
			t.Errorf("RecipeCount of the first %d bytes = %d, want %d", cut, got, want)
		}
	}
	huge := append([]byte{0xff, 0xff, 0xff, 0xff}, blob[4:]...)
	if got := RecipeCount(huge); got != r.Len() {
		t.Errorf("RecipeCount with a count of 2^32-1 = %d, want the %d entries present", got, r.Len())
	}
}

// TestCutsMatchSplit pins the CutChunker contract for both chunkers a
// Spec can name: the cuts tile buf in ascending order, and FromCuts turns
// them into chunks that reassemble buf with correct fingerprints — the
// same chunks Fixed.Split returns — so the instrumented dump path (which
// times the two halves separately) cannot drift from the plain one.
func TestCutsMatchSplit(t *testing.T) {
	buf := make([]byte, 40*1024+123)
	rand.New(rand.NewSource(7)).Read(buf)
	for _, spec := range []Spec{{Algo: AlgoFixed, Size: 4096}, {Algo: AlgoGear, Size: 1024}} {
		c, err := New(spec)
		if err != nil {
			t.Fatal(err)
		}
		cuts := c.Cuts(buf)
		if len(cuts) == 0 || cuts[len(cuts)-1] != len(buf) {
			t.Fatalf("%s: cuts do not cover buf: %v", spec, cuts)
		}
		prev := 0
		for i, end := range cuts {
			if end <= prev {
				t.Fatalf("%s: cut %d (%d) not ascending from %d", spec, i, end, prev)
			}
			prev = end
		}
		got := FromCuts(buf, cuts)
		var joined []byte
		for i, ch := range got {
			if fingerprint.Of(ch.Data) != ch.FP {
				t.Fatalf("%s: chunk %d fingerprint does not match its data", spec, i)
			}
			joined = append(joined, ch.Data...)
		}
		if !bytes.Equal(joined, buf) {
			t.Fatalf("%s: chunks do not reassemble buf", spec)
		}
		if f, ok := c.(Fixed); ok {
			want := f.Split(buf)
			if len(got) != len(want) {
				t.Fatalf("%s: %d chunks via cuts, %d via Split", spec, len(got), len(want))
			}
			for i := range got {
				if got[i].FP != want[i].FP || len(got[i].Data) != len(want[i].Data) {
					t.Fatalf("%s: chunk %d differs", spec, i)
				}
			}
		}
	}
	if cuts := NewFixed(512).Cuts(nil); len(cuts) != 0 {
		t.Errorf("empty buf produced cuts %v", cuts)
	}
}

// TestRegisteredWithSpec pins the spec constructor: a gear spec builds a
// *gear.Chunker of the requested size, and the deleted Rabin chunker's
// spellings no longer parse.
func TestRegisteredWithSpec(t *testing.T) {
	cc, err := New(Spec{Algo: AlgoGear, Size: 256})
	if err != nil {
		t.Fatal(err)
	}
	g, ok := cc.(*gear.Chunker)
	if !ok {
		t.Fatalf("spec constructor returned %T, want *gear.Chunker", cc)
	}
	if g.Avg != 256 {
		t.Fatalf("spec size not honored: Avg = %d", g.Avg)
	}
	for _, name := range []string{"cdc", "rabin"} {
		if _, err := ParseAlgo(name); err == nil || !strings.Contains(err.Error(), "fixed or gear") {
			t.Errorf("ParseAlgo(%q) = %v, want an error naming fixed or gear", name, err)
		}
	}
}
