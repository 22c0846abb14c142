package fingerprint

import (
	"crypto/sha1"
	"math/rand"
	"testing"
)

// TestBatchOfMatchesOf pins the batch contract: BatchOf and Of must both
// give crypto/sha1's digest, for spans of every shape — empty, nil, tiny,
// on either side of a padding edge, block-sized and odd-tailed — in
// shuffled order.
func TestBatchOfMatchesOf(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	spans := [][]byte{nil, {}, []byte("x")}
	for _, n := range paddingEdges {
		spans = append(spans, make([]byte, n))
	}
	for i := 0; i < 61; i++ {
		s := make([]byte, rng.Intn(5000))
		rng.Read(s)
		spans = append(spans, s)
	}
	rng.Shuffle(len(spans), func(i, j int) { spans[i], spans[j] = spans[j], spans[i] })

	dst := make([]FP, len(spans))
	BatchOf(dst, spans...)
	for i, s := range spans {
		want := FP(sha1.Sum(s))
		if dst[i] != want || Of(s) != want {
			t.Fatalf("span %d (%d bytes): batch %s, Of %s, crypto/sha1 %s", i, len(s), dst[i].Short(), Of(s).Short(), want.Short())
		}
	}

	// A second batch into the same dst must overwrite cleanly.
	BatchOf(dst[:1], []byte("other"))
	if dst[0] != FP(sha1.Sum([]byte("other"))) {
		t.Fatal("reused dst entry not overwritten")
	}
	// Oversized dst is fine; the tail stays untouched.
	tail := dst[len(dst)-1]
	BatchOf(dst, spans[0])
	if dst[len(dst)-1] != tail {
		t.Fatal("BatchOf wrote past its spans")
	}
}

func TestBatchOfShortDstPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("BatchOf accepted a dst shorter than spans")
		}
	}()
	BatchOf(make([]FP, 1), []byte("a"), []byte("b"))
}

func TestBatchOfEmpty(t *testing.T) {
	BatchOf(nil) // zero spans need zero dst
}
