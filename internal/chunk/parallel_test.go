package chunk

import (
	"bytes"
	"math/rand"
	"testing"

	"dedupcr/internal/chunk/gear"
)

// randBuf builds a deterministic pseudo-random buffer with some repeated
// regions so both chunkers see duplicate content.
func randBuf(seed int64, n int) []byte {
	buf := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(buf)
	// Repeat a block to create duplicate chunks under fixed-size cuts.
	if n >= 4096 {
		copy(buf[n/2:], buf[:2048])
	}
	return buf
}

// TestFromCutsParallelMatchesSerial verifies the hash pool's determinism
// guarantee: for both chunkers and any worker count, FromCutsStream
// produces exactly the chunks FromCuts produces, in the same order.
func TestFromCutsParallelMatchesSerial(t *testing.T) {
	for _, size := range []int{0, 1, 100, 4096, 1 << 16, 1<<17 + 333} {
		buf := randBuf(int64(size)+7, size)
		for _, chunker := range []CutChunker{NewFixed(256), gear.New(256)} {
			cuts := chunker.Cuts(buf)
			want := FromCuts(buf, cuts)
			for _, workers := range []int{0, 1, 2, 3, 8, 64} {
				got, _ := FromCutsStream(buf, cuts, workers, nil)
				if len(got) != len(want) {
					t.Fatalf("size=%d workers=%d: %d chunks, want %d", size, workers, len(got), len(want))
				}
				for i := range want {
					if got[i].FP != want[i].FP || !bytes.Equal(got[i].Data, want[i].Data) {
						t.Fatalf("size=%d workers=%d: chunk %d differs", size, workers, i)
					}
				}
			}
		}
	}
}

// TestFromCutsStreamOrder verifies that emit receives consecutive spans
// covering every chunk in dataset order, so a streaming consumer (the
// dump's local-dedup) sees exactly the serial first-occurrence order.
func TestFromCutsStreamOrder(t *testing.T) {
	buf := randBuf(42, 1<<17)
	cuts := NewFixed(128).Cuts(buf)
	var streamed []Chunk
	got, busy := FromCutsStream(buf, cuts, 4, func(span []Chunk) {
		streamed = append(streamed, span...)
	})
	want := FromCuts(buf, cuts)
	if len(streamed) != len(want) || len(got) != len(want) {
		t.Fatalf("streamed %d, returned %d chunks, want %d", len(streamed), len(got), len(want))
	}
	for i := range want {
		if streamed[i].FP != want[i].FP {
			t.Fatalf("streamed chunk %d out of order", i)
		}
		if got[i].FP != want[i].FP {
			t.Fatalf("returned chunk %d differs", i)
		}
	}
	if len(busy) == 0 {
		t.Fatalf("expected per-worker busy times for a parallel run")
	}
	for w, d := range busy {
		if d < 0 {
			t.Fatalf("worker %d negative busy time %v", w, d)
		}
	}
}

// TestWorkersNormalization pins the worker-count defaulting rule.
func TestWorkersNormalization(t *testing.T) {
	if Workers(3) != 3 {
		t.Fatalf("Workers(3) = %d", Workers(3))
	}
	if Workers(0) < 1 || Workers(-5) < 1 {
		t.Fatalf("Workers must normalize non-positive counts to >= 1")
	}
}
