package chunk

import (
	"bytes"
	"testing"

	"dedupcr/internal/chunk/gear"
)

// FuzzCDCChunker fuzzes the content-defined (gear) chunker, built
// through New as the dump builds it, for its structural invariants and
// its split-stability: because the gear scan restarts at every cut point, chunking the stream suffix after any cut
// must reproduce the remaining cuts exactly — the property that makes
// all ranks agree on boundaries without sharing state, and the property
// the parallel hash pool relies on when it hands shard boundaries out by
// index.
func FuzzCDCChunker(f *testing.F) {
	f.Add([]byte("hello, collective dump"), byte(0))
	f.Add(bytes.Repeat([]byte("abcdef0123456789"), 64), byte(1))
	f.Add(make([]byte, 4096), byte(2))
	f.Add([]byte{}, byte(3))
	f.Fuzz(func(t *testing.T, data []byte, avgSel byte) {
		avgs := []int{64, 128, 256, 1024}
		cc, err := New(Spec{Algo: AlgoGear, Size: avgs[int(avgSel)%len(avgs)]})
		if err != nil {
			t.Fatal(err)
		}
		c := cc.(*gear.Chunker)
		cuts := c.Cuts(data)

		if len(data) == 0 {
			if len(cuts) != 0 {
				t.Fatalf("empty buffer produced %d cuts", len(cuts))
			}
			return
		}
		// Cuts are strictly ascending and tile the buffer exactly.
		prev := 0
		for i, end := range cuts {
			if end <= prev {
				t.Fatalf("cut %d not ascending: %d after %d", i, end, prev)
			}
			size := end - prev
			if size > c.Max {
				t.Fatalf("chunk %d of %d bytes exceeds Max %d", i, size, c.Max)
			}
			if i < len(cuts)-1 && size <= c.Min {
				t.Fatalf("non-final chunk %d of %d bytes not above Min %d", i, size, c.Min)
			}
			prev = end
		}
		if cuts[len(cuts)-1] != len(data) {
			t.Fatalf("last cut %d != len %d", cuts[len(cuts)-1], len(data))
		}

		// Split-stability: re-chunking the suffix after a cut reproduces
		// the remaining boundaries (checked at the first and middle cut).
		for _, i := range []int{0, len(cuts) / 2} {
			if i >= len(cuts)-1 {
				continue
			}
			base := cuts[i]
			suffix := c.Cuts(data[base:])
			rest := cuts[i+1:]
			if len(suffix) != len(rest) {
				t.Fatalf("suffix after cut %d: %d cuts, want %d", i, len(suffix), len(rest))
			}
			for j := range rest {
				if suffix[j] != rest[j]-base {
					t.Fatalf("suffix cut %d = %d, want %d", j, suffix[j], rest[j]-base)
				}
			}
		}

		// The parallel hash pool must agree with the serial reference.
		want := FromCuts(data, cuts)
		got, _ := FromCutsStream(data, cuts, 4, nil)
		if len(got) != len(want) {
			t.Fatalf("parallel produced %d chunks, want %d", len(got), len(want))
		}
		for i := range want {
			if got[i].FP != want[i].FP || !bytes.Equal(got[i].Data, want[i].Data) {
				t.Fatalf("parallel chunk %d differs from serial", i)
			}
		}
	})
}
