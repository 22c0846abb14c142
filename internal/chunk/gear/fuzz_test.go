package gear

import (
	"bytes"
	"testing"
)

// FuzzGearChunker is the differential fuzzer of the boundary scan: on
// every input, the unrolled production scan and the generic reference
// must return identical cut points, and the cuts
// must satisfy the structural invariants — strictly ascending, tiling
// the buffer, bounded by Min/Max — plus split-stability: re-chunking the
// suffix after any cut reproduces the remaining cuts.
func FuzzGearChunker(f *testing.F) {
	f.Add([]byte("hello, collective dump"), byte(0))
	f.Add(bytes.Repeat([]byte("abcdef0123456789"), 64), byte(1))
	f.Add(make([]byte, 4096), byte(2))
	f.Add([]byte{}, byte(3))
	f.Fuzz(func(t *testing.T, data []byte, avgSel byte) {
		avgs := []int{64, 128, 256, 1024}
		c := New(avgs[int(avgSel)%len(avgs)])

		cuts := cutsWith(cutGeneric, c, data)
		fast := cutsWith(cutUnrolled, c, data)
		if len(cuts) != len(fast) {
			t.Fatalf("generic %d cuts, unrolled %d", len(cuts), len(fast))
		}
		for i := range cuts {
			if cuts[i] != fast[i] {
				t.Fatalf("cut %d: generic %d, unrolled %d", i, cuts[i], fast[i])
			}
		}

		if len(data) == 0 {
			if len(cuts) != 0 {
				t.Fatalf("empty buffer produced %d cuts", len(cuts))
			}
			return
		}
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

		// Split-stability at the first and middle cut.
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

		// The public entry point agrees with the reference.
		pub := c.Cuts(data)
		if len(pub) != len(cuts) {
			t.Fatalf("Cuts %d cuts, reference %d", len(pub), len(cuts))
		}
		for i := range pub {
			if pub[i] != cuts[i] {
				t.Fatalf("Cuts[%d] = %d, reference %d", i, pub[i], cuts[i])
			}
		}
	})
}
