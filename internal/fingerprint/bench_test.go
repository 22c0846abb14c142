package fingerprint

import (
	"fmt"
	"testing"
)

// leafTables builds two disjoint-ish leaf tables of size entries each.
func benchTables(entries, f, k int) (*Table, *Table) {
	var fpsA, fpsB []FP
	for i := 0; i < entries; i++ {
		fpsA = append(fpsA, fpOf(i))
		fpsB = append(fpsB, fpOf(i+entries/2)) // 50% overlap
	}
	return Local(fpsA, 0, f, k), Local(fpsB, 1, f, k)
}

// BenchmarkHMerge measures the paper's HMERGE step: merging two
// fingerprint tables under the top-F bound with designated-rank load
// balancing — the inner loop of the collective reduction.
func BenchmarkHMerge(b *testing.B) {
	for _, entries := range []int{1 << 10, 1 << 13} {
		b.Run(fmt.Sprintf("entries=%d", entries), func(b *testing.B) {
			_, t2 := benchTables(entries, entries, 3)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				t1, _ := benchTables(entries, entries, 3)
				b.StartTimer()
				t1.Merge(t2)
			}
		})
	}
}

// BenchmarkTableMarshal measures the serialization cost paid on every
// reduction tree edge.
func BenchmarkTableMarshal(b *testing.B) {
	t1, t2 := benchTables(1<<13, 1<<13, 3)
	t1.Merge(t2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blob, err := t1.MarshalBinary()
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(blob)))
	}
}

// BenchmarkTableUnmarshal measures the matching decode cost.
func BenchmarkTableUnmarshal(b *testing.B) {
	t1, t2 := benchTables(1<<13, 1<<13, 3)
	t1.Merge(t2)
	blob, err := t1.MarshalBinary()
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(blob)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var back Table
		if err := back.UnmarshalBinary(blob); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLocalLeaf measures building the reduction's leaf table from a
// rank's fingerprints.
func BenchmarkLocalLeaf(b *testing.B) {
	fps := make([]FP, 1<<13)
	for i := range fps {
		fps[i] = fpOf(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Local(fps, 0, 1<<13, 3)
	}
}

// fpSink keeps the benchmarked hash from being optimised away.
var fpSink FP

// BenchmarkFingerprint measures one-shot SHA-1 over a 256 B chunk (the
// metadata-heavy regime) and a 4 KiB page, the per-chunk hashing cost
// every approach except no-dedup pays, on the SHA-NI kernel and on the
// crypto/sha1 fallback called directly.
func BenchmarkFingerprint(b *testing.B) {
	for _, size := range []int{256, 4096} {
		for _, p := range sha1Paths {
			b.Run(fmt.Sprintf("size=%d/path=%s", size, p.name), func(b *testing.B) {
				if p.kernel && sumPath != "SHA-NI" {
					b.Skipf("Of runs %s here: no SHA-NI kernel path", sumPath)
				}
				data := make([]byte, size)
				b.SetBytes(int64(size))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					fpSink = p.sum(data)
				}
			})
		}
	}
}
