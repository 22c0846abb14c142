package core

import (
	"fmt"
	"testing"

	"dedupcr/internal/chunk"
	"dedupcr/internal/collectives"
	"dedupcr/internal/storage"
)

// benchDump runs one full collective dump per iteration on a fresh
// cluster and reports dataset throughput.
func benchDump(b *testing.B, n int, o Options, mkBuf func(rank int) []byte) {
	b.Helper()
	var total int64
	for r := 0; r < n; r++ {
		total += int64(len(mkBuf(r)))
	}
	b.SetBytes(total)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cluster := storage.NewCluster(n)
		err := collectives.Run(n, func(c collectives.Comm) error {
			_, err := DumpOutput(c, cluster.Node(c.Rank()), mkBuf(c.Rank()), o)
			return err
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func benchWorkload(rank int) []byte {
	return testBuffer(rank, 24, 12, 8, 4+rank%5)
}

// BenchmarkDumpOutput compares the three approaches end to end on the
// same redundant workload — the library-level ablation behind Table I.
func BenchmarkDumpOutput(b *testing.B) {
	const n, k = 32, 3
	for _, ap := range []Approach{NoDedup, LocalDedup, CollDedup} {
		b.Run(ap.String(), func(b *testing.B) {
			o := Options{K: k, Approach: ap, Chunker: chunk.Spec{Size: testPage}, Name: "bench"}
			benchDump(b, n, o, benchWorkload)
		})
	}
}

// BenchmarkDumpShuffleAblation isolates the cost/benefit of the
// load-aware rank shuffling (Algorithm 2).
func BenchmarkDumpShuffleAblation(b *testing.B) {
	const n, k = 32, 4
	for _, shuffle := range []bool{false, true} {
		b.Run(fmt.Sprintf("shuffle=%t", shuffle), func(b *testing.B) {
			o := Options{K: k, Approach: CollDedup, Chunker: chunk.Spec{Size: testPage},
				Shuffle: Bool(shuffle), Name: "bench"}
			benchDump(b, n, o, benchWorkload)
		})
	}
}

// BenchmarkDumpFThreshold sweeps the top-F bound of the fingerprint
// reduction, the paper's accuracy/cost knob.
func BenchmarkDumpFThreshold(b *testing.B) {
	const n, k = 32, 3
	for _, f := range []int{64, 512, 1 << 20} {
		b.Run(fmt.Sprintf("F=%d", f), func(b *testing.B) {
			o := Options{K: k, Approach: CollDedup, Chunker: chunk.Spec{Size: testPage},
				F: f, Name: "bench"}
			benchDump(b, n, o, benchWorkload)
		})
	}
}

// BenchmarkDumpChunkSize sweeps the chunk size, trading dedup granularity
// against hashing and table overhead.
func BenchmarkDumpChunkSize(b *testing.B) {
	const n, k = 16, 3
	for _, cs := range []int{128, 256, 1024, 4096} {
		b.Run(fmt.Sprintf("chunk=%d", cs), func(b *testing.B) {
			o := Options{K: k, Approach: CollDedup, Chunker: chunk.Spec{Size: cs}, Name: "bench"}
			benchDump(b, n, o, benchWorkload)
		})
	}
}

// BenchmarkRestore measures the collective restore path, without and
// with a failed node forcing remote chunk recovery.
func BenchmarkRestore(b *testing.B) {
	const n, k = 16, 3
	for _, failures := range []int{0, 1} {
		b.Run(fmt.Sprintf("failures=%d", failures), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				cluster := storage.NewCluster(n)
				o := Options{K: k, Approach: CollDedup, Chunker: chunk.Spec{Size: testPage}, Name: "bench"}
				err := collectives.Run(n, func(c collectives.Comm) error {
					_, err := DumpOutput(c, cluster.Node(c.Rank()), benchWorkload(c.Rank()), o)
					return err
				})
				if err != nil {
					b.Fatal(err)
				}
				if failures > 0 {
					cluster.FailNodes(3)
					cluster.Replace(3)
				}
				b.StartTimer()
				err = collectives.Run(n, func(c collectives.Comm) error {
					_, err := Restore(c, cluster.Node(c.Rank()), "bench")
					return err
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
