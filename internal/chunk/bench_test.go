package chunk

import (
	"math/rand"
	"testing"

	"dedupcr/internal/chunk/gear"
	"dedupcr/internal/fingerprint"
)

func benchBuf(n int) []byte {
	buf := make([]byte, n)
	rand.New(rand.NewSource(1)).Read(buf)
	return buf
}

// BenchmarkFixedSplit4K measures fixed-size chunking + fingerprinting at
// the paper's page size — the dominant CPU cost of every dump.
func BenchmarkFixedSplit4K(b *testing.B) {
	buf := benchBuf(1 << 22)
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewFixed(4096).Split(buf)
	}
}

// BenchmarkFixedSplit256 measures the scaled chunk size the experiments
// use.
func BenchmarkFixedSplit256(b *testing.B) {
	buf := benchBuf(1 << 20)
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewFixed(256).Split(buf)
	}
}

// BenchmarkGearSplit measures the gear boundary scan + fingerprinting,
// the full serial hot path a Parallelism=1 gear dump runs per rank.
func BenchmarkGearSplit(b *testing.B) {
	buf := benchBuf(1 << 22)
	c := gear.New(4096)
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FromCuts(buf, c.Cuts(buf))
	}
}

// BenchmarkRecipeAssemble measures dataset reconstruction from a chunk
// index — the restore hot path.
func BenchmarkRecipeAssemble(b *testing.B) {
	buf := benchBuf(1 << 20)
	chunks := NewFixed(4096).Split(buf)
	r := BuildRecipe(chunks)
	index := make(map[fingerprint.FP][]byte, len(chunks))
	for _, c := range chunks {
		index[c.FP] = c.Data
	}
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := r.Assemble(func(fp fingerprint.FP) ([]byte, error) {
			return index[fp], nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}
