package gear

import "testing"

// BenchmarkGearCuts measures the boundary scan — compare against
// BenchmarkGenericCuts to see the unrolled loop's margin.
func BenchmarkGearCuts(b *testing.B) {
	buf := testBuf(1, 1<<22)
	c := New(4096)
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Cuts(buf)
	}
}

// BenchmarkGenericCuts measures the test-only reference scan.
func BenchmarkGenericCuts(b *testing.B) {
	buf := testBuf(1, 1<<22)
	c := New(4096)
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cutsWith(cutGeneric, c, buf)
	}
}
