package gear

// cutUnrolled is the boundary scan: the gear recurrence, eight positions
// per loop iteration over a re-sliced 8-byte block. The full-slice
// re-slice (b := buf[i:i+8:i+8]) lets the compiler prove every inner
// index in-bounds, so the hot loop compiles to straight shift-add-lookup
// chains with no bounds checks and no per-byte loop overhead — the
// compiler-friendly shape of the SIMD skip-scanning kernels in the
// vector-chunking literature, without hand assembly.
//
// buf is already clamped to Max by the caller; minSize > 0 and
// minSize < len(buf) hold (cutPoint handles the short-buffer case), and
// minSize >= Window by construction of the chunker.
func cutUnrolled(buf []byte, minSize int, mask uint64) int {
	var h uint64
	// Skip-scan: the accumulator at position p depends only on bytes
	// (p-Window, p], so priming can start Window bytes before the first
	// position the cut condition may fire at. Bytes before that would
	// have shifted entirely out of the 64-bit state.
	for i := minSize - Window; i < minSize; i++ {
		h = h<<1 + table[buf[i]]
	}
	n := len(buf)
	i := minSize
	for ; i+8 <= n; i += 8 {
		b := buf[i : i+8 : i+8]
		h = h<<1 + table[b[0]]
		if h&mask == 0 {
			return i + 1
		}
		h = h<<1 + table[b[1]]
		if h&mask == 0 {
			return i + 2
		}
		h = h<<1 + table[b[2]]
		if h&mask == 0 {
			return i + 3
		}
		h = h<<1 + table[b[3]]
		if h&mask == 0 {
			return i + 4
		}
		h = h<<1 + table[b[4]]
		if h&mask == 0 {
			return i + 5
		}
		h = h<<1 + table[b[5]]
		if h&mask == 0 {
			return i + 6
		}
		h = h<<1 + table[b[6]]
		if h&mask == 0 {
			return i + 7
		}
		h = h<<1 + table[b[7]]
		if h&mask == 0 {
			return i + 8
		}
	}
	for ; i < n; i++ {
		h = h<<1 + table[buf[i]]
		if h&mask == 0 {
			return i + 1
		}
	}
	return n
}
