// Package gear is a gear-hash content-defined chunker, the vectorizable
// CDC variant of the dedup literature ("Accelerating Data Chunking in
// Deduplication Systems using Vector Instructions"; Ddelta/FastCDC).
//
// The gear hash keeps no explicit sliding window: each step is one
// shift-add plus a single 256-entry table lookup,
//
//	h = h<<1 + table[b]
//
// and bytes age out of the state by overflow — after 64 shifts a byte's
// entire contribution has left the 64-bit accumulator, carries included
// (the hash is a sum of table[bᵢ]<<dᵢ mod 2^64, and any term shifted by
// ≥64 is exactly 0 mod 2^64). That gives the two properties the hot path
// wants:
//
//   - half the per-byte work of a Rabin rolling hash (no second lookup,
//     no outgoing-byte subtraction), in a dependency chain short enough
//     for wide out-of-order cores to sustain ~1 byte/cycle;
//   - skip-scanning: the hash at any position depends only on the last
//     64 bytes, so the scan can jump straight to Min-64 instead of
//     hashing the whole minimum-size prefix.
//
// The cut condition tests the accumulator's HIGH bits (h & mask == 0
// with mask occupying the top log2(avg) bits): high bits mix the full
// 64-byte window, while low bits would depend on only the last few
// bytes. Min/Avg/Max bounds follow the normalized CDC discipline — Avg
// rounds up to a power of two, Min = Avg/4 (clamped to the 64-byte
// window), Max = Avg*4, all derived from the rounded value.
//
// The boundary scan is an 8-way unrolled loop (cutUnrolled) that the
// compiler keeps free of bounds checks; it is pure Go and runs on every
// architecture. The differential fuzzer and the golden cut-point vectors
// under internal/chunk/testdata pin it to the plain reference loop the
// tests keep (cutGeneric), and the 100-run determinism test pins it to
// itself.
//
// The package is a leaf: it imports nothing from the module, and
// internal/chunk imports it to build the chunker a chunk.Spec names.
package gear

// Window is the gear hash's effective window: the number of trailing
// bytes that can still influence the accumulator (the width of uint64).
const Window = 64

// table maps each byte value to a pseudo-random 64-bit gear. It is
// computed once at init by a fixed-seed xorshift64* generator — byte
// tables must be bit-identical on every rank, architecture and run,
// because chunk boundaries are collective decision state.
var table [256]uint64

// initTable fills the gear table deterministically.
func initTable() {
	x := uint64(0xA5A3_5730_0596_9F8B)
	for i := range table {
		x ^= x >> 12
		x ^= x << 25
		x ^= x >> 27
		table[i] = x * 0x2545F4914F6CDD1D
	}
}

func init() { initTable() }

// defaultAvg is the expected chunk size New picks for avg <= 0: one
// memory page, the same default as chunk.DefaultSize.
const defaultAvg = 4096

// Chunker is a gear-hash content-defined chunker. It satisfies
// chunk.CutChunker: the boundary scan (Cuts) is separable from
// fingerprinting so the dump pipeline attributes the two phases
// independently.
type Chunker struct {
	// Min and Max bound the chunk size; Avg is the expected size
	// (a power of two).
	Min, Avg, Max int

	mask uint64
}

// New builds a gear chunker with an expected chunk size of avg bytes
// (rounded up to a power of two), Min = Avg/4 (clamped to the 64-byte
// gear window) and Max = Avg*4, all derived from the rounded value.
// avg <= 0 selects a 4 KiB page.
func New(avg int) *Chunker {
	if avg <= 0 {
		avg = defaultAvg
	}
	bits := 1
	for 1<<bits < avg {
		bits++
	}
	rounded := 1 << bits
	c := &Chunker{
		Min: rounded / 4,
		Avg: rounded,
		Max: rounded * 4,
		// The top `bits` bits of the accumulator: a cut fires when all
		// of them are zero, once per 2^bits positions in expectation.
		mask: (uint64(1)<<bits - 1) << (64 - bits),
	}
	if c.Min < Window {
		c.Min = Window
	}
	return c
}

// Cuts returns the end offset of every chunk of buf, ascending, the last
// one len(buf). An empty buf yields no cuts.
func (c *Chunker) Cuts(buf []byte) []int {
	if len(buf) == 0 {
		return nil
	}
	out := make([]int, 0, len(buf)/c.Avg+1)
	off := 0
	for off < len(buf) {
		off += c.cutPoint(buf[off:])
		out = append(out, off)
	}
	return out
}

// cutPoint returns the length of the next chunk of buf. The accumulator
// restarts at zero on every chunk, so chunking any suffix that starts at
// a cut reproduces the remaining cuts exactly — the split-stability
// property all ranks rely on to agree on boundaries without shared
// state.
func (c *Chunker) cutPoint(buf []byte) int {
	if len(buf) <= c.Min {
		return len(buf)
	}
	limit := len(buf)
	if limit > c.Max {
		limit = c.Max
	}
	return cutUnrolled(buf[:limit], c.Min, c.mask)
}
