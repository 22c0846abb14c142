// Package fingerprint provides content fingerprints for chunks and the
// frequency-merge machinery (HMERGE) at the heart of the collective
// deduplication scheme: a bounded table of the F most frequent fingerprints,
// each with its global frequency and a load-balanced list of at most K
// designated ranks, kept as flat fingerprint-sorted rows that a reduction
// step merge-joins straight from, and back into, the wire's order.
package fingerprint

import (
	"bytes"
	"cmp"
	"crypto/sha1"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
)

// Size is the byte length of a fingerprint (SHA-1 digest).
const Size = sha1.Size

// FP is a content fingerprint of a chunk. The paper uses SHA-1, a
// crypto-grade hash chosen to make collisions negligible in practice.
type FP [Size]byte

// Of computes the fingerprint of data.
func Of(data []byte) FP { return sum(data) }

// sum is the SHA-1 Of runs and sumPath names it: crypto/sha1 (on arm64,
// the ARMv8 SHA-1 instructions), unless init finds the CPU's SHA
// extensions on amd64 and selects the SHA-NI kernel (sha1_amd64.go).
var sum, sumPath = sha1Sum, "crypto/sha1"

func sha1Sum(data []byte) FP { return FP(sha1.Sum(data)) }

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ChunkSum is a chunk's integrity sum: CRC-32C over *fp ‖ data. It is
// taken once, where the chunk is hashed at ingest or parsed off a put
// frame, and travels with the chunk from there: put frames are summed
// over their records' sums, and a store keeps it as the chunk's at-rest
// sum. Covering the fingerprint binds the bytes to it, so another chunk's
// bytes under this fingerprint fail the check too.
//
// fp is a pointer so that crc32 folds the fingerprint where it already
// lives: handing crc32 a slice of a fingerprint held by value moves that
// value to the heap on every call.
func ChunkSum(fp *FP, data []byte) uint32 {
	return crc32.Update(crc32.Update(0, castagnoli, fp[:]), castagnoli, data)
}

// BatchOf fingerprints every span into dst (dst[i] = Of(spans[i])); dst
// must hold at least len(spans) entries.
func BatchOf(dst []FP, spans ...[]byte) {
	if len(dst) < len(spans) {
		panic(fmt.Sprintf("fingerprint: BatchOf dst %d shorter than spans %d", len(dst), len(spans)))
	}
	for i, s := range spans {
		dst[i] = Of(s)
	}
}

// String returns the hex form of the fingerprint.
func (f FP) String() string { return hex.EncodeToString(f[:]) }

// Short returns the first 8 hex digits, for logs and tests.
func (f FP) Short() string { return hex.EncodeToString(f[:4]) }

// Less orders fingerprints lexicographically. Used for deterministic
// iteration orders in the reduction.
func (f FP) Less(g FP) bool { return compare(&f, &g) < 0 }

// Compare returns -1, 0 or +1 comparing f and g lexicographically.
func (f FP) Compare(g FP) int { return compare(&f, &g) }

// compare is Compare without the copies, for the table's inner loops; the
// leading eight bytes, decisive but for colliding prefixes, go as one integer.
func compare(f, g *FP) int {
	if a, b := binary.BigEndian.Uint64(f[:]), binary.BigEndian.Uint64(g[:]); a != b {
		return cmp.Compare(a, b)
	}
	return bytes.Compare(f[8:], g[8:])
}

// Marshal appends the wire form of f to dst and returns the result.
func (f FP) Marshal(dst []byte) []byte { return append(dst, f[:]...) }

// UnmarshalFP reads a fingerprint from src, returning it and the rest.
func UnmarshalFP(src []byte) (FP, []byte, error) {
	var f FP
	if len(src) < Size {
		return f, nil, fmt.Errorf("fingerprint: short buffer: %d bytes", len(src))
	}
	copy(f[:], src[:Size])
	return f, src[Size:], nil
}
