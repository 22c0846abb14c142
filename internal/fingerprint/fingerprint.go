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
)

// Size is the byte length of a fingerprint (SHA-1 digest).
const Size = sha1.Size

// FP is a content fingerprint of a chunk. The paper uses SHA-1, a
// crypto-grade hash chosen to make collisions negligible in practice.
type FP [Size]byte

// Of computes the fingerprint of data.
func Of(data []byte) FP {
	return FP(sha1.Sum(data))
}

// BatchOf fingerprints every span into dst (dst[i] = Of(spans[i])),
// reusing one digest state across the whole batch and writing each
// result in place. Hashing a cache-resident batch this way — no
// per-chunk digest construction, no result copy through the stack —
// is what the chunk package's hash pool calls per shard, so the
// fingerprint phase gets faster at Parallelism=1, not just wider.
// Results are bit-identical to per-span Of calls (the batch tests and
// fuzzer pin this); dst must hold at least len(spans) entries.
func BatchOf(dst []FP, spans ...[]byte) {
	if len(dst) < len(spans) {
		panic(fmt.Sprintf("fingerprint: BatchOf dst %d shorter than spans %d", len(dst), len(spans)))
	}
	h := sha1.New()
	for i, s := range spans {
		h.Reset()
		h.Write(s)
		// Sum appends into dst[i]'s backing array (cap Size, len 0):
		// the digest lands directly in the destination fingerprint.
		h.Sum(dst[i][:0])
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

// Bucket maps a fingerprint to one of n buckets using its leading bytes.
// Used to shard fingerprint tables.
func (f FP) Bucket(n int) int {
	if n <= 1 {
		return 0
	}
	v := binary.BigEndian.Uint64(f[:8])
	return int(v % uint64(n))
}
