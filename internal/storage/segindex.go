package storage

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"slices"

	"dedupcr/internal/fingerprint"
)

// Columnar per-segment fingerprint index, written once when a segment is
// sealed and immutable afterwards (refcount drift after sealing is
// journaled in the manifest, never patched into this file). The encoding
// follows the batch-first discipline of the wire codecs elsewhere in the
// tree: one homogeneous column per field rather than interleaved records,
// varint-packed where the values are small.
//
//	magic "DSix" (4) | version u8 | count uvarint
//	fingerprint column: count × 20 bytes, sorted ascending, no duplicates
//	offset column:      count × uvarint (byte offset of the chunk payload
//	                    in the segment data file)
//	length column:      count × uvarint (payload bytes)
//	refcount column:    count × uvarint (references held at seal time)
//	sum column:         count × u32 big-endian (the chunk's CRC-32C over
//	                    fp ‖ payload, taken at put)
//	crc32 (IEEE) of everything above, u32 big-endian
//
// Sorting by fingerprint makes the encoding a pure function of the entry
// *set*: any insertion order yields byte-identical output (the
// determinism contract the 100-run regression test locks in), and lookup
// structures can binary-search the fingerprint column without decoding
// the varint columns. Version 2 added the sum column; a version 1 index
// is refused, not migrated.
const (
	segIndexMagic   = "DSix"
	segIndexVersion = 2
	// segIndexMinEntry is the least bytes one entry can occupy: the
	// fingerprint, one varint byte per packed column and the sum. Bounds
	// the count prefix of a hostile index against the input length.
	segIndexMinEntry = fingerprint.Size + 3 + sumSize
)

// segEntry is one chunk's row in a segment index. Offset/Length locate
// the payload inside the segment data file; Refs is the chunk's current
// reference count (mutated in memory after sealing, persisted at seal
// time here and as manifest overrides afterwards); Sum is the chunk's
// at-rest checksum, taken at put and carried unchanged by compaction.
// The field order packs a row into 40 bytes.
type segEntry struct {
	FP     fingerprint.FP
	Length uint32
	Offset uint64
	Refs   uint32
	Sum    uint32
}

// bySegFP orders rows by fingerprint, the order of a sealed index.
func bySegFP(a, b segEntry) int { return a.FP.Compare(b.FP) }

// encodeSegIndex marshals entries into the columnar index format. The
// input is not mutated; output bytes depend only on the set of entries,
// not their order. Rows already in fingerprint order, as a seal passes
// them, are encoded as they are; others from a sorted copy.
func encodeSegIndex(entries []segEntry) []byte {
	sorted := entries
	if !slices.IsSortedFunc(sorted, bySegFP) {
		sorted = slices.Clone(entries)
		slices.SortFunc(sorted, bySegFP)
	}

	buf := make([]byte, 0, len(segIndexMagic)+1+binary.MaxVarintLen64+len(sorted)*(fingerprint.Size+12+sumSize)+4)
	buf = append(buf, segIndexMagic...)
	buf = append(buf, segIndexVersion)
	buf = binary.AppendUvarint(buf, uint64(len(sorted)))
	for _, e := range sorted {
		buf = append(buf, e.FP[:]...)
	}
	for _, e := range sorted {
		buf = binary.AppendUvarint(buf, e.Offset)
	}
	for _, e := range sorted {
		buf = binary.AppendUvarint(buf, uint64(e.Length))
	}
	for _, e := range sorted {
		buf = binary.AppendUvarint(buf, uint64(e.Refs))
	}
	for _, e := range sorted {
		buf = binary.BigEndian.AppendUint32(buf, e.Sum)
	}
	return binary.BigEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
}

// decodeSegIndex unmarshals a columnar segment index, enforcing the
// checksum, strict bounds on every count and varint, canonical ordering
// (strictly ascending fingerprints) and full consumption of the input.
func decodeSegIndex(data []byte) ([]segEntry, error) {
	const hdr = len(segIndexMagic) + 1
	if len(data) < hdr+1+4 {
		return nil, fmt.Errorf("storage: segment index truncated (%d bytes)", len(data))
	}
	if string(data[:len(segIndexMagic)]) != segIndexMagic {
		return nil, fmt.Errorf("storage: bad segment index magic")
	}
	if data[len(segIndexMagic)] != segIndexVersion {
		return nil, fmt.Errorf("storage: segment index version %d, want %d", data[len(segIndexMagic)], segIndexVersion)
	}
	body, sum := data[:len(data)-4], binary.BigEndian.Uint32(data[len(data)-4:])
	if got := crc32.ChecksumIEEE(body); got != sum {
		return nil, fmt.Errorf("storage: segment index checksum mismatch (%08x != %08x)", got, sum)
	}
	rest := body[hdr:]
	count, n := binary.Uvarint(rest)
	if n <= 0 {
		return nil, fmt.Errorf("storage: bad segment index count")
	}
	rest = rest[n:]
	if count > uint64(len(rest))/segIndexMinEntry {
		return nil, fmt.Errorf("storage: segment index claims %d entries for %d bytes", count, len(rest))
	}
	entries := make([]segEntry, count)
	if uint64(len(rest)) < count*fingerprint.Size {
		return nil, fmt.Errorf("storage: segment index fingerprint column truncated")
	}
	for i := range entries {
		copy(entries[i].FP[:], rest[uint64(i)*fingerprint.Size:])
		if i > 0 && !entries[i-1].FP.Less(entries[i].FP) {
			return nil, fmt.Errorf("storage: segment index fingerprints not strictly ascending at %d", i)
		}
	}
	rest = rest[count*fingerprint.Size:]
	for i := range entries {
		v, n := binary.Uvarint(rest)
		if n <= 0 {
			return nil, fmt.Errorf("storage: segment index offset column truncated at %d", i)
		}
		entries[i].Offset, rest = v, rest[n:]
	}
	for i := range entries {
		v, n := binary.Uvarint(rest)
		if n <= 0 || v > maxChunkLen {
			return nil, fmt.Errorf("storage: segment index length column bad at %d", i)
		}
		if entries[i].Offset+v < entries[i].Offset {
			return nil, fmt.Errorf("storage: segment index extent overflow at %d", i)
		}
		entries[i].Length, rest = uint32(v), rest[n:]
	}
	for i := range entries {
		v, n := binary.Uvarint(rest)
		if n <= 0 || v > maxChunkRefs {
			return nil, fmt.Errorf("storage: segment index refcount column bad at %d", i)
		}
		entries[i].Refs, rest = uint32(v), rest[n:]
	}
	if uint64(len(rest)) < count*sumSize {
		return nil, fmt.Errorf("storage: segment index sum column truncated")
	}
	for i := range entries {
		entries[i].Sum = binary.BigEndian.Uint32(rest[i*sumSize:])
	}
	rest = rest[count*sumSize:]
	if len(rest) != 0 {
		return nil, fmt.Errorf("storage: %d trailing bytes after segment index", len(rest))
	}
	return entries, nil
}

// maxChunkLen bounds a single chunk payload (1 GiB, matching the TCP
// frame bound); maxChunkRefs bounds a reference count. Both keep a
// corrupt or hostile index from encoding absurd extents.
const (
	maxChunkLen  = 1 << 30
	maxChunkRefs = 1 << 30
)
