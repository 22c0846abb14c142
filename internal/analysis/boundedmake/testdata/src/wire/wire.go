// Package wire is a boundedmake fixture: decoders sizing allocations
// from peer-controlled length prefixes, in every checked and unchecked
// variation.
package wire

import "encoding/binary"

// DecodeUnchecked sizes an allocation straight from a wire read.
func DecodeUnchecked(data []byte) []byte {
	n := int(binary.BigEndian.Uint32(data))
	return make([]byte, n) // want "make sized by wire-read length \"n\" without a dominating bound check"
}

// DecodeChecked bounds the length before allocating: clean.
func DecodeChecked(data []byte) []byte {
	n := int(binary.BigEndian.Uint32(data))
	if n > len(data)-4 {
		return nil
	}
	return make([]byte, n)
}

// DecodeInline has no variable to have checked at all.
func DecodeInline(data []byte) []byte {
	return make([]byte, binary.BigEndian.Uint16(data)) // want "make sized directly by a wire read"
}

// DecodeClamped bounds through the min builtin: clean.
func DecodeClamped(data []byte) []byte {
	n := int(binary.BigEndian.Uint32(data))
	return make([]byte, min(n, 1024))
}

// DecodeTransitive launders the tainted length through arithmetic and a
// second variable; the taint root is still the wire read.
func DecodeTransitive(data []byte) []uint64 {
	n := int(binary.BigEndian.Uint32(data))
	words := n / 8
	return make([]uint64, words) // want "make sized by wire-read length \"n\" without a dominating bound check"
}

// DecodeCap taints the capacity argument rather than the length.
func DecodeCap(data []byte) []byte {
	n := int(binary.BigEndian.Uint32(data))
	return make([]byte, 0, n) // want "make sized by wire-read length \"n\""
}

// CopyLocal sizes from local state, not the wire: clean.
func CopyLocal(data []byte) []byte {
	out := make([]byte, len(data))
	copy(out, data)
	return out
}
