package chunk

import (
	"encoding/binary"
	"fmt"

	"dedupcr/internal/fingerprint"
)

// Wire format of a Recipe (big endian):
//
//	u32 nChunks | nChunks × (20-byte FP | u32 size)

// MarshalBinary encodes the recipe for persistence or transmission.
func (r Recipe) MarshalBinary() ([]byte, error) {
	return r.AppendBinary(make([]byte, 0, 4+r.Len()*(fingerprint.Size+4)))
}

// AppendBinary appends the recipe's encoding to buf, so a recipe embedded
// in a larger blob is written once, in place.
func (r Recipe) AppendBinary(buf []byte) ([]byte, error) {
	buf = binary.BigEndian.AppendUint32(buf, uint32(r.Len()))
	if len(r.Sizes) != len(r.FPs) {
		return nil, fmt.Errorf("chunk: recipe has %d fingerprints but %d sizes", len(r.FPs), len(r.Sizes))
	}
	for i, fp := range r.FPs {
		buf = append(buf, fp[:]...)
		buf = binary.BigEndian.AppendUint32(buf, uint32(r.Sizes[i]))
	}
	return buf, nil
}

// RecipeCount returns how many entries of the recipe encoded at the front
// of enc can be read in place: as many as its header claims, or as enc
// holds, whichever is fewer; 0 without a header.
func RecipeCount(enc []byte) int {
	if len(enc) < 4 {
		return 0
	}
	return int(min(int64(binary.BigEndian.Uint32(enc)), int64(len(enc)-4)/(fingerprint.Size+4)))
}

// RecipeEntry returns position i of the recipe encoded at the front of
// enc, read in place: the fingerprint where it lies in enc, and the size
// as encoded (unsigned, so a corrupt size reads as large, never negative);
// i must be below RecipeCount(enc).
func RecipeEntry(enc []byte, i int) (*fingerprint.FP, uint32) {
	e := enc[4+i*(fingerprint.Size+4):]
	return (*fingerprint.FP)(e[:fingerprint.Size]), binary.BigEndian.Uint32(e[fingerprint.Size:])
}

// UnmarshalBinary decodes a recipe encoded by MarshalBinary. It also
// returns how many bytes it consumed, so recipes can be embedded in
// larger blobs.
func (r *Recipe) UnmarshalBinary(data []byte) error {
	_, err := r.decode(data)
	return err
}

// decode parses a recipe from the front of data, returning the remainder.
func (r *Recipe) decode(data []byte) ([]byte, error) {
	if len(data) < 4 {
		return nil, fmt.Errorf("chunk: recipe header truncated (%d bytes)", len(data))
	}
	n := int(binary.BigEndian.Uint32(data))
	data = data[4:]
	if need := n * (fingerprint.Size + 4); len(data) < need {
		return nil, fmt.Errorf("chunk: recipe body truncated: need %d bytes, have %d", need, len(data))
	}
	r.FPs = make([]fingerprint.FP, n)
	r.Sizes = make([]int32, n)
	for i := 0; i < n; i++ {
		copy(r.FPs[i][:], data[:fingerprint.Size])
		r.Sizes[i] = int32(binary.BigEndian.Uint32(data[fingerprint.Size:]))
		data = data[fingerprint.Size+4:]
	}
	return data, nil
}

// DecodeRecipe parses a recipe from the front of data, returning it and
// the unconsumed remainder.
func DecodeRecipe(data []byte) (Recipe, []byte, error) {
	var r Recipe
	rest, err := r.decode(data)
	return r, rest, err
}
