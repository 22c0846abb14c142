package fingerprint

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Wire format of a Table (all integers big endian):
//
//	u32 F | u32 K | u32 nEntries
//	per entry: 20-byte FP | u32 freq | u16 nRanks | nRanks × u32 rank
//
// Entries travel in strictly ascending fingerprint order, rank lists
// strictly ascending — the table's own layout, so both directions are
// straight copies and the decoder rejects anything else. Designation
// loads are rebuilt on decode, so they are not transmitted.

// MarshalBinary encodes the table for transmission between ranks.
func (t *Table) MarshalBinary() ([]byte, error) {
	size := 12 + (Size+6)*len(t.rows)
	for i := range t.rows {
		if len(t.rows[i].Ranks) > 0xFFFF {
			return nil, fmt.Errorf("fingerprint: %d designated ranks exceed wire limit", len(t.rows[i].Ranks))
		}
		size += 4 * len(t.rows[i].Ranks)
	}
	buf := make([]byte, 0, size)
	buf = binary.BigEndian.AppendUint32(buf, uint32(t.F))
	buf = binary.BigEndian.AppendUint32(buf, uint32(t.K))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(t.rows)))
	for i := range t.rows {
		e := &t.rows[i]
		buf = append(buf, e.FP[:]...)
		buf = binary.BigEndian.AppendUint32(buf, e.Freq)
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(e.Ranks)))
		for _, r := range e.Ranks {
			buf = binary.BigEndian.AppendUint32(buf, uint32(r))
		}
	}
	return buf, nil
}

// UnmarshalBinary decodes a table encoded by MarshalBinary, replacing
// whatever t held.
func (t *Table) UnmarshalBinary(data []byte) error {
	if len(data) < 12 {
		return fmt.Errorf("fingerprint: table header truncated (%d bytes)", len(data))
	}
	f := int(int32(binary.BigEndian.Uint32(data)))
	k := int(binary.BigEndian.Uint32(data[4:]))
	n := int(binary.BigEndian.Uint32(data[8:]))
	data = data[12:]
	// The count prefix is peer-controlled: every entry occupies at least
	// Size+6 bytes, so a count the payload cannot hold is corrupt or
	// hostile and must be rejected before it sizes an allocation; what the
	// entries leave of the payload is all the rank ids it can carry.
	if n > len(data)/(Size+6) {
		return fmt.Errorf("fingerprint: table claims %d entries in %d bytes", n, len(data))
	}
	*t = Table{F: f, K: k, rows: make([]Entry, n), ranks: make([]int32, 0, (len(data)-n*(Size+6))/4)}
	for i := range t.rows {
		e := &t.rows[i]
		if len(data) < Size+6 || len(data) < Size+6+4*int(binary.BigEndian.Uint16(data[Size+4:])) {
			return fmt.Errorf("fingerprint: entry %d truncated", i)
		}
		copy(e.FP[:], data)
		e.Freq = binary.BigEndian.Uint32(data[Size:])
		if i > 0 && compare(&e.FP, &t.rows[i-1].FP) <= 0 {
			return fmt.Errorf("fingerprint: entry %d (%s) duplicate or out of order", i, e.FP.Short())
		}
		start, end := len(t.ranks), len(t.ranks)+int(binary.BigEndian.Uint16(data[Size+4:]))
		for data = data[Size+6:]; len(t.ranks) < end; data = data[4:] {
			r := int32(binary.BigEndian.Uint32(data))
			if r < 0 || r >= maxRanks || (len(t.ranks) > start && r <= t.ranks[len(t.ranks)-1]) {
				return fmt.Errorf("fingerprint: entry %d rank %d negative, above %d, duplicate or out of order", i, r, maxRanks-1)
			}
			t.ranks = append(t.ranks, r)
			t.designate(r)
		}
		e.Ranks = t.ranks[start:end:end]
	}
	if len(data) != 0 {
		return fmt.Errorf("fingerprint: %d trailing bytes after table", len(data))
	}
	t.reindex()
	return nil
}

// MergeWire is Merge over encoded tables — decode both, fold other into
// acc, encode the result: the byte-oriented allreduce's merge callback.
func MergeWire(acc, other []byte) ([]byte, error) {
	var a, b Table
	if err := errors.Join(a.UnmarshalBinary(acc), b.UnmarshalBinary(other)); err != nil {
		return nil, err
	}
	a.Merge(&b)
	return a.MarshalBinary()
}
