package core

import (
	"encoding/binary"
	"fmt"
	"sort"

	"dedupcr/internal/chunk"
	"dedupcr/internal/fingerprint"
)

// RestoreMeta is everything a rank needs to rebuild its dataset after a
// restart: the recipe (ordered fingerprints) and, for chunks that were
// discarded because other ranks were designated to store them, location
// hints naming those designated ranks. It is persisted locally and
// replicated to the rank's K-1 partners of the dump — the ranks holding
// the replicas of its data — so it survives any K-1 node losses. The
// partners also read the rank's window records by it: a record names its
// chunk's recipe position, whose size and fingerprint they read in place
// (metaRecipe, chunk.RecipeEntry).
type RestoreMeta struct {
	// Rank is the dataset owner.
	Rank int32
	// K is the replication factor the dataset was dumped with.
	K int32
	// Recipe reassembles the dataset.
	Recipe chunk.Recipe
	// Hints maps fingerprints this rank did NOT store locally to the
	// ranks designated to store them.
	Hints map[fingerprint.FP][]int32
}

// metaName is the blob name RestoreMeta is persisted under: one per
// dataset per owning rank, so a node can hold its own metadata plus the
// replicas of its senders'.
func metaName(dataset string, rank int) string {
	return fmt.Sprintf("%s/meta-rank%06d", dataset, rank)
}

// metaRecipe returns the recipe encoded inside a RestoreMeta blob, in
// place, past its u32 rank | u32 K header.
func metaRecipe(blob []byte) []byte { return blob[min(8, len(blob)):] }

// MarshalBinary encodes the metadata blob (big endian):
//
//	u32 rank | u32 K | recipe | u32 nHints | nHints × (FP | u16 n | ranks)
func (m *RestoreMeta) MarshalBinary() ([]byte, error) {
	buf := make([]byte, 0, 12+m.Recipe.Len()*(fingerprint.Size+4)+4+len(m.Hints)*(fingerprint.Size+2+8))
	buf = binary.BigEndian.AppendUint32(buf, uint32(m.Rank))
	buf = binary.BigEndian.AppendUint32(buf, uint32(m.K))
	buf, err := m.Recipe.AppendBinary(buf)
	if err != nil {
		return nil, err
	}
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(m.Hints)))
	// Deterministic hint order keeps the encoding reproducible.
	fps := make([]fingerprint.FP, 0, len(m.Hints))
	for fp := range m.Hints {
		fps = append(fps, fp)
	}
	sort.Slice(fps, func(i, j int) bool { return fps[i].Less(fps[j]) })
	for _, fp := range fps {
		ranks := m.Hints[fp]
		buf = append(buf, fp[:]...)
		if len(ranks) > 0xFFFF {
			return nil, fmt.Errorf("core: hint for %s has %d ranks", fp.Short(), len(ranks))
		}
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(ranks)))
		for _, r := range ranks {
			buf = binary.BigEndian.AppendUint32(buf, uint32(r))
		}
	}
	return buf, nil
}

// UnmarshalBinary decodes a blob written by MarshalBinary.
func (m *RestoreMeta) UnmarshalBinary(data []byte) error {
	if len(data) < 8 {
		return fmt.Errorf("core: restore meta truncated (%d bytes)", len(data))
	}
	m.Rank = int32(binary.BigEndian.Uint32(data))
	m.K = int32(binary.BigEndian.Uint32(data[4:]))
	rec, rest, err := chunk.DecodeRecipe(data[8:])
	if err != nil {
		return err
	}
	m.Recipe = rec
	if len(rest) < 4 {
		return fmt.Errorf("core: restore meta hint header truncated")
	}
	n := int(binary.BigEndian.Uint32(rest))
	rest = rest[4:]
	// Hint counts ride peer-replicated blobs: every hint occupies at
	// least Size+2 bytes, so reject counts the payload cannot hold before
	// they size the map allocation.
	if n > len(rest)/(fingerprint.Size+2) {
		return fmt.Errorf("core: restore meta claims %d hints in %d bytes", n, len(rest))
	}
	m.Hints = make(map[fingerprint.FP][]int32, n)
	for i := 0; i < n; i++ {
		if len(rest) < fingerprint.Size+2 {
			return fmt.Errorf("core: hint %d truncated", i)
		}
		fp := fingerprint.FP(rest)
		nr := int(binary.BigEndian.Uint16(rest[fingerprint.Size:]))
		rest = rest[fingerprint.Size+2:]
		if len(rest) < 4*nr {
			return fmt.Errorf("core: hint %d rank list truncated", i)
		}
		ranks := make([]int32, nr)
		for j := range ranks {
			ranks[j] = int32(binary.BigEndian.Uint32(rest[4*j:]))
		}
		rest = rest[4*nr:]
		m.Hints[fp] = ranks
	}
	if len(rest) != 0 {
		return fmt.Errorf("core: %d trailing bytes after restore meta", len(rest))
	}
	return nil
}
