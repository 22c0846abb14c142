package chunk

import (
	"fmt"

	"dedupcr/internal/chunk/gear"
)

// Algo names a chunking algorithm. The zero value is fixed-size chunking,
// the paper's page-matched default, so the zero Spec keeps the historical
// behavior of Options that never mention a chunker.
type Algo uint8

const (
	// AlgoFixed is fixed-size chunking (the paper's memory-page model).
	AlgoFixed Algo = 0
	// AlgoGear is the gear-hash content-defined chunker: one table lookup
	// and one shift-add per byte in an unrolled scan (see
	// internal/chunk/gear). It keeps the value 2 it had beside the
	// deleted Rabin chunker, so a stale Algo(1) fails Validate instead of
	// silently meaning gear.
	AlgoGear Algo = 2
)

// String returns the canonical CLI spelling: the same names the
// `-chunker fixed|gear` flags accept.
func (a Algo) String() string {
	switch a {
	case AlgoFixed:
		return "fixed"
	case AlgoGear:
		return "gear"
	default:
		return fmt.Sprintf("Algo(%d)", uint8(a))
	}
}

// ParseAlgo parses a CLI chunker name.
func ParseAlgo(s string) (Algo, error) {
	switch s {
	case "fixed", "":
		return AlgoFixed, nil
	case "gear":
		return AlgoGear, nil
	default:
		return 0, fmt.Errorf("chunk: unknown chunker %q (want fixed or gear)", s)
	}
}

// Spec selects a chunking algorithm and its size parameter. The zero
// value means fixed-size chunking at DefaultSize (4 KiB), so existing
// call sites that never set a chunker keep their exact behavior.
//
// Size is the fixed chunk size for AlgoFixed and the expected (average)
// chunk size for AlgoGear; 0 selects DefaultSize. All ranks of a
// collective dump must agree on the Spec — boundaries are collective
// decision state.
type Spec struct {
	Algo Algo
	Size int
}

// String renders the spec as "algo/size" for cache keys and logs.
func (s Spec) String() string {
	return fmt.Sprintf("%s/%d", s.Algo, s.normalized().Size)
}

// normalized resolves the spec's size default.
func (s Spec) normalized() Spec {
	if s.Size <= 0 {
		s.Size = DefaultSize
	}
	return s
}

// Validate checks the spec's per-algorithm constraints after defaulting.
// Below gear.Window bytes the gear chunker's min bound (size/4, clamped
// to the window) collides with its max bound and the cut discipline
// degenerates.
func (s Spec) Validate() error {
	s = s.normalized()
	switch s.Algo {
	case AlgoFixed:
		// Any positive size chunks correctly.
	case AlgoGear:
		if s.Size < gear.Window {
			return fmt.Errorf("chunk: %s chunker needs Size >= %d, got %d", s.Algo, gear.Window, s.Size)
		}
	default:
		return fmt.Errorf("chunk: unknown chunker algo %d", uint8(s.Algo))
	}
	return nil
}

// New builds the chunker a spec describes. Both chunkers separate their
// boundary scan from hashing (CutChunker), so callers can attribute the
// two phases independently.
func New(s Spec) (CutChunker, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	s = s.normalized()
	switch s.Algo {
	case AlgoGear:
		return gear.New(s.Size), nil
	default:
		return NewFixed(s.Size), nil
	}
}
