package chunk

import "fmt"

// Algo names a chunking algorithm. The zero value is fixed-size chunking,
// the paper's page-matched default, so the zero Spec keeps the historical
// behavior of Options that never mention a chunker.
type Algo uint8

const (
	// AlgoFixed is fixed-size chunking (the paper's memory-page model).
	AlgoFixed Algo = iota
	// AlgoRabin is the rolling Rabin-style content-defined chunker — the
	// related-work alternative, shift-resistant but slower per byte.
	AlgoRabin
	// AlgoGear is the gear-hash content-defined chunker: one table lookup
	// and one shift-add per byte in an unrolled scan (see
	// internal/chunk/gear). Shift-resistant like AlgoRabin and several
	// times faster per core.
	AlgoGear

	// numAlgos bounds the registry; new algorithms extend it.
	numAlgos
)

// String returns the canonical CLI spelling: the same names the
// `-chunker fixed|cdc|gear` flags accept.
func (a Algo) String() string {
	switch a {
	case AlgoFixed:
		return "fixed"
	case AlgoRabin:
		return "cdc"
	case AlgoGear:
		return "gear"
	default:
		return fmt.Sprintf("Algo(%d)", uint8(a))
	}
}

// ParseAlgo parses a CLI chunker name. "rabin" is accepted as a synonym
// of "cdc" (they name the same algorithm).
func ParseAlgo(s string) (Algo, error) {
	switch s {
	case "fixed", "":
		return AlgoFixed, nil
	case "cdc", "rabin":
		return AlgoRabin, nil
	case "gear":
		return AlgoGear, nil
	default:
		return 0, fmt.Errorf("chunk: unknown chunker %q (want fixed, cdc or gear)", s)
	}
}

// Spec selects a chunking algorithm and its size parameter. The zero
// value means fixed-size chunking at DefaultSize (4 KiB), so existing
// call sites that never set a chunker keep their exact behavior.
//
// Size is the fixed chunk size for AlgoFixed and the expected (average)
// chunk size for the content-defined algorithms; 0 selects DefaultSize.
// All ranks of a collective dump must agree on the Spec — boundaries are
// collective decision state.
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

// minCDCSize is the smallest expected chunk size the content-defined
// algorithms accept: below it the min bound (size/4, clamped to the
// rolling window) collides with the max bound and the cut discipline
// degenerates.
const minCDCSize = 64

// Validate checks the spec's per-algorithm constraints after defaulting.
func (s Spec) Validate() error {
	s = s.normalized()
	switch s.Algo {
	case AlgoFixed:
		// Any positive size chunks correctly.
	case AlgoRabin, AlgoGear:
		if s.Size < minCDCSize {
			return fmt.Errorf("chunk: %s chunker needs Size >= %d, got %d", s.Algo, minCDCSize, s.Size)
		}
	default:
		return fmt.Errorf("chunk: unknown chunker algo %d", uint8(s.Algo))
	}
	if registry[s.Algo] == nil {
		return fmt.Errorf("chunk: chunker %s is not registered (missing import of its package?)", s.Algo)
	}
	return nil
}

// registry maps each algorithm to its constructor. Fixed and Rabin live
// in this package and register below; out-of-package algorithms (gear)
// register themselves from their own init, so callers that can name them
// via a Spec have necessarily linked their implementation in.
var registry [numAlgos]func(size int) CutChunker

// Register installs the constructor for an algorithm. It is called from
// package init functions only and panics on duplicates — a duplicate is
// a programming error, not a runtime condition.
func Register(a Algo, ctor func(size int) CutChunker) {
	if a >= numAlgos {
		panic(fmt.Sprintf("chunk: Register(%d) out of range", uint8(a)))
	}
	if registry[a] != nil {
		panic(fmt.Sprintf("chunk: duplicate Register(%s)", a))
	}
	registry[a] = ctor
}

// New builds the chunker a spec describes. Every registered chunker
// separates its boundary scan from hashing (CutChunker), so callers can
// attribute the two phases independently.
func New(s Spec) (CutChunker, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	s = s.normalized()
	return registry[s.Algo](s.Size), nil
}

func init() {
	Register(AlgoFixed, func(size int) CutChunker { return NewFixed(size) })
	Register(AlgoRabin, func(size int) CutChunker { return NewContentDefined(size) })
}
