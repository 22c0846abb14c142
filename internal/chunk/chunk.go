// Package chunk splits datasets into chunks and builds the recipes
// (ordered fingerprint manifests) that let a deduplicated dataset be
// reassembled byte-exactly.
//
// The paper matches chunks with memory pages, so the default chunker is
// fixed-size with a 4 KiB chunk (the system page size). The gear-hash
// content-defined chunker (internal/chunk/gear) is the shift-resistant
// alternative for the chunking ablation and arbitrary file data; Spec and
// New select between the two.
package chunk

import (
	"fmt"

	"dedupcr/internal/fingerprint"
)

// DefaultSize is the default chunk size: one memory page.
const DefaultSize = 4096

// Chunk is one piece of a dataset: its content, its fingerprint and its
// integrity sum (fingerprint.ChunkSum), which travels with it to every
// replica and store.
type Chunk struct {
	FP   fingerprint.FP
	Sum  uint32
	Data []byte
}

// CutChunker is a chunk boundary scan, separate from fingerprinting so
// instrumented callers can time the two phases independently (the
// paper's evaluation attributes them separately). FromCuts turns its
// cuts into chunks. Fixed and *gear.Chunker implement it.
type CutChunker interface {
	// Cuts returns the end offset of every chunk of buf, ascending, the
	// last one len(buf). An empty buf yields no cuts.
	Cuts(buf []byte) []int
}

// FromCuts fingerprints and sums the chunks delimited by the given end
// offsets (as returned by Cuts) into Chunk values aliasing buf.
func FromCuts(buf []byte, cuts []int) []Chunk {
	out := make([]Chunk, len(cuts))
	fill(out, buf, 0, cuts)
	return out
}

// fill fingerprints and sums the chunks of buf that start at prev and end
// at cuts into out[i]: the sum pass follows the SHA-1 pass over each chunk
// while its bytes are still in cache.
func fill(out []Chunk, buf []byte, prev int, cuts []int) {
	for i, end := range cuts {
		c := &out[i]
		c.FP, c.Data = fingerprint.Of(buf[prev:end]), buf[prev:end]
		c.Sum = fingerprint.ChunkSum(&c.FP, c.Data)
		prev = end
	}
}

// Fixed is a fixed-size chunker. A trailing partial chunk is kept as-is
// (shorter than Size), mirroring how a final partial page is dumped.
type Fixed struct {
	Size int
}

// NewFixed returns a fixed-size chunker; size <= 0 selects DefaultSize.
func NewFixed(size int) Fixed {
	if size <= 0 {
		size = DefaultSize
	}
	return Fixed{Size: size}
}

// Split cuts buf into consecutive chunks covering it entirely. The
// returned chunks alias buf; callers must not mutate buf while the
// chunks are in use.
func (c Fixed) Split(buf []byte) []Chunk {
	return FromCuts(buf, c.Cuts(buf))
}

// Cuts implements CutChunker.
func (c Fixed) Cuts(buf []byte) []int {
	size := c.Size
	if size <= 0 {
		size = DefaultSize
	}
	n := (len(buf) + size - 1) / size
	out := make([]int, 0, n)
	for off := 0; off < len(buf); off += size {
		end := off + size
		if end > len(buf) {
			end = len(buf)
		}
		out = append(out, end)
	}
	return out
}

// Recipe is the ordered list of fingerprints making up a dataset, plus the
// chunk sizes needed to reassemble buffers whose length is not a multiple
// of the chunk size. It is what a rank persists alongside its chunks so a
// restart can reconstruct the original buffer.
type Recipe struct {
	// FPs lists the fingerprint of every chunk in dataset order
	// (duplicates included: the recipe preserves positions).
	FPs []fingerprint.FP
	// Sizes holds the byte length of each chunk, parallel to FPs.
	Sizes []int32
}

// BuildRecipe creates the recipe for a chunked dataset.
func BuildRecipe(chunks []Chunk) Recipe {
	r := Recipe{
		FPs:   make([]fingerprint.FP, len(chunks)),
		Sizes: make([]int32, len(chunks)),
	}
	for i, c := range chunks {
		r.FPs[i] = c.FP
		r.Sizes[i] = int32(len(c.Data))
	}
	return r
}

// TotalBytes returns the byte length of the dataset the recipe describes.
func (r Recipe) TotalBytes() int64 {
	var n int64
	for _, s := range r.Sizes {
		n += int64(s)
	}
	return n
}

// Len returns the number of chunks in the recipe.
func (r Recipe) Len() int { return len(r.FPs) }

// Unique returns the deduplicated fingerprints of the recipe, in first-
// occurrence order, i.e. the result of the paper's local deduplication
// phase.
func (r Recipe) Unique() []fingerprint.FP {
	seen := make(map[fingerprint.FP]struct{}, len(r.FPs))
	out := make([]fingerprint.FP, 0, len(r.FPs))
	for _, fp := range r.FPs {
		if _, ok := seen[fp]; ok {
			continue
		}
		seen[fp] = struct{}{}
		out = append(out, fp)
	}
	return out
}

// Assemble reconstructs the dataset from a lookup function resolving each
// fingerprint to its content. It verifies lengths and fingerprints.
func (r Recipe) Assemble(lookup func(fingerprint.FP) ([]byte, error)) ([]byte, error) {
	buf := make([]byte, 0, r.TotalBytes())
	for i, fp := range r.FPs {
		data, err := lookup(fp)
		if err != nil {
			return nil, fmt.Errorf("chunk %d (%s): %w", i, fp.Short(), err)
		}
		if int32(len(data)) != r.Sizes[i] {
			return nil, fmt.Errorf("chunk %d (%s): got %d bytes, recipe says %d",
				i, fp.Short(), len(data), r.Sizes[i])
		}
		if fingerprint.Of(data) != fp {
			return nil, fmt.Errorf("chunk %d: content does not match fingerprint %s", i, fp.Short())
		}
		buf = append(buf, data...)
	}
	return buf, nil
}
