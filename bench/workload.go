package main

import (
	"fmt"
	"math/rand"

	"dedupcr"
)

// workload is one row of the benchmark's workload table. Names are fixed:
// later issues cite them.
type workload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	// N ranks dump with replication factor K.
	N int `json:"n"`
	K int `json:"k"`
	// Chunker is the algorithm name (fixed | gear) and Chunk its size; the
	// generator's page is Chunk bytes.
	Chunker string `json:"chunker"`
	Chunk   int    `json:"chunk"`
	// PerRank is len(buf) on every rank.
	PerRank int `json:"per_rank_bytes"`
	// Mix is the all/pair/zero/private split of every buffer, in percent.
	Mix [4]int `json:"mix_percent"`
	// F is Options.F; 0 keeps the library default.
	F int `json:"f"`
	// TCP selects the loopback socket transport, Seg the segment store.
	TCP bool `json:"tcp"`
	Seg bool `json:"seg"`
	// Parallelism is Options.Parallelism (0 = GOMAXPROCS).
	Parallelism int `json:"parallelism"`
	// Shuffle is Options.Shuffle, the load-aware partner selection. It is
	// on where the ranks' send loads differ by design (the page mix: the
	// even rank of a pair sends the pair's extra copy), and off where they
	// are equal but for hash noise: there the permutation flips with the
	// seed, and with it how many peers a restore asks before it finds a
	// chunk, which would make restore cost a property of the seed.
	Shuffle bool `json:"shuffle"`
	// W ranks lose their store between dump and restore.
	W int `json:"wiped"`
}

// The four workloads. Each exists so that some layer does most of the
// work on it and little on another; bench/README.md holds the full
// layer -> metric -> workload map.
var workloads = []workload{
	{
		Name: "page-inproc-mem",
		Why:  "paper's 4 KiB page model with transport and storage nearly free: chunk, fingerprint and core copies dominate; restore walks the recipe and pulls discarded natural replicas",
		N:    4, K: 3, Chunker: "fixed", Chunk: 4096, PerRank: 16 << 20,
		Mix: [4]int{40, 10, 10, 40}, Parallelism: 1, Shuffle: true, W: 0,
	},
	{
		Name: "page-tcp-seg",
		Why:  "same bytes over loopback sockets into the segment store: collectives framing/window puts and storage append/seal/commit dominate; restore refills one wiped node over fetch",
		N:    4, K: 3, Chunker: "fixed", Chunk: 4096, PerRank: 16 << 20,
		Mix: [4]int{40, 10, 10, 40}, TCP: true, Seg: true, Parallelism: 1, Shuffle: true, W: 1,
	},
	{
		Name: "meta-inproc-mem",
		Why:  "8192 chunks of 256 B per rank on 16 ranks with F below the shared set: fingerprint.Table build/merge/codec, the HMERGE allreduce and per-chunk bookkeeping dominate, payload is small",
		N:    16, K: 3, Chunker: "fixed", Chunk: 256, PerRank: 2 << 20,
		Mix: [4]int{40, 10, 10, 40}, F: 2048, Parallelism: 1, W: 2,
	},
	{
		Name: "gear-unique-par",
		Why:  "content-defined scan over unique data with Parallelism=0: nothing deduplicates, every chunk is put K-1 times and committed K times through the hash pool and concurrent partner puts",
		N:    4, K: 3, Chunker: "gear", Chunk: 4096, PerRank: 16 << 20,
		Mix: [4]int{0, 0, 0, 100}, Parallelism: 0, W: 1,
	},
}

// smokeSized shrinks a workload to the -smoke size: same shape, 1 MiB per
// rank.
func smokeSized(w workload) workload {
	w.PerRank = 1 << 20
	return w
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// logicalBytes is the sum over ranks of len(buf).
func (w workload) logicalBytes() int64 { return int64(w.N) * int64(w.PerRank) }

// options builds the dump options of the workload for one approach.
func (w workload) options(approach dedupcr.Approach) (dedupcr.Options, error) {
	algo, err := dedupcr.ParseChunker(w.Chunker)
	if err != nil {
		return dedupcr.Options{}, err
	}
	return dedupcr.Options{
		K:           w.K,
		Approach:    approach,
		F:           w.F,
		Chunker:     dedupcr.ChunkerSpec{Algo: algo, Size: w.Chunk},
		Parallelism: w.Parallelism,
		// The baselines keep the paper's naive partners.
		Shuffle: dedupcr.Bool(w.Shuffle && approach == dedupcr.CollDedup),
		Name:    "ckpt",
	}, nil
}

// regionPages splits a buffer's pages into the four regions. The first
// three take their percentage rounded down; private takes the rest, so
// the regions always tile the buffer.
func (w workload) regionPages() (all, pair, zero, private int) {
	pages := w.PerRank / w.Chunk
	all = pages * w.Mix[0] / 100
	pair = pages * w.Mix[1] / 100
	zero = pages * w.Mix[2] / 100
	private = pages - all - pair - zero
	return
}

// Region identifiers salt the generator's sub-seeds.
const (
	regionAll = iota + 1
	regionPair
	regionPrivate
)

// subSeed derives an independent math/rand seed from the run seed, a
// region and an index by chaining the splitmix64 finalizer, so regions
// never share a stream, neighbouring seeds share nothing, and every rank
// can be generated on its own.
func subSeed(seed int64, region, index int) int64 {
	mix := func(x uint64) uint64 {
		x += 0x9e3779b97f4a7c15
		x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
		x = (x ^ x>>27) * 0x94d049bb133111eb
		return x ^ x>>31
	}
	return int64(mix(mix(mix(uint64(seed))+uint64(region)) + uint64(index)))
}

// generate builds every rank's buffer from the seed. Each buffer is four
// page-aligned regions, in this order:
//
//	all      identical on every rank          (duplication degree N >= K: natural replicas)
//	pair     identical on ranks 2j and 2j+1   (degree 2 < K: K-2 extra copies)
//	zero     zero pages                       (local duplicates)
//	private  unique to the rank               (K-1 partner replicas)
func generate(w workload, seed int64) ([][]byte, error) {
	if w.Chunk <= 0 || w.PerRank%w.Chunk != 0 {
		return nil, fmt.Errorf("workload %s: per-rank size %d is not a multiple of the %d-byte page", w.Name, w.PerRank, w.Chunk)
	}
	all, pair, zero, private := w.regionPages()
	fill := func(dst []byte, region, index int) {
		// math/rand.Rand.Read never fails.
		rand.New(rand.NewSource(subSeed(seed, region, index))).Read(dst)
	}
	shared := make([]byte, all*w.Chunk)
	fill(shared, regionAll, 0)
	bufs := make([][]byte, w.N)
	for r := range bufs {
		buf := make([]byte, w.PerRank)
		off := copy(buf, shared)
		fill(buf[off:off+pair*w.Chunk], regionPair, r/2)
		off += (pair + zero) * w.Chunk // the zero region stays as allocated
		fill(buf[off:off+private*w.Chunk], regionPrivate, r)
		bufs[r] = buf
	}
	return bufs, nil
}
