// Package core implements the paper's contribution: the DUMP_OUTPUT
// collective write primitive that co-optimizes interprocess deduplication
// and partner replication (coll-dedup), plus the two baselines it is
// evaluated against (no-dedup and local-dedup) and the restore path.
package core

import (
	"cmp"
	"fmt"
	"slices"
)

// RankShuffle computes the load-aware rank permutation of Algorithm 2's
// goal: interleave heavy senders with light ones so the per-node receive
// load evens out. Ranks are sorted by descending total send load, split
// into K load tiers, and laid out column-major, so every window of K
// consecutive shuffled positions — exactly the partner neighbourhood of
// one receiver — contains one rank of each tier. All ranks compute the
// same shuffle from the allgathered SendLoad matrix, so no extra
// agreement round is needed.
//
// totals[r] is rank r's total send load (bytes); the returned permutation
// maps shuffled position -> rank.
//
// This tier-striped interleave reproduces the paper's Figure 2 worked
// example (max receive 200 -> 110, see TestFigure2Example) and, unlike
// the literal head/tail emission of Algorithm 2 (kept as
// RankShuffleHeadTail), does not bunch leftover heavy ranks together when
// heavies outnumber lights — see DESIGN.md §5.
func RankShuffle(totals []int64, k int) []int {
	n := len(totals)
	idx := sortRanksByLoad(totals)
	if k < 2 {
		return idx
	}
	stride := (n + k - 1) / k
	shuffle := make([]int, 0, n)
	for r := 0; r < stride; r++ {
		for c := 0; c < k; c++ {
			if i := c*stride + r; i < n {
				shuffle = append(shuffle, idx[i])
			}
		}
	}
	return shuffle
}

// RankShuffleHeadTail is the literal emission order of the paper's
// Algorithm 2 (with the intended tail-cursor semantics; the printed
// pseudocode never advances it): one heaviest sender followed by up to
// K-1 lightest, repeated. It balances well when a few heavy ranks stand
// out but degrades when heavy ranks are the majority; RankShuffle is the
// default, this variant backs the ablation benchmark.
func RankShuffleHeadTail(totals []int64, k int) []int {
	n := len(totals)
	// Descending by load; ties by rank for determinism across ranks.
	idx := sortRanksByLoad(totals)
	shuffle := make([]int, 0, n)
	head, tail := 0, n-1
	for head <= tail {
		shuffle = append(shuffle, idx[head])
		head++
		for j := 1; j < k && head <= tail; j++ {
			shuffle = append(shuffle, idx[tail])
			tail--
		}
	}
	return shuffle
}

// SelectShuffle picks the rank permutation a dump uses, from normalized
// options: the load-aware tier interleave of Algorithm 2 when shuffling
// is on, identity otherwise. totals[r] is rank r's total send load in
// bytes.
func SelectShuffle(totals []int64, o Options) []int {
	if *o.Shuffle {
		return RankShuffle(totals, o.K)
	}
	return IdentityShuffle(len(totals))
}

// sortRanksByLoad returns rank ids ordered by descending load with rank
// id as the deterministic tie-breaker (shared helper for shuffles).
func sortRanksByLoad(totals []int64) []int {
	idx := IdentityShuffle(len(totals))
	slices.SortStableFunc(idx, func(a, b int) int { return cmp.Compare(totals[b], totals[a]) })
	return idx
}

// IdentityShuffle returns the identity permutation, used when load-aware
// partner selection is disabled (the paper's coll-no-shuffle setting and
// both baselines).
func IdentityShuffle(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	return s
}

// Plan is the fully determined communication schedule of one collective
// dump, derived from globally shared knowledge only (the shuffle and the
// SendLoad matrix), so every rank computes identical plans without any
// extra negotiation — the property that enables single-sided puts.
type Plan struct {
	// K is the replication factor; each rank has K-1 partners.
	K int
	// Shuffle maps shuffled position -> rank.
	Shuffle []int
	// Pos maps rank -> shuffled position (inverse of Shuffle).
	Pos []int
	// SendLoad[r][d] is the byte load rank r pushes to its d-th partner
	// (d=0 is rank r's local store load and takes no network transfer).
	SendLoad [][]int64
}

// NewPlan validates and assembles a plan. Every row of sendLoad must have
// exactly k entries.
func NewPlan(shuffle []int, sendLoad [][]int64, k int) (*Plan, error) {
	n := len(shuffle)
	if len(sendLoad) != n {
		return nil, fmt.Errorf("core: SendLoad has %d rows for %d ranks", len(sendLoad), n)
	}
	if k < 1 || k > n {
		return nil, fmt.Errorf("core: replication factor %d out of range [1,%d]", k, n)
	}
	pos := make([]int, n)
	seen := make([]bool, n)
	for p, r := range shuffle {
		if r < 0 || r >= n || seen[r] {
			return nil, fmt.Errorf("core: shuffle is not a permutation at position %d (rank %d)", p, r)
		}
		seen[r] = true
		pos[r] = p
	}
	for r, row := range sendLoad {
		if len(row) != k {
			return nil, fmt.Errorf("core: SendLoad row %d has %d entries, want %d", r, len(row), k)
		}
	}
	return &Plan{K: k, Shuffle: shuffle, Pos: pos, SendLoad: sendLoad}, nil
}

// Partner returns the rank of the d-th partner (1 <= d <= K-1) of rank r:
// the rank d positions after r in the shuffled order.
func (p *Plan) Partner(r, d int) int {
	n := len(p.Shuffle)
	return p.Shuffle[(p.Pos[r]+d)%n]
}

// Sender returns the rank whose d-th partner is r (1 <= d <= K-1): the
// rank d positions before r in the shuffled order. Its region is the d-th
// of r's window (see Offsets).
func (p *Plan) Sender(r, d int) int {
	n := len(p.Shuffle)
	return p.Shuffle[(p.Pos[r]-d+n)%n]
}

// Offsets implements Algorithm 3 generalized to any K: the byte offset of
// rank r's region inside the receive window of each of its partners.
//
// The window of the receiver at shuffled position q is laid out as the
// concatenation of the regions of its senders in distance order: first
// the sender one position behind (its partner-1 traffic), then two
// behind, and so on — so rank r, which is j positions behind partner j,
// starts after the regions of the j-1 ranks between them.
func (p *Plan) Offsets(r int) []int64 {
	n := len(p.Shuffle)
	out := make([]int64, p.K) // out[0] unused (local store)
	for j := 1; j < p.K; j++ {
		q := (p.Pos[r] + j) % n // partner position
		var off int64
		for m := 1; m < j; m++ {
			sender := p.Shuffle[(q-m+n)%n]
			off += p.SendLoad[sender][m]
		}
		out[j] = off
	}
	return out
}

// WindowSize returns the number of bytes rank r will receive: the sum of
// the loads its K-1 senders direct at it.
func (p *Plan) WindowSize(r int) int64 {
	var size int64
	for m := 1; m < p.K; m++ {
		size += p.SendLoad[p.Sender(r, m)][m]
	}
	return size
}

// RecvBytesByRank returns the expected receive size of every rank, the
// quantity Figures 4(c)/5(c) compare with and without shuffling.
func (p *Plan) RecvBytesByRank() []int64 {
	out := make([]int64, len(p.Shuffle))
	for r := range out {
		out[r] = p.WindowSize(r)
	}
	return out
}

// TotalSend returns rank r's total outgoing bytes.
func (p *Plan) TotalSend(r int) int64 {
	var s int64
	for d := 1; d < p.K; d++ {
		s += p.SendLoad[r][d]
	}
	return s
}
