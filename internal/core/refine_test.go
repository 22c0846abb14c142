package core

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"dedupcr/internal/chunk"
	"dedupcr/internal/fingerprint"
)

// buildRefineCase constructs a random designated-chunk scenario and runs
// refineTargets for every designated rank, returning the global target
// assignment (rank -> partner indices).
func buildRefineCase(rng *rand.Rand) (n, k int, e *fingerprint.Entry, shuffle []int, byRank map[int][]int) {
	n = rng.Intn(16) + 3
	k = rng.Intn(n-1) + 2 // 2..n
	d := rng.Intn(k) + 1  // 1..k designated
	if d > n {
		d = n
	}
	// Pick d distinct designated ranks.
	perm := rng.Perm(n)
	ranks := make([]int32, d)
	for i := 0; i < d; i++ {
		ranks[i] = int32(perm[i])
	}
	// Sort ascending (the Entry invariant).
	for i := 1; i < len(ranks); i++ {
		for j := i; j > 0 && ranks[j] < ranks[j-1]; j-- {
			ranks[j], ranks[j-1] = ranks[j-1], ranks[j]
		}
	}
	e = &fingerprint.Entry{FP: fingerprint.Of([]byte{byte(n), byte(k)}), Freq: uint32(d), Ranks: ranks}
	shuffle = rng.Perm(n)

	byRank = make(map[int][]int)
	for _, r := range e.Ranks {
		idx := e.RankIndex(r)
		share := roundRobinShare(k, d, idx)
		items := []item{{
			ch:       chunk.Chunk{FP: e.FP},
			partners: prefixes(k)[share],
			entry:    e,
		}}
		refineTargets(items, shuffle, k, int(r))
		byRank[int(r)] = items[0].partners
	}
	return n, k, e, shuffle, byRank
}

// TestRefineTargetsInvariants checks, over random scenarios, that the
// deterministic per-rank walks agree: the total number of copies equals
// K-D, no two copies target the same node, and targets avoid natural
// holders whenever avoidance succeeded.
func TestRefineTargetsInvariants(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, k, e, shuffle, byRank := buildRefineCase(rng)

		pos := make([]int, n)
		for p, r := range shuffle {
			pos[r] = p
		}
		partnerOf := func(rank, di int) int { return shuffle[(pos[rank]+di)%n] }

		total := 0
		targets := make(map[int]int)
		holders := make(map[int]bool)
		for _, r := range e.Ranks {
			holders[int(r)] = true
		}
		for r, ds := range byRank {
			seen := map[int]bool{}
			for _, di := range ds {
				if di < 1 || di >= k {
					t.Logf("rank %d uses invalid partner index %d", r, di)
					return false
				}
				if seen[di] {
					t.Logf("rank %d sends the chunk twice to partner %d", r, di)
					return false
				}
				seen[di] = true
				targets[partnerOf(r, di)]++
				total++
			}
		}
		missing := k - len(e.Ranks)
		if total != missing {
			t.Logf("n=%d k=%d d=%d: %d copies sent, want %d", n, k, len(e.Ranks), total, missing)
			return false
		}
		// When the distinct-node count can be met (enough non-holder
		// nodes exist), no target may be a holder or doubly targeted.
		if n >= k {
			for tr, cnt := range targets {
				if cnt > 1 {
					t.Logf("n=%d k=%d d=%d: node %d targeted %d times (shuffle %v, byRank %v)",
						n, k, len(e.Ranks), tr, cnt, shuffle, byRank)
					return false
				}
				if holders[tr] {
					// Permissible only via the fallback; verify the
					// fallback was genuinely forced: some sender had all
					// partners as holders/targets. Rather than re-derive
					// the walk, require overall coverage to still reach
					// K distinct nodes when enough partners exist.
					distinct := len(holders)
					for tr2 := range targets {
						if !holders[tr2] {
							distinct++
						}
					}
					if distinct >= k {
						continue
					}
					t.Logf("n=%d k=%d d=%d: holder %d targeted and coverage < K", n, k, len(e.Ranks), tr)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// TestRefineTargetsLeavesSharedPrefixesAlone: classify hands every item
// that sends to its first p partners the same row of prefixes, so
// refineTargets may replace an item's partner set but never write through
// it — over random scenarios, with every item of a dump sharing the rows.
func TestRefineTargetsLeavesSharedPrefixesAlone(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for round := 0; round < 200; round++ {
		n := rng.Intn(14) + 3
		k := rng.Intn(n-1) + 2
		shared := prefixes(k)
		var items []item
		me := rng.Intn(n)
		for i := 0; i < 20; i++ {
			// A designated list of d < k ranks that includes me.
			d := rng.Intn(k-1) + 1
			ranks := []int32{int32(me)}
			for _, r := range rng.Perm(n) {
				if len(ranks) < d && r != me {
					ranks = append(ranks, int32(r))
				}
			}
			slices.Sort(ranks)
			e := &fingerprint.Entry{FP: fingerprint.Of([]byte{byte(round), byte(i)}), Freq: uint32(len(ranks)), Ranks: ranks}
			p := roundRobinShare(k, len(ranks), e.RankIndex(int32(me)))
			items = append(items, item{ch: chunk.Chunk{FP: e.FP}, partners: shared[p], entry: e})
		}
		refineTargets(items, rng.Perm(n), k, me)
		for p, row := range prefixes(k) {
			if !slices.Equal(shared[p], row) {
				t.Fatalf("round %d (n=%d k=%d): shared prefix %d is now %v", round, n, k, p, shared[p])
			}
		}
		if full := shared[k-1][:k-1]; !slices.Equal(full, prefixes(k)[k-1]) {
			t.Fatalf("round %d: backing array of the shared prefixes is now %v", round, full)
		}
	}
}
