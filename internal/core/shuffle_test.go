package core

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"dedupcr/internal/metrics"
)

// fig2SendLoad builds the SendLoad matrix of the paper's Figure 2: six
// ranks, K=3, the first two send 100 chunks to each partner, the rest 10.
func fig2SendLoad() [][]int64 {
	loads := []int64{100, 100, 10, 10, 10, 10}
	m := make([][]int64, len(loads))
	for r, l := range loads {
		m[r] = []int64{0, l, l}
	}
	return m
}

func totalsOf(sendLoad [][]int64, k int) []int64 {
	out := make([]int64, len(sendLoad))
	for r, row := range sendLoad {
		for d := 1; d < k; d++ {
			out[r] += row[d]
		}
	}
	return out
}

// TestFigure2Example reproduces the worked example of Figure 2: naive
// partner selection yields a maximal receive size of 200 chunks, the
// load-aware shuffle lowers it to 110.
func TestFigure2Example(t *testing.T) {
	const k = 3
	sendLoad := fig2SendLoad()

	naive, err := NewPlan(IdentityShuffle(6), sendLoad, k)
	if err != nil {
		t.Fatal(err)
	}
	if got := metrics.Max(naive.RecvBytesByRank()); got != 200 {
		t.Errorf("naive max receive = %d, paper says 200", got)
	}

	shuffled, err := NewPlan(RankShuffle(totalsOf(sendLoad, k), k), sendLoad, k)
	if err != nil {
		t.Fatal(err)
	}
	if got := metrics.Max(shuffled.RecvBytesByRank()); got != 110 {
		t.Errorf("shuffled max receive = %d, paper says 110", got)
	}
}

func TestRankShuffleIsPermutation(t *testing.T) {
	check := func(seed int64, kRaw, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%40) + 1
		k := int(kRaw)%n + 1
		totals := make([]int64, n)
		for i := range totals {
			totals[i] = int64(rng.Intn(1000))
		}
		s := RankShuffle(totals, k)
		if len(s) != n {
			return false
		}
		seen := make([]bool, n)
		for _, r := range s {
			if r < 0 || r >= n || seen[r] {
				return false
			}
			seen[r] = true
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRankShuffleInterleavesHeavyAndLight(t *testing.T) {
	// With loads 100,100,...,1,1,... and K=2 the heavy ranks must occupy
	// alternating positions.
	totals := []int64{100, 100, 100, 1, 1, 1}
	s := RankShuffle(totals, 2)
	for i := 0; i < len(s); i += 2 {
		if totals[s[i]] != 100 {
			t.Errorf("position %d holds light rank %d; want heavy", i, s[i])
		}
	}
	for i := 1; i < len(s); i += 2 {
		if totals[s[i]] != 1 {
			t.Errorf("position %d holds heavy rank %d; want light", i, s[i])
		}
	}
}

// TestStripedBeatsHeadTailOnTopHeavyLoads pins down why the default
// shuffle deviates from Algorithm 2's emission order: with many heavy and
// few light senders, head/tail emission bunches heavies at the end of the
// permutation while tier striping keeps every receiver's window mixed.
func TestStripedBeatsHeadTailOnTopHeavyLoads(t *testing.T) {
	const n, k = 24, 4
	totals := make([]int64, n)
	for i := range totals {
		totals[i] = 100 // heavy majority
	}
	for i := 0; i < n/6; i++ {
		totals[i] = 1 // few lights
	}
	sendLoad := make([][]int64, n)
	for r := range sendLoad {
		sendLoad[r] = make([]int64, k)
		for d := 1; d < k; d++ {
			sendLoad[r][d] = totals[r]
		}
	}
	maxOf := func(shuffle []int) int64 {
		plan, err := NewPlan(shuffle, sendLoad, k)
		if err != nil {
			t.Fatal(err)
		}
		return metrics.Max(plan.RecvBytesByRank())
	}
	striped := maxOf(RankShuffle(totals, k))
	headTail := maxOf(RankShuffleHeadTail(totals, k))
	if striped > headTail {
		t.Fatalf("striped shuffle (%d) worse than head/tail (%d) on top-heavy loads", striped, headTail)
	}
	// Head/tail must exhibit the bunching pathology here (all-heavy
	// windows), otherwise this test guards nothing.
	if headTail != 3*100 {
		t.Logf("note: head/tail max = %d (expected a 3-heavy window of 300)", headTail)
	}
}

func TestHeadTailMatchesFigure2(t *testing.T) {
	// The literal Algorithm 2 variant must also reproduce the paper's
	// worked example.
	sendLoad := fig2SendLoad()
	plan, err := NewPlan(RankShuffleHeadTail(totalsOf(sendLoad, 3), 3), sendLoad, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got := metrics.Max(plan.RecvBytesByRank()); got != 110 {
		t.Errorf("head/tail shuffled max receive = %d, paper says 110", got)
	}
}

func TestRankShuffleDeterministicUnderTies(t *testing.T) {
	totals := []int64{5, 5, 5, 5, 5}
	a := RankShuffle(totals, 3)
	b := RankShuffle(totals, 3)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("shuffle not deterministic under ties")
		}
	}
}

// TestPlanWindowsTileExactly is the key invariant behind single-sided
// planning: for every receiver, the sender regions (offset, load) are
// disjoint and cover the window exactly.
func TestPlanWindowsTileExactly(t *testing.T) {
	check := func(seed int64, kRaw, nRaw uint8, shuffleOn bool) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%20) + 1
		k := int(kRaw)%n + 1
		sendLoad := make([][]int64, n)
		for r := range sendLoad {
			sendLoad[r] = make([]int64, k)
			for d := 1; d < k; d++ {
				sendLoad[r][d] = int64(rng.Intn(500))
			}
		}
		var shuffle []int
		if shuffleOn {
			shuffle = RankShuffle(totalsOf(sendLoad, k), k)
		} else {
			shuffle = IdentityShuffle(n)
		}
		plan, err := NewPlan(shuffle, sendLoad, k)
		if err != nil {
			return false
		}
		// Collect every region each sender writes into each receiver.
		type region struct{ start, end int64 }
		regions := make(map[int][]region)
		for r := 0; r < n; r++ {
			offs := plan.Offsets(r)
			for d := 1; d < k; d++ {
				target := plan.Partner(r, d)
				load := sendLoad[r][d]
				if load == 0 {
					continue // empty regions occupy no window space
				}
				regions[target] = append(regions[target], region{offs[d], offs[d] + load})
			}
		}
		for recv := 0; recv < n; recv++ {
			rs := regions[recv]
			sort.Slice(rs, func(i, j int) bool { return rs[i].start < rs[j].start })
			var cursor int64
			for _, reg := range rs {
				if reg.start != cursor {
					return false // gap or overlap
				}
				cursor = reg.end
			}
			if cursor != plan.WindowSize(recv) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPlanPartnersAreDistinct(t *testing.T) {
	check := func(kRaw, nRaw uint8) bool {
		n := int(nRaw%20) + 1
		k := int(kRaw)%n + 1
		sendLoad := make([][]int64, n)
		for r := range sendLoad {
			sendLoad[r] = make([]int64, k)
		}
		plan, err := NewPlan(IdentityShuffle(n), sendLoad, k)
		if err != nil {
			return false
		}
		for r := 0; r < n; r++ {
			seen := map[int]bool{r: true}
			for _, p := range plan.Partners(r) {
				if seen[p] {
					return false
				}
				seen[p] = true
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestNewPlanRejectsBadInput(t *testing.T) {
	good := [][]int64{{0, 1}, {0, 2}}
	if _, err := NewPlan([]int{0, 0}, good, 2); err == nil {
		t.Error("accepted non-permutation shuffle")
	}
	if _, err := NewPlan([]int{0, 1}, good, 3); err == nil {
		t.Error("accepted K > N")
	}
	if _, err := NewPlan([]int{0, 1}, good, 0); err == nil {
		t.Error("accepted K = 0")
	}
	if _, err := NewPlan([]int{0, 1}, [][]int64{{0, 1}}, 2); err == nil {
		t.Error("accepted short SendLoad")
	}
	if _, err := NewPlan([]int{0, 1}, [][]int64{{0}, {0, 1}}, 2); err == nil {
		t.Error("accepted ragged SendLoad row")
	}
}

func TestRoundRobinShare(t *testing.T) {
	for k := 1; k <= 8; k++ {
		for d := 1; d <= k; d++ {
			var sum, maxShare, minShare int
			minShare = 1 << 30
			for idx := 0; idx < d; idx++ {
				s := roundRobinShare(k, d, idx)
				sum += s
				if s > maxShare {
					maxShare = s
				}
				if s < minShare {
					minShare = s
				}
			}
			if sum != k-d {
				t.Errorf("K=%d D=%d: shares sum to %d, want %d", k, d, sum, k-d)
			}
			if maxShare-minShare > 1 {
				t.Errorf("K=%d D=%d: shares spread %d..%d, want near-even", k, d, minShare, maxShare)
			}
		}
	}
}

// Partners returns all K-1 partner ranks of r in order.
func (p *Plan) Partners(r int) []int {
	out := make([]int, 0, p.K-1)
	for d := 1; d < p.K; d++ {
		out = append(out, p.Partner(r, d))
	}
	return out
}
