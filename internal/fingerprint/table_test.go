package fingerprint

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// fpOf builds a deterministic fingerprint from an integer id.
func fpOf(id int) FP {
	return Of([]byte(fmt.Sprintf("chunk-%d", id)))
}

func TestLocalCollapsesDuplicates(t *testing.T) {
	fps := []FP{fpOf(1), fpOf(2), fpOf(1), fpOf(3), fpOf(2)}
	tbl := Local(fps, 7, 0, 3)
	if tbl.Len() != 3 {
		t.Fatalf("Len() = %d, want 3", tbl.Len())
	}
	for _, e := range tbl.Entries() {
		if e.Freq != 1 {
			t.Errorf("entry %s freq = %d, want 1", e.FP.Short(), e.Freq)
		}
		if len(e.Ranks) != 1 || e.Ranks[0] != 7 {
			t.Errorf("entry %s ranks = %v, want [7]", e.FP.Short(), e.Ranks)
		}
	}
	if err := tbl.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestLocalRespectsF(t *testing.T) {
	fps := make([]FP, 100)
	for i := range fps {
		fps[i] = fpOf(i)
	}
	tbl := Local(fps, 0, 10, 2)
	if tbl.Len() != 10 {
		t.Fatalf("Len() = %d, want 10 (F bound)", tbl.Len())
	}
	if err := tbl.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestMergeAddsFrequencies(t *testing.T) {
	a := Local([]FP{fpOf(1), fpOf(2)}, 0, 0, 3)
	b := Local([]FP{fpOf(1), fpOf(3)}, 1, 0, 3)
	a.Merge(b)
	if a.Len() != 3 {
		t.Fatalf("Len() = %d, want 3", a.Len())
	}
	e := a.Lookup(fpOf(1))
	if e == nil || e.Freq != 2 {
		t.Fatalf("shared fingerprint freq = %+v, want 2", e)
	}
	if len(e.Ranks) != 2 {
		t.Fatalf("shared fingerprint ranks = %v, want both", e.Ranks)
	}
	if e2 := a.Lookup(fpOf(3)); e2 == nil || e2.Freq != 1 || e2.Ranks[0] != 1 {
		t.Fatalf("fp3 entry = %+v", e2)
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestMergeTruncatesRanksAtK(t *testing.T) {
	k := 3
	acc := Local([]FP{fpOf(1)}, 0, 0, k)
	for r := int32(1); r < 6; r++ {
		acc.Merge(Local([]FP{fpOf(1)}, r, 0, k))
	}
	e := acc.Lookup(fpOf(1))
	if e == nil {
		t.Fatal("entry lost")
	}
	if e.Freq != 6 {
		t.Errorf("freq = %d, want 6", e.Freq)
	}
	if len(e.Ranks) != k {
		t.Errorf("designated ranks = %v, want %d of them", e.Ranks, k)
	}
	if err := acc.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestMergeLoadBalancesDesignation(t *testing.T) {
	// Rank 0 holds fingerprints 1..10; ranks 1..4 each hold only
	// fingerprint 1. With K=2, rank 0 is heavily loaded, so the second
	// designated slot of fingerprint 1 should go to a lightly loaded
	// rank, and rank 0 itself should be dropped from fingerprint 1 when
	// over-designated peers exist.
	k := 2
	var fps0 []FP
	for i := 1; i <= 10; i++ {
		fps0 = append(fps0, fpOf(i))
	}
	acc := Local(fps0, 0, 0, k)
	for r := int32(1); r <= 4; r++ {
		acc.Merge(Local([]FP{fpOf(1)}, r, 0, k))
	}
	e := acc.Lookup(fpOf(1))
	if e == nil || len(e.Ranks) != k {
		t.Fatalf("entry = %+v, want %d ranks", e, k)
	}
	for _, r := range e.Ranks {
		if r == 0 {
			t.Errorf("rank 0 (most loaded) still designated for fp1: %v", e.Ranks)
		}
	}
	if err := acc.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTrimKeepsMostFrequent(t *testing.T) {
	f := 2
	k := 2
	// fp1 on 3 ranks, fp2 on 2 ranks, fp3 on 1 rank; F=2 keeps fp1, fp2.
	acc := Local([]FP{fpOf(1), fpOf(2), fpOf(3)}, 0, f, k)
	acc.Merge(Local([]FP{fpOf(1), fpOf(2)}, 1, f, k))
	acc.Merge(Local([]FP{fpOf(1)}, 2, f, k))
	if acc.Len() != f {
		t.Fatalf("Len() = %d, want %d", acc.Len(), f)
	}
	if acc.Lookup(fpOf(1)) == nil {
		t.Error("most frequent fingerprint evicted")
	}
	if acc.Lookup(fpOf(2)) == nil {
		t.Error("second most frequent fingerprint evicted")
	}
	if acc.Lookup(fpOf(3)) != nil {
		t.Error("least frequent fingerprint retained")
	}
	if err := acc.Validate(); err != nil {
		t.Fatal(err)
	}
}

// reduceAll simulates the binomial reduction over nRanks tables.
func reduceAll(tables []*Table) *Table {
	n := len(tables)
	for mask := 1; mask < n; mask *= 2 {
		for r := 0; r+mask < n; r += 2 * mask {
			tables[r].Merge(tables[r+mask])
		}
	}
	return tables[0]
}

func TestReductionFrequencyExact(t *testing.T) {
	// With unbounded F, reduced frequencies must equal the number of
	// ranks holding each fingerprint.
	const nRanks = 16
	rng := rand.New(rand.NewSource(42))
	holders := make(map[FP]int)
	tables := make([]*Table, nRanks)
	for r := range tables {
		var fps []FP
		for id := 0; id < 30; id++ {
			if rng.Intn(2) == 0 {
				fp := fpOf(id)
				fps = append(fps, fp)
				holders[fp]++
			}
		}
		tables[r] = Local(fps, int32(r), 0, 3)
	}
	g := reduceAll(tables)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	for fp, want := range holders {
		e := g.Lookup(fp)
		if e == nil {
			t.Fatalf("fingerprint %s lost in reduction", fp.Short())
		}
		if int(e.Freq) != want {
			t.Errorf("fingerprint %s freq = %d, want %d", fp.Short(), e.Freq, want)
		}
		if len(e.Ranks) > 3 {
			t.Errorf("fingerprint %s has %d > 3 designated ranks", fp.Short(), len(e.Ranks))
		}
		want := want
		if want > 3 {
			want = 3
		}
		if len(e.Ranks) != want {
			t.Errorf("fingerprint %s designated %d ranks, want min(holders,K)=%d", fp.Short(), len(e.Ranks), want)
		}
	}
}

func TestReductionDesignatesOnlyHolders(t *testing.T) {
	// A designated rank must actually hold the fingerprint: designation
	// originates from leaf tables and never invents ranks.
	const nRanks = 12
	rng := rand.New(rand.NewSource(7))
	holds := make(map[FP]map[int32]bool)
	tables := make([]*Table, nRanks)
	for r := range tables {
		var fps []FP
		for id := 0; id < 20; id++ {
			if rng.Intn(3) == 0 {
				fp := fpOf(id)
				fps = append(fps, fp)
				if holds[fp] == nil {
					holds[fp] = make(map[int32]bool)
				}
				holds[fp][int32(r)] = true
			}
		}
		tables[r] = Local(fps, int32(r), 0, 2)
	}
	g := reduceAll(tables)
	for _, e := range g.Entries() {
		for _, r := range e.Ranks {
			if !holds[e.FP][r] {
				t.Errorf("fingerprint %s designated to rank %d which does not hold it", e.FP.Short(), r)
			}
		}
	}
}

func TestMergeDeterministic(t *testing.T) {
	mk := func() []*Table {
		tables := make([]*Table, 8)
		for r := range tables {
			var fps []FP
			for id := 0; id < 50; id++ {
				if (id+r)%3 == 0 {
					fps = append(fps, fpOf(id))
				}
			}
			tables[r] = Local(fps, int32(r), 8, 3)
		}
		return tables
	}
	a, err1 := reduceAll(mk()).MarshalBinary()
	b, err2 := reduceAll(mk()).MarshalBinary()
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if string(a) != string(b) {
		t.Fatal("identical reductions produced different tables")
	}
}

func TestWireRoundTrip(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tbl := NewTable(16, 3)
		for id := 0; id < 24; id++ {
			var fps []FP
			fps = append(fps, fpOf(rng.Intn(40)))
			tbl.Merge(Local(fps, int32(rng.Intn(10)), 16, 3))
		}
		blob, err := tbl.MarshalBinary()
		if err != nil {
			return false
		}
		var back Table
		if err := back.UnmarshalBinary(blob); err != nil {
			return false
		}
		blob2, err := back.MarshalBinary()
		if err != nil {
			return false
		}
		return string(blob) == string(blob2) && back.Validate() == nil
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}

	// The arms a merged table never shows: no entries at all, an entry
	// nobody is designated for, and the unbounded F.
	empty, orphan := NewTable(-1, 2), NewTable(8, 2)
	orphan.rows = []Entry{{FP: fpOf(1), Freq: 5}, {FP: fpOf(2), Freq: 2, Ranks: []int32{0, 4}}}
	slices.SortFunc(orphan.rows, func(a, b Entry) int { return a.FP.Compare(b.FP) })
	for name, tbl := range map[string]*Table{"empty": empty, "no-ranks": orphan} {
		blob, err := tbl.MarshalBinary()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var back Table
		if err := back.UnmarshalBinary(blob); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if back.F != tbl.F || back.K != tbl.K || back.Len() != tbl.Len() {
			t.Errorf("%s: decoded F=%d K=%d with %d entries", name, back.F, back.K, back.Len())
		}
		if e := back.Lookup(fpOf(1)); name == "no-ranks" && (e == nil || e.Freq != 5 || len(e.Ranks) != 0) {
			t.Errorf("%s: undesignated entry decoded as %+v", name, e)
		}
		if blob2, err := back.MarshalBinary(); err != nil || string(blob2) != string(blob) {
			t.Errorf("%s: decode + re-encode is not a fixed point (%v)", name, err)
		}
	}
}

func TestUnmarshalRejectsCorrupt(t *testing.T) {
	tbl := Local([]FP{fpOf(1), fpOf(2)}, 3, 0, 2)
	blob, err := tbl.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":      {},
		"header":     blob[:8],
		"entry":      blob[:len(blob)-5],
		"trailing":   append(append([]byte{}, blob...), 0xFF),
		"dup-header": blob[:12],
	}
	for name, b := range cases {
		var back Table
		if err := back.UnmarshalBinary(b); err == nil && name != "dup-header" {
			t.Errorf("%s: expected decode error", name)
		}
	}
	// What the flat layout cannot hold. A peer-controlled rank id indexes
	// the load vector, so it must be turned down before it sizes one.
	for name, b := range hostileTables(t) {
		var back Table
		err := back.UnmarshalBinary(b)
		if name == "ranks-over-k" {
			if err != nil || back.Validate() == nil {
				t.Errorf("%s: decode %v, Validate %v; want decoded and invalid", name, err, back.Validate())
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: expected decode error", name)
		}
		if len(back.load) > maxRanks {
			t.Errorf("%s: load vector grew to %d slots", name, len(back.load))
		}
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	tbl := Local([]FP{fpOf(1)}, 0, 0, 2)
	if err := tbl.Validate(); err != nil {
		t.Fatal(err)
	}
	tbl.load[0] = 99
	if err := tbl.Validate(); err == nil {
		t.Fatal("Validate missed a corrupted load count")
	}
}
