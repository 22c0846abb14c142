package fingerprint

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
)

// Entry is one row of the global fingerprint view: a fingerprint, the
// number of distinct ranks on which it occurs (its frequency), and the at
// most K ranks designated to store its chunk (the "designated ranks").
//
// Ranks is kept sorted ascending; the position of a rank inside Ranks
// drives the round-robin assignment of missing replicas, so a shared
// deterministic order matters. A Table's entries share one rank array:
// read Ranks, never write through it.
type Entry struct {
	FP    FP
	Freq  uint32
	Ranks []int32
}

// HasRank reports whether rank is among the designated ranks of e.
func (e *Entry) HasRank(rank int32) bool { return e.RankIndex(rank) >= 0 }

// RankIndex returns the position of rank inside the sorted designated
// list, or -1 when rank is not designated.
func (e *Entry) RankIndex(rank int32) int {
	if i, ok := slices.BinarySearch(e.Ranks, rank); ok {
		return i
	}
	return -1
}

// maxRanks bounds the rank ids a decoded table may name. The load vector
// is indexed by rank id and a decoded id is peer-controlled: unbounded, a
// 42-byte frame naming rank 2^31-1 would size an 8 GiB allocation.
const maxRanks = 1 << 20

// Table is the HMERGE reduction state: a bounded set of at most F
// fingerprint entries (the most frequent seen so far) plus the
// designation-load bookkeeping used to balance rank assignment. Entries
// live in ascending fingerprint order — the wire's order — in flat arrays,
// a handful of heap objects however many there are, and every operation
// is a linear pass over that order: no step of a reduction hashes,
// re-sorts or allocates per entry. Construct with NewTable or Local, or
// decode into the zero Table.
type Table struct {
	// F is the maximum number of entries retained (the paper's threshold,
	// 2^17 in the evaluation). F <= 0 means unbounded.
	F int
	// K is the replication factor: at most K designated ranks per entry.
	K int
	// rows holds the entries, fingerprints strictly ascending; each
	// row's Ranks is a window of ranks.
	rows  []Entry
	ranks []int32
	// load counts, per rank id, how many entries currently designate that
	// rank. It is the quantity minimized by the truncation rule.
	load []int32
	// index[p] is the first row whose leading 32 fingerprint bits >> shift
	// are >= p; SHA-1 prefixes are uniform, so a slot spans a row or two.
	// Rebuilt whenever rows change: Lookup only reads.
	index []uint32
	shift uint8
	// pending collects AddLocal calls until Trim sorts them into rows.
	pending []leafRow
}

// leafRow is one AddLocal call awaiting Trim; 4-byte aligned, it sorts
// three times faster than a bare (byte-aligned) FP would.
type leafRow struct {
	fp   FP
	rank int32
}

// NewTable returns an empty table with the given bounds.
func NewTable(f, k int) *Table { return &Table{F: f, K: max(k, 1)} }

// Local builds the leaf table of a reduction: every locally unique
// fingerprint of rank appears with frequency 1 and a single designated
// rank. The input need not be deduplicated; duplicates are collapsed.
func Local(fps []FP, rank int32, f, k int) *Table {
	t := NewTable(f, k)
	t.pending = make([]leafRow, 0, len(fps))
	for _, fp := range fps {
		t.AddLocal(fp, rank)
	}
	t.Trim()
	return t
}

// AddLocal records one locally observed fingerprint for the leaf table
// under construction: frequency 1, the calling rank designated. Repeated
// fingerprints are collapsed, so callers may feed the raw chunk stream, as
// the dump pipeline does while later chunks are still being hashed. Nothing
// fed is visible (Len, Lookup, Entries, the wire) until Trim closes the
// stream; AddLocal may not follow it.
func (t *Table) AddLocal(fp FP, rank int32) {
	t.pending = append(t.pending, leafRow{fp, rank})
}

// Trim closes incremental leaf construction: the fingerprints fed through
// AddLocal become the table's rows — one sort, duplicates dropped — and
// the top-F bound is enforced. Merge applies that bound automatically.
func (t *Table) Trim() {
	if p := t.pending; len(p) > 0 {
		slices.SortFunc(p, func(a, b leafRow) int { return compare(&a.fp, &b.fp) })
		p = slices.CompactFunc(p, func(a, b leafRow) bool { return a.fp == b.fp })
		if t.F > 0 && len(p) > t.F {
			p = p[:t.F] // every frequency is 1: the top F are the first F
		}
		t.rows, t.ranks, t.load = make([]Entry, len(p)), make([]int32, len(p)), nil
		for i, l := range p {
			t.ranks[i] = l.rank
			t.rows[i] = Entry{FP: l.fp, Freq: 1, Ranks: t.ranks[i : i+1 : i+1]}
			t.designate(l.rank)
		}
		t.pending = nil
	}
	t.evict()
	t.reindex()
}

// Len returns the number of entries currently held.
func (t *Table) Len() int { return len(t.rows) }

// Lookup returns the entry for fp, or nil. The entry points into the
// table and is valid until the table is next merged or decoded into.
func (t *Table) Lookup(fp FP) *Entry {
	if t.index == nil {
		return nil
	}
	p := binary.BigEndian.Uint32(fp[:]) >> t.shift
	lo, hi := t.index[p], t.index[p+1]
	if i, ok := slices.BinarySearchFunc(t.rows[lo:hi], &fp, func(e Entry, fp *FP) int { return compare(&e.FP, fp) }); ok {
		return &t.rows[int(lo)+i]
	}
	return nil
}

// reindex rebuilds the prefix index over the current rows in one pass.
func (t *Table) reindex() {
	n := len(t.rows)
	bitsUsed := max(bits.Len(uint(n))-1, 0) // about one slot per row
	t.index, t.shift = make([]uint32, 1<<bitsUsed+1), uint8(32-bitsUsed)
	p := 0
	for i := range t.rows {
		for q := int(binary.BigEndian.Uint32(t.rows[i].FP[:]) >> t.shift); p <= q; p++ {
			t.index[p] = uint32(i)
		}
	}
	for ; p < len(t.index); p++ {
		t.index[p] = uint32(n)
	}
}

// Load returns the designation load of rank.
func (t *Table) Load(rank int32) int32 {
	if rank < 0 || int(rank) >= len(t.load) {
		return 0
	}
	return t.load[rank]
}

// designate counts one more designation of rank r, growing load to it.
func (t *Table) designate(r int32) {
	if int(r) >= len(t.load) {
		t.load = append(t.load, make([]int32, int(r)+1-len(t.load))...)
	}
	t.load[r]++
}

// Entries returns all entries sorted by fingerprint. The returned
// pointers alias the table's entries; callers must not mutate them.
func (t *Table) Entries() []*Entry {
	out := make([]*Entry, len(t.rows))
	for i := range t.rows {
		out[i] = &t.rows[i]
	}
	return out
}

// Merge folds other into t, implementing the paper's HMERGE step:
//
//  1. frequencies of common fingerprints add up (frequency in the union),
//  2. designated rank lists are unioned and, when longer than K,
//     truncated by dropping the most designation-loaded ranks first,
//  3. only the F most frequent fingerprints of the union are retained
//     (ties broken by fingerprint order so all ranks agree).
//
// It is a merge-join of the two sorted row arrays into fresh ones: other's
// rows are folded in ascending fingerprint order — the order the
// load-dependent truncation is defined over — and rows only t holds pass
// through untouched. Merge mutates t only, and deterministically: the same
// pair of tables always yields the same result, as the reduction requires.
func (t *Table) Merge(other *Table) {
	if other == nil {
		return
	}
	a, b := t.rows, other.rows
	rows := make([]Entry, 0, len(a)+len(b))
	ranks := make([]int32, 0, len(t.ranks)+len(other.ranks))
	for len(a) > 0 || len(b) > 0 {
		// c orders the heads: < 0 the next row is t's alone, > 0 it is
		// other's alone, 0 both hold it.
		c := -1
		if len(a) == 0 {
			c = 1
		} else if len(b) > 0 {
			c = compare(&a[0].FP, &b[0].FP)
		}
		var e Entry
		start := len(ranks)
		if c <= 0 {
			e, a = a[0], a[1:]
			ranks = append(ranks, e.Ranks...)
		}
		if c >= 0 {
			e.FP, e.Freq = b[0].FP, e.Freq+b[0].Freq
			for _, r := range b[0].Ranks {
				if i, held := slices.BinarySearch(ranks[start:], r); !held {
					ranks = slices.Insert(ranks, start+i, r)
					t.designate(r)
				}
			}
			ranks, b = t.truncateRanks(ranks, start), b[1:]
		}
		e.Ranks = ranks[start:len(ranks):len(ranks)]
		rows = append(rows, e)
	}
	t.rows, t.ranks = rows, ranks
	t.evict()
	t.reindex()
}

// truncateRanks enforces at most K designated ranks on the row under
// construction, ranks[start:], evicting the most loaded ranks first, which
// shifts designation toward less loaded processes.
func (t *Table) truncateRanks(ranks []int32, start int) []int32 {
	for len(ranks)-start > t.K {
		// Ties go to the larger rank id: ids ascend, so to the later one.
		worst := start
		for i := start + 1; i < len(ranks); i++ {
			if t.load[ranks[i]] >= t.load[ranks[worst]] {
				worst = i
			}
		}
		t.load[ranks[worst]]--
		ranks = append(ranks[:worst], ranks[worst+1:]...)
	}
	return ranks
}

// evict enforces the top-F bound by (frequency descending, fingerprint
// ascending), releasing the designations of evicted entries: everything
// above the F-th largest frequency stays, then the first rows at it.
func (t *Table) evict() {
	n := len(t.rows)
	if t.F <= 0 || n <= t.F {
		return
	}
	freqs := make([]uint32, n)
	for i := range t.rows {
		freqs[i] = t.rows[i].Freq
	}
	slices.Sort(freqs)
	cut, room := freqs[n-t.F], t.F
	for i := n - 1; freqs[i] > cut; i-- {
		room--
	}
	kept := t.rows[:0]
	for _, e := range t.rows {
		if e.Freq > cut || (e.Freq == cut && room > 0) {
			if kept = append(kept, e); e.Freq == cut {
				room--
			}
			continue
		}
		for _, r := range e.Ranks {
			t.load[r]--
		}
	}
	t.rows = kept
}

// Validate checks internal invariants; used by tests and debug builds.
func (t *Table) Validate() error {
	want := make([]int32, len(t.load))
	for i := range t.rows {
		e := &t.rows[i]
		if i > 0 && compare(&e.FP, &t.rows[i-1].FP) <= 0 {
			return fmt.Errorf("fingerprint %s out of order", e.FP.Short())
		}
		if e.Freq == 0 || len(e.Ranks) == 0 || len(e.Ranks) > t.K {
			return fmt.Errorf("fingerprint %s has frequency %d and %d designated ranks, want > 0 and 1..K=%d", e.FP.Short(), e.Freq, len(e.Ranks), t.K)
		}
		for j, r := range e.Ranks {
			if r < 0 || int(r) >= len(want) || (j > 0 && r <= e.Ranks[j-1]) {
				return fmt.Errorf("fingerprint %s ranks %v unsorted, duplicate or outside the load vector", e.FP.Short(), e.Ranks)
			}
			want[r]++
		}
	}
	if t.F > 0 && len(t.rows) > t.F {
		return fmt.Errorf("table holds %d entries > F=%d", len(t.rows), t.F)
	}
	for r, n := range want {
		if t.load[r] != n {
			return fmt.Errorf("rank %d load=%d, recount=%d", r, t.load[r], n)
		}
	}
	return nil
}
