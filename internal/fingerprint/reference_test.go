package fingerprint

// The map-based table and codec this package shipped until the flat,
// sorted table replaced them, kept verbatim (types and constructors
// renamed) as the reference the new implementation is checked against:
// TestTableMatchesReference demands identical wire bytes and loads after
// every leaf build and every merge of random reductions.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// refClone returns a deep copy of e.
func refClone(e *Entry) *Entry {
	c := &Entry{FP: e.FP, Freq: e.Freq, Ranks: make([]int32, len(e.Ranks))}
	copy(c.Ranks, e.Ranks)
	return c
}

// refTable is the old HMERGE reduction state: a bounded set of at most F
// fingerprint entries (the most frequent seen so far) plus the
// designation-load bookkeeping used to balance rank assignment.
//
// The zero refTable decodes (UnmarshalBinary); otherwise construct with
// newRefTable or refLocal.
type refTable struct {
	// F is the maximum number of entries retained (the paper's threshold,
	// 2^17 in the evaluation). F <= 0 means unbounded.
	F int
	// K is the replication factor: at most K designated ranks per entry.
	K int

	entries map[FP]*Entry
	// load counts, per rank, how many entries currently designate it.
	// It is the quantity minimized by the truncation rule.
	load map[int32]int32
}

// newRefTable returns an empty table with the given bounds.
func newRefTable(f, k int) *refTable {
	if k < 1 {
		k = 1
	}
	return &refTable{
		F:       f,
		K:       k,
		entries: make(map[FP]*Entry),
		load:    make(map[int32]int32),
	}
}

// refLocal builds the leaf table of a reduction: every locally unique
// fingerprint of rank appears with frequency 1 and a single designated
// rank. The input need not be deduplicated; duplicates are collapsed.
func refLocal(fps []FP, rank int32, f, k int) *refTable {
	t := newRefTable(f, k)
	for _, fp := range fps {
		t.AddLocal(fp, rank)
	}
	t.Trim()
	return t
}

// AddLocal inserts one locally observed fingerprint into a leaf table
// under construction: frequency 1, the calling rank designated. Repeated
// fingerprints are collapsed, so callers may feed the raw chunk stream.
// The parallel dump pipeline builds its leaf table incrementally through
// AddLocal while later chunks are still being hashed; callers must invoke
// Trim once the stream ends to restore the top-F bound before the table
// enters a reduction.
func (t *refTable) AddLocal(fp FP, rank int32) {
	if _, ok := t.entries[fp]; ok {
		return
	}
	t.entries[fp] = &Entry{FP: fp, Freq: 1, Ranks: []int32{rank}}
	t.load[rank]++
}

// Trim enforces the top-F bound, the closing step of incremental leaf
// construction via AddLocal. Merge applies it automatically.
func (t *refTable) Trim() { t.trim() }

// Len returns the number of entries currently held.
func (t *refTable) Len() int { return len(t.entries) }

// Lookup returns the entry for fp, or nil.
func (t *refTable) Lookup(fp FP) *Entry { return t.entries[fp] }

// Load returns the designation load of rank.
func (t *refTable) Load(rank int32) int32 { return t.load[rank] }

// Entries returns all entries sorted by fingerprint. The returned slice
// aliases the table's entries; callers must not mutate them.
func (t *refTable) Entries() []*Entry {
	out := make([]*Entry, 0, len(t.entries))
	// Collection order is irrelevant: the sort below imposes the shared
	// fingerprint order every rank agrees on.
	for _, e := range t.entries {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].FP.Less(out[j].FP) })
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
// Merge mutates t and leaves other untouched. It is deterministic: merging
// the same pair of tables always yields the same result, which the
// reduction relies on.
func (t *refTable) Merge(other *refTable) {
	if other == nil {
		return
	}
	// Deterministic processing order: fingerprints ascending.
	for _, oe := range other.Entries() {
		e, ok := t.entries[oe.FP]
		if !ok {
			c := refClone(oe)
			t.entries[oe.FP] = c
			for _, r := range c.Ranks {
				t.load[r]++
			}
			t.truncateRanks(c)
			continue
		}
		e.Freq += oe.Freq
		for _, r := range oe.Ranks {
			if !e.HasRank(r) {
				e.Ranks = insertSorted(e.Ranks, r)
				t.load[r]++
			}
		}
		t.truncateRanks(e)
	}
	t.trim()
}

// truncateRanks enforces |Ranks| <= K by evicting the most loaded ranks
// first, shifting designation toward less loaded processes.
func (t *refTable) truncateRanks(e *Entry) {
	for len(e.Ranks) > t.K {
		// Pick the rank with the highest current load; break ties by the
		// larger rank id so the choice is deterministic.
		worst := 0
		for i := 1; i < len(e.Ranks); i++ {
			li, lw := t.load[e.Ranks[i]], t.load[e.Ranks[worst]]
			if li > lw || (li == lw && e.Ranks[i] > e.Ranks[worst]) {
				worst = i
			}
		}
		t.load[e.Ranks[worst]]--
		e.Ranks = append(e.Ranks[:worst], e.Ranks[worst+1:]...)
	}
}

// trim enforces the top-F bound, releasing designations of evicted
// entries. Entries are ranked by frequency descending, fingerprint
// ascending.
func (t *refTable) trim() {
	if t.F <= 0 || len(t.entries) <= t.F {
		return
	}
	all := t.Entries()
	sort.Slice(all, func(i, j int) bool {
		if all[i].Freq != all[j].Freq {
			return all[i].Freq > all[j].Freq
		}
		return all[i].FP.Less(all[j].FP)
	})
	for _, e := range all[t.F:] {
		for _, r := range e.Ranks {
			t.load[r]--
		}
		delete(t.entries, e.FP)
	}
}

// insertSorted inserts r into the ascending slice s, keeping it sorted.
func insertSorted(s []int32, r int32) []int32 {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= r })
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = r
	return s
}

// MarshalBinary encodes the table for transmission between ranks.
func (t *refTable) MarshalBinary() ([]byte, error) {
	entries := t.Entries()
	size := 12
	for _, e := range entries {
		size += Size + 4 + 2 + 4*len(e.Ranks)
	}
	buf := make([]byte, 0, size)
	buf = binary.BigEndian.AppendUint32(buf, uint32(t.F))
	buf = binary.BigEndian.AppendUint32(buf, uint32(t.K))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(entries)))
	for _, e := range entries {
		buf = append(buf, e.FP[:]...)
		buf = binary.BigEndian.AppendUint32(buf, e.Freq)
		if len(e.Ranks) > 0xFFFF {
			return nil, fmt.Errorf("fingerprint: %d designated ranks exceed wire limit", len(e.Ranks))
		}
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(e.Ranks)))
		for _, r := range e.Ranks {
			buf = binary.BigEndian.AppendUint32(buf, uint32(r))
		}
	}
	return buf, nil
}

// UnmarshalBinary decodes a table encoded by MarshalBinary.
func (t *refTable) UnmarshalBinary(data []byte) error {
	if len(data) < 12 {
		return fmt.Errorf("fingerprint: table header truncated (%d bytes)", len(data))
	}
	t.F = int(int32(binary.BigEndian.Uint32(data)))
	t.K = int(binary.BigEndian.Uint32(data[4:]))
	n := int(binary.BigEndian.Uint32(data[8:]))
	data = data[12:]
	// The count prefix is peer-controlled: every entry occupies at least
	// Size+6 bytes, so a count the payload cannot hold is corrupt or
	// hostile and must be rejected before it sizes an allocation.
	if n > len(data)/(Size+6) {
		return fmt.Errorf("fingerprint: table claims %d entries in %d bytes", n, len(data))
	}
	t.entries = make(map[FP]*Entry, n)
	t.load = make(map[int32]int32)
	for i := 0; i < n; i++ {
		if len(data) < Size+6 {
			return fmt.Errorf("fingerprint: entry %d truncated", i)
		}
		var e Entry
		copy(e.FP[:], data[:Size])
		e.Freq = binary.BigEndian.Uint32(data[Size:])
		nr := int(binary.BigEndian.Uint16(data[Size+4:]))
		data = data[Size+6:]
		if len(data) < 4*nr {
			return fmt.Errorf("fingerprint: entry %d rank list truncated", i)
		}
		e.Ranks = make([]int32, nr)
		for j := 0; j < nr; j++ {
			e.Ranks[j] = int32(binary.BigEndian.Uint32(data[4*j:]))
			t.load[e.Ranks[j]]++
		}
		data = data[4*nr:]
		if _, dup := t.entries[e.FP]; dup {
			return fmt.Errorf("fingerprint: duplicate entry %s", e.FP.Short())
		}
		t.entries[e.FP] = &e
	}
	if len(data) != 0 {
		return fmt.Errorf("fingerprint: %d trailing bytes after table", len(data))
	}
	return nil
}

// sameAsReference compares a table with its reference after one step of a
// reduction: wire bytes, every rank's load, invariants, and Lookup of
// every fingerprint of the pool.
func sameAsReference(t *testing.T, step string, got *Table, want *refTable, nRanks int, pool []FP) []byte {
	t.Helper()
	gb, err := got.MarshalBinary()
	if err != nil {
		t.Fatalf("%s: %v", step, err)
	}
	wb, err := want.MarshalBinary()
	if err != nil {
		t.Fatalf("%s: reference: %v", step, err)
	}
	if !bytes.Equal(gb, wb) {
		t.Fatalf("%s: wire bytes differ from the reference (%d vs %d bytes)", step, len(gb), len(wb))
	}
	for r := int32(-1); r <= int32(nRanks); r++ {
		if got.Load(r) != want.Load(r) {
			t.Fatalf("%s: Load(%d) = %d, reference %d", step, r, got.Load(r), want.Load(r))
		}
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("%s: %v", step, err)
	}
	if got.Len() != want.Len() {
		t.Fatalf("%s: Len() = %d, reference %d", step, got.Len(), want.Len())
	}
	for _, fp := range pool {
		g, w := got.Lookup(fp), want.Lookup(fp)
		if (g == nil) != (w == nil) || (g != nil && (g.FP != fp || g.Freq != w.Freq || !slices.Equal(g.Ranks, w.Ranks))) {
			t.Fatalf("%s: Lookup(%s) = %+v, reference %+v", step, fp.Short(), g, w)
		}
	}
	return gb
}

// TestTableMatchesReference runs random reductions over the binomial tree
// — leaf tables from overlapping fingerprint pools, merged through the
// wire exactly as the allreduce does, and once more in memory — and
// demands that the flat table and the map-based reference agree after
// every leaf build and every merge.
func TestTableMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for cfg := 0; cfg < 320; cfg++ {
		n, k := 2+rng.Intn(15), 1+rng.Intn(4)
		pool := make([]FP, 4+rng.Intn(60))
		for i := range pool {
			pool[i] = fpOf(cfg*1000 + i)
		}
		f := 0
		if cfg%2 == 1 {
			f = 1 + rng.Intn(len(pool))
		}
		share := 1 + rng.Intn(4) // every rank holds about 1/share of the pool
		name := fmt.Sprintf("cfg %d (N=%d K=%d F=%d pool=%d)", cfg, n, k, f, len(pool))

		blobs := make([][]byte, n)
		mem, memRef := make([]*Table, n), make([]*refTable, n)
		for r := range blobs {
			var fps []FP
			for _, fp := range pool {
				if rng.Intn(share) == 0 {
					fps = append(fps, fp)
					if rng.Intn(4) == 0 {
						fps = append(fps, fp) // the raw stream repeats chunks
					}
				}
			}
			rng.Shuffle(len(fps), func(i, j int) { fps[i], fps[j] = fps[j], fps[i] })
			mem[r], memRef[r] = Local(fps, int32(r), f, k), refLocal(fps, int32(r), f, k)
			blobs[r] = sameAsReference(t, fmt.Sprintf("%s leaf %d", name, r), mem[r], memRef[r], n, pool)
		}
		for mask := 1; mask < n; mask *= 2 {
			for r := 0; r+mask < n; r += 2 * mask {
				step := fmt.Sprintf("%s merge %d<-%d", name, r, r+mask)
				var a, b Table
				var ra, rb refTable
				for _, err := range []error{
					a.UnmarshalBinary(blobs[r]), b.UnmarshalBinary(blobs[r+mask]),
					ra.UnmarshalBinary(blobs[r]), rb.UnmarshalBinary(blobs[r+mask]),
				} {
					if err != nil {
						t.Fatalf("%s: %v", step, err)
					}
				}
				a.Merge(&b)
				ra.Merge(&rb)
				merged := sameAsReference(t, step, &a, &ra, n, pool)
				if wire, err := MergeWire(blobs[r], blobs[r+mask]); err != nil || !bytes.Equal(wire, merged) {
					t.Fatalf("%s: MergeWire differs from decode, Merge, encode (%v)", step, err)
				}
				blobs[r] = merged
				// The same merge on tables that never crossed the wire.
				mem[r].Merge(mem[r+mask])
				memRef[r].Merge(memRef[r+mask])
				if inMem := sameAsReference(t, step+" in memory", mem[r], memRef[r], n, pool); !bytes.Equal(inMem, merged) {
					t.Fatalf("%s: in-memory merge differs from the merge through the wire", step)
				}
			}
		}
	}
}

// TestAddLocalTrimMatchesLocal pins the incremental leaf construction the
// dump pipeline uses to the batch one: the raw stream, duplicates and
// all, fed through AddLocal and closed by Trim is the table Local builds.
// Before Trim the fed fingerprints are pending and nothing is visible.
func TestAddLocalTrimMatchesLocal(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, f := range []int{0, 1, 7, 40, 1000} {
		var fps []FP
		for i := 0; i < 200; i++ {
			fps = append(fps, fpOf(rng.Intn(60)))
		}
		inc := NewTable(f, 3)
		for _, fp := range fps {
			inc.AddLocal(fp, 9)
		}
		if inc.Len() != 0 || inc.Lookup(fps[0]) != nil || len(inc.Entries()) != 0 {
			t.Fatalf("F=%d: fingerprints visible before Trim", f)
		}
		inc.Trim()
		got, err1 := inc.MarshalBinary()
		batch := Local(fps, 9, f, 3)
		want, err2 := batch.MarshalBinary()
		if err1 != nil || err2 != nil || !bytes.Equal(got, want) {
			t.Fatalf("F=%d: AddLocal+Trim differs from Local (%v, %v)", f, err1, err2)
		}
		if inc.Len() != batch.Len() || inc.Load(9) != batch.Load(9) || int(inc.Load(9)) != inc.Len() {
			t.Fatalf("F=%d: Len/Load %d/%d, Local %d/%d", f, inc.Len(), inc.Load(9), batch.Len(), batch.Load(9))
		}
		if err := inc.Validate(); err != nil {
			t.Fatalf("F=%d: %v", f, err)
		}
		for id := 0; id < 60; id++ {
			if e, b := inc.Lookup(fpOf(id)), batch.Lookup(fpOf(id)); (e == nil) != (b == nil) || (e != nil && (e.Freq != 1 || !slices.Equal(e.Ranks, []int32{9}))) {
				t.Fatalf("F=%d: Lookup(%d) = %+v, Local %+v", f, id, e, b)
			}
		}
	}
}
