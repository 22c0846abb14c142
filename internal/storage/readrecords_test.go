package storage

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"testing"

	"dedupcr/internal/fingerprint"
)

// wantRecord is ReadRecords' contract for one record: GetChunk and a
// length compare.
func wantRecord(s Store, r Record) ([]byte, error) {
	data, err := s.GetChunk(r.FP)
	if err == nil && len(data) != int(r.Len) {
		return nil, LengthError{Got: len(data), Want: int(r.Len)}
	}
	return data, err
}

// checkBatch reads recs with one ReadRecords and compares every outcome,
// error text and placed bytes, with the record's own GetChunk. A Timed
// store must record the batch as one read.
func checkBatch(t *testing.T, name string, s Store, recs []Record) {
	t.Helper()
	size := int32(0)
	for _, r := range recs {
		size = max(size, r.Off+r.Len)
	}
	dst, errs := make([]byte, size), make([]error, len(recs))
	timed, _ := s.(*Timed)
	var before int64
	if timed != nil {
		before = timed.ReadLatency().Count()
	}
	s.ReadRecords(dst, recs, errs)
	if timed != nil && timed.ReadLatency().Count() != before+1 {
		t.Fatalf("%s: a batch of %d records recorded %d read samples, want 1", name, len(recs), timed.ReadLatency().Count()-before)
	}
	for i, r := range recs {
		want, werr := wantRecord(s, r)
		if fmt.Sprint(errs[i]) != fmt.Sprint(werr) {
			t.Fatalf("%s: record %d (%s, %d bytes at %d): ReadRecords says %v, GetChunk %v", name, i, r.FP.Short(), r.Len, r.Off, errs[i], werr)
		}
		if werr == nil && !bytes.Equal(dst[r.Off:r.Off+r.Len], want) {
			t.Fatalf("%s: record %d (%s): wrong bytes placed", name, i, r.FP.Short())
		}
	}
}

// randomBatch draws a batch over pool: mostly runs of consecutive pool
// chunks, which sit back to back in a segment file, plus random picks,
// repeats, fingerprints never stored and records of the wrong length,
// laid out in dst back to back or with a gap.
func randomBatch(rng *rand.Rand, pool [][]byte) []Record {
	var recs []Record
	off := int32(0)
	add := func(fp fingerprint.FP, n int) {
		if rng.Intn(8) == 0 {
			off += int32(1 + rng.Intn(16))
		}
		switch rng.Intn(12) {
		case 0:
			n++
		case 1:
			n = max(0, n-1)
		}
		recs = append(recs, Record{FP: fp, Off: off, Len: int32(n)})
		off += int32(n)
	}
	for n := 1 + rng.Intn(40); len(recs) < n; {
		switch rng.Intn(6) {
		case 0:
			fp := fingerprint.Of([]byte(fmt.Sprint("never stored ", rng.Int())))
			add(fp, rng.Intn(100))
		case 1:
			if len(recs) > 0 {
				r := recs[rng.Intn(len(recs))]
				add(r.FP, int(r.Len))
			}
		default:
			start := rng.Intn(len(pool))
			for i := start; i < min(len(pool), start+1+rng.Intn(8)); i++ {
				add(fingerprint.Of(pool[i]), len(pool[i]))
			}
		}
	}
	return recs
}

// corruptOnDisk flips the first byte of fp's bytes in its sealed segment
// file, under the store's read handle, and reports whether it could.
func corruptOnDisk(t *testing.T, s *SegStore, fp fingerprint.FP) bool {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	loc, ok := s.index[fp]
	sf := s.sealed[loc.seg]
	if !ok || sf == nil || sf.entries[loc.slot].Length == 0 {
		return false
	}
	f, err := os.OpenFile(s.segPath(sf.id), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	b, at := make([]byte, 1), int64(sf.entries[loc.slot].Offset)
	if _, err := f.ReadAt(b, at); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 1
	if _, err := f.WriteAt(b, at); err != nil {
		t.Fatal(err)
	}
	return true
}

// TestReadRecordsMatchesGetChunk: on both engines, directly and through
// Timed, every record of a random batch comes out exactly as GetChunk and
// a length compare would have it — placed, not found, corrupt, or of the
// wrong length — with the memory store's chunks in arenas and corrupted
// there, the segment store's in the tail buffer, flushed to the active
// file, sealed, compacted, reopened and corrupted on disk, and after the
// node failed.
func TestReadRecordsMatchesGetChunk(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	pool := make([][]byte, 200)
	for i := range pool {
		pool[i] = segChunk(i, 2+rng.Intn(3<<10))
	}
	pool[7] = nil                      // a zero-length chunk
	pool[100] = segChunk(100, 200<<10) // above the tail buffer: written to the file directly
	released := make(map[int]bool)
	fill := func(s Store) {
		for i, data := range pool {
			if err := s.PutChunk(fingerprint.Of(data), data); err != nil {
				t.Fatal(err)
			}
			if rng.Intn(8) == 0 {
				released[i] = true
			}
		}
		for i := range released {
			if err := s.ReleaseChunk(fingerprint.Of(pool[i])); err != nil {
				t.Fatal(err)
			}
		}
	}
	check := func(name string, s Store) {
		for b := 0; b < 40; b++ {
			checkBatch(t, name, s, randomBatch(rng, pool))
		}
	}

	mem := NewMem()
	fill(mem)
	check("mem", mem)
	check("mem, timed", NewTimed(mem))
	flipped := 0
	for i, data := range pool {
		if !released[i] && len(data) > 0 && rng.Intn(4) == 0 {
			flipStored(t, mem, fingerprint.Of(data))
			flipped++
		}
	}
	if flipped == 0 {
		t.Fatal("test premise: no chunk corrupted")
	}
	check("mem, corrupt", mem)
	check("mem, corrupt, timed", NewTimed(mem))

	dir := t.TempDir()
	seg, err := NewSegStore(dir, SegConfig{SegmentTarget: 256 << 10})
	if err != nil {
		t.Fatal(err)
	}
	fill(seg)
	if st := seg.Stats(); st.Seals == 0 || len(seg.tail) == 0 || seg.active.flushed == 0 {
		t.Fatalf("test premise: %d seals, %d tail bytes, %d flushed; want all three", st.Seals, len(seg.tail), seg.active.flushed)
	}
	check("seg, tail", seg)
	if err := seg.Commit(); err != nil {
		t.Fatal(err)
	}
	check("seg, sealed", seg)
	for i := range pool {
		if !released[i] && rng.Intn(3) > 0 {
			released[i] = true
			if err := seg.ReleaseChunk(fingerprint.Of(pool[i])); err != nil {
				t.Fatal(err)
			}
		}
	}
	if n, err := seg.Compact(); err != nil || n == 0 {
		t.Fatalf("test premise: compaction rewrote %d segments, %v", n, err)
	}
	check("seg, compacted", seg)
	if err := seg.Close(); err != nil {
		t.Fatal(err)
	}
	if seg, err = NewSegStore(dir, SegConfig{}); err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	check("seg, reopened", seg)
	corrupted := 0
	for i := range pool {
		if !released[i] && rng.Intn(4) == 0 && corruptOnDisk(t, seg, fingerprint.Of(pool[i])) {
			corrupted++
		}
	}
	if corrupted == 0 {
		t.Fatal("test premise: no chunk corrupted")
	}
	check("seg, corrupt on disk", seg)
	check("seg, timed", NewTimed(seg))

	mem.Fail()
	seg.Fail()
	check("mem, failed", mem)
	check("seg, failed", seg)
}

// TestSegReadRecordsRuns: a batch issues one file read per run of records
// that sit back to back both in one segment file and in dst. A gap in the
// file or in dst splits the run, and so does a segment boundary, however
// the offsets line up; bytes still in the tail buffer are copied, never
// read from the file.
func TestSegReadRecordsRuns(t *testing.T) {
	s, err := NewSegStore(t.TempDir(), SegConfig{SegmentTarget: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	type read struct {
		off int64
		n   int
	}
	var reads []read
	s.readAt = func(f *os.File, p []byte, off int64) (int, error) {
		reads = append(reads, read{off, len(p)})
		return f.ReadAt(p, off)
	}
	const size = 1 << 10
	put := func(from, to int) {
		for i := from; i < to; i++ {
			data := segChunk(i, size)
			if err := s.PutChunk(fingerprint.Of(data), data); err != nil {
				t.Fatal(err)
			}
		}
	}
	// rec is chunk i at slot k of dst, shifted by gap bytes.
	rec := func(i, k, gap int) Record {
		return Record{FP: fingerprint.Of(segChunk(i, size)), Off: int32(k*size + gap), Len: size}
	}
	expect := func(name string, recs []Record, want ...read) {
		t.Helper()
		reads = nil
		checkBatch(t, name, s, recs)
		// checkBatch's own GetChunk calls read one chunk each, after the
		// batch.
		if len(reads) < len(want) || fmt.Sprint(reads[:len(want)]) != fmt.Sprint(want) {
			t.Fatalf("%s: reads %v, want %v first", name, reads, want)
		}
		if rest := reads[len(want):]; len(rest) > len(recs) {
			t.Fatalf("%s: %d reads after the batch for %d records", name, len(rest), len(recs))
		}
	}

	put(0, 4) // chunks 0-3 sit in the tail buffer
	expect("tail", []Record{rec(0, 0, 0), rec(1, 1, 0), rec(2, 2, 0)})
	if len(reads) != 0 {
		t.Fatalf("tail: %d file reads, want none", len(reads))
	}
	if err := s.Commit(); err != nil { // segment A: chunks 0-3 at 0, 1K, 2K, 3K
		t.Fatal(err)
	}
	expect("contiguous", []Record{rec(0, 0, 0), rec(1, 1, 0), rec(2, 2, 0), rec(3, 3, 0)},
		read{0, 4 * size})
	expect("file gap", []Record{rec(0, 0, 0), rec(2, 1, 0), rec(3, 2, 0)},
		read{0, size}, read{2 * size, 2 * size})
	expect("dst gap", []Record{rec(0, 0, 0), rec(1, 1, 1), rec(2, 2, 1)},
		read{0, size}, read{size, 2 * size})
	put(4, 6) // segment B: chunks 4 and 5 at 0 and 1K
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	expect("segment boundary", []Record{rec(0, 0, 0), rec(5, 1, 0)},
		read{0, size}, read{size, size})
	put(6, 200) // the active segment: 128 KiB flushed to its file, the rest in the tail
	expect("flushed and tail", []Record{rec(6, 0, 0), rec(7, 1, 0), rec(198, 2, 0), rec(199, 3, 0)},
		read{0, 2 * size})
}

// TestSegReadRecordsConcurrent: batches read while other goroutines put,
// seal, release, commit and compact always place the chunks that stay
// live, and see a churning chunk either placed whole or not found.
func TestSegReadRecordsConcurrent(t *testing.T) {
	s, err := NewSegStore(t.TempDir(), SegConfig{SegmentTarget: 8 << 10, GarbageRatio: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	stable := make([][]byte, 64)
	for i := range stable {
		stable[i] = segChunk(i, 512+i*16)
		if err := s.PutChunk(fingerprint.Of(stable[i]), stable[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	churn := make([][]byte, 64)
	for i := range churn {
		churn[i] = segChunk(1000+i, 700)
	}
	content := make(map[fingerprint.FP][]byte)
	for _, data := range append(append([][]byte(nil), stable...), churn...) {
		content[fingerprint.Of(data)] = data
	}

	var wg sync.WaitGroup
	done := make(chan struct{})
	stop := sync.OnceFunc(func() {
		close(done)
		wg.Wait()
	})
	defer stop()
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for {
				select {
				case <-done:
					return
				default:
				}
				var recs []Record
				off := int32(0)
				for k := 0; k < 1+rng.Intn(32); k++ {
					data := stable[rng.Intn(len(stable))]
					if rng.Intn(2) == 0 {
						data = churn[rng.Intn(len(churn))]
					}
					recs = append(recs, Record{FP: fingerprint.Of(data), Off: off, Len: int32(len(data))})
					off += int32(len(data))
				}
				dst, errs := make([]byte, off), make([]error, len(recs))
				s.ReadRecords(dst, recs, errs)
				for i, r := range recs {
					switch {
					case errs[i] == nil && !bytes.Equal(dst[r.Off:r.Off+r.Len], content[r.FP]):
						t.Errorf("reader %d: record %d placed wrong bytes", g, i)
						return
					case errs[i] == nil:
					case !errors.Is(errs[i], ErrNotFound) || r.Len != 700:
						t.Errorf("reader %d: record %d (%d bytes): %v", g, i, r.Len, errs[i])
						return
					}
				}
			}
		}(g)
	}
	rng := rand.New(rand.NewSource(7))
	live := make([]bool, len(churn))
	for step := 0; step < 3000; step++ {
		i := rng.Intn(len(churn))
		fp := fingerprint.Of(churn[i])
		var err error
		switch {
		case step%200 == 199:
			if err = s.Commit(); err == nil {
				_, err = s.Compact()
			}
		case live[i]:
			err, live[i] = s.ReleaseChunk(fp), false
		default:
			err, live[i] = s.PutChunk(fp, churn[i]), true
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	stop()
	if st := s.Stats(); st.Seals == 0 || st.Compactions == 0 {
		t.Fatalf("test premise: %d seals, %d compactions; want both", st.Seals, st.Compactions)
	}
}
