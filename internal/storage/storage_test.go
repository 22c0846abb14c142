package storage

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"unsafe"

	"dedupcr/internal/fingerprint"
)

// held reports whether s holds fp: GetChunk misses only a chunk s does
// not hold, so a corrupt chunk is held.
func held(s Store, fp fingerprint.FP) bool {
	_, err := s.GetChunk(fp)
	return !errors.Is(err, ErrNotFound)
}

// stores returns every implementation under a common label, so the
// conformance tests below run against all engines.
func stores(t *testing.T) map[string]Store {
	t.Helper()
	seg, err := NewSeg(filepath.Join(t.TempDir(), "segnode"))
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Store{"mem": NewMem(), "seg": seg}
}

func TestPutGetChunk(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			data := []byte("chunk-content")
			fp := fingerprint.Of(data)
			if err := s.PutChunk(fp, data); err != nil {
				t.Fatal(err)
			}
			got, err := s.GetChunk(fp)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("got %q", got)
			}
			if _, err := s.GetChunk(fingerprint.Of([]byte("absent"))); !errors.Is(err, ErrNotFound) {
				t.Fatalf("missing chunk error = %v, want ErrNotFound", err)
			}
		})
	}
}

// TestChunkMissError pins what a GetChunk miss looks like on every
// engine: it matches ErrNotFound and prints "chunk <fp>: storage: not
// found", the text the eagerly formatted error had.
func TestChunkMissError(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			fp := fingerprint.Of([]byte("absent"))
			_, err := s.GetChunk(fp)
			if !errors.Is(err, ErrNotFound) {
				t.Fatalf("miss = %v, want ErrNotFound", err)
			}
			if want := fmt.Sprintf("chunk %s: %v", fp.Short(), ErrNotFound); err.Error() != want {
				t.Fatalf("miss prints %q, want %q", err, want)
			}
		})
	}
}

func TestRefcounting(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			data := []byte("shared")
			fp := fingerprint.Of(data)
			for i := 0; i < 3; i++ {
				if err := s.PutChunk(fp, data); err != nil {
					t.Fatal(err)
				}
			}
			b, n := s.Usage()
			if n != 1 || b != int64(len(data)) {
				t.Fatalf("usage after 3 puts = %d bytes / %d chunks, want %d / 1", b, n, len(data))
			}
			// Two releases keep it; the third removes it.
			for i := 0; i < 2; i++ {
				if err := s.ReleaseChunk(fp); err != nil {
					t.Fatal(err)
				}
				if !held(s, fp) {
					t.Fatalf("chunk dropped after %d releases", i+1)
				}
			}
			if err := s.ReleaseChunk(fp); err != nil {
				t.Fatal(err)
			}
			if held(s, fp) {
				t.Fatal("chunk survived final release")
			}
			if b, n := s.Usage(); b != 0 || n != 0 {
				t.Fatalf("usage after full release = %d/%d", b, n)
			}
			if err := s.ReleaseChunk(fp); !errors.Is(err, ErrNotFound) {
				t.Fatalf("releasing absent chunk = %v, want ErrNotFound", err)
			}
		})
	}
}

func TestBlobs(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			if err := s.PutBlob("ckpt-1/meta-rank000003", []byte("payload")); err != nil {
				t.Fatal(err)
			}
			got, err := s.GetBlob("ckpt-1/meta-rank000003")
			if err != nil || string(got) != "payload" {
				t.Fatalf("got %q, %v", got, err)
			}
			if _, err := s.GetBlob("nope"); !errors.Is(err, ErrNotFound) {
				t.Fatalf("missing blob error = %v, want ErrNotFound", err)
			}
			// Overwrite.
			if err := s.PutBlob("ckpt-1/meta-rank000003", []byte("v2")); err != nil {
				t.Fatal(err)
			}
			if got, _ := s.GetBlob("ckpt-1/meta-rank000003"); string(got) != "v2" {
				t.Fatalf("overwrite lost: %q", got)
			}
		})
	}
}

func TestFailSemantics(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			data := []byte("x")
			fp := fingerprint.Of(data)
			if err := s.PutChunk(fp, data); err != nil {
				t.Fatal(err)
			}
			s.Fail()
			if !s.Failed() {
				t.Fatal("Failed() false after Fail()")
			}
			if _, err := s.GetChunk(fp); !errors.Is(err, ErrFailed) {
				t.Fatalf("GetChunk on failed node = %v", err)
			}
			if err := s.PutChunk(fp, data); !errors.Is(err, ErrFailed) {
				t.Fatalf("PutChunk on failed node = %v", err)
			}
			if err := s.PutBlob("b", nil); !errors.Is(err, ErrFailed) {
				t.Fatalf("PutBlob on failed node = %v", err)
			}
			if b, n := s.Usage(); b != 0 || n != 0 {
				t.Fatalf("failed node reports usage %d/%d", b, n)
			}
		})
	}
}

func TestClusterAccounting(t *testing.T) {
	c := NewCluster(4)
	if c.Size() != 4 {
		t.Fatalf("Size = %d", c.Size())
	}
	for r := 0; r < 4; r++ {
		data := bytes.Repeat([]byte{byte(r)}, (r+1)*10)
		if err := c.Node(r).PutChunk(fingerprint.Of(data), data); err != nil {
			t.Fatal(err)
		}
	}
	total, chunks := c.TotalUsage()
	if total != 10+20+30+40 || chunks != 4 {
		t.Fatalf("TotalUsage = %d/%d", total, chunks)
	}
	if got := c.MaxUsage(); got != 40 {
		t.Fatalf("MaxUsage = %d", got)
	}
	usage := c.UsageByNode()
	if usage[2] != 30 {
		t.Fatalf("UsageByNode[2] = %d", usage[2])
	}
	c.FailNodes(3)
	total, chunks = c.TotalUsage()
	if total != 60 || chunks != 3 {
		t.Fatalf("TotalUsage after failure = %d/%d", total, chunks)
	}
	c.Replace(3)
	if c.Node(3).Failed() {
		t.Fatal("replaced node still failed")
	}
}

// flipStored flips the first byte of fp's stored bytes in place, wherever
// the engine keeps them: a memory arena, the segment store's tail buffer,
// or a segment data file (open or closed).
func flipStored(t *testing.T, s Store, fp fingerprint.FP) {
	t.Helper()
	switch s := s.(type) {
	case *memStore:
		sl := s.index[fp]
		s.arenas[sl.arena].buf[sl.off] ^= 1
	case *SegStore:
		loc := s.index[fp]
		e, _ := s.entryAtLocked(loc)
		if a := s.active; a != nil && loc.seg == a.id && e.Offset >= a.flushed {
			s.tail[e.Offset-a.flushed] ^= 1
			return
		}
		f, err := os.OpenFile(s.segPath(loc.seg), os.O_RDWR, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		b := []byte{0}
		if _, err := f.ReadAt(b, int64(e.Offset)); err != nil {
			t.Fatal(err)
		}
		b[0] ^= 1
		if _, err := f.WriteAt(b, int64(e.Offset)); err != nil {
			t.Fatal(err)
		}
	default:
		t.Fatalf("flipStored: no engine behind %T", s)
	}
}

// checkCorrupt asserts what a store holding a corrupt chunk looks like:
// GetChunk on fp returns ErrCorrupt, printed "chunk <fp>: storage: chunk
// corrupt", and no bytes, and so does GetChunkSum; every chunk in intact
// reads back, GetChunkSum handing on the sum stored beside it; the store
// still holds fp, and Usage and ReleaseChunk behave as for a sound chunk, and once released
// fp is an ordinary miss.
func checkCorrupt(t *testing.T, s Store, fp fingerprint.FP, intact ...[]byte) {
	t.Helper()
	bytesBefore, chunksBefore := s.Usage()
	data, err := s.GetChunk(fp)
	if !errors.Is(err, ErrCorrupt) || errors.Is(err, ErrNotFound) || data != nil {
		t.Fatalf("corrupt chunk: %d bytes, %v; want ErrCorrupt alone", len(data), err)
	}
	if data, _, err := s.GetChunkSum(fp); !errors.Is(err, ErrCorrupt) || data != nil {
		t.Fatalf("corrupt chunk: GetChunkSum gives %d bytes, %v; want ErrCorrupt", len(data), err)
	}
	if want := fmt.Sprintf("chunk %s: %v", fp.Short(), ErrCorrupt); err.Error() != want {
		t.Fatalf("corrupt chunk prints %q, want %q", err, want)
	}
	for i, want := range intact {
		fp := fingerprint.Of(want)
		if got, err := s.GetChunk(fp); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("intact chunk %d: %v", i, err)
		}
		if got, sum, err := s.GetChunkSum(fp); err != nil || !bytes.Equal(got, want) || sum != storedSum(t, s, fp) {
			t.Fatalf("intact chunk %d: GetChunkSum gives %d bytes under %08x, %v; want its stored sum", i, len(got), sum, err)
		}
	}
	if !held(s, fp) {
		t.Fatal("the corrupt chunk is not held any more")
	}
	if b, n := s.Usage(); b != bytesBefore || n != chunksBefore {
		t.Fatalf("Usage moved on a corrupt read: %d/%d, was %d/%d", b, n, bytesBefore, chunksBefore)
	}
	if err := s.ReleaseChunk(fp); err != nil {
		t.Fatalf("ReleaseChunk on the corrupt chunk: %v", err)
	}
	if _, err := s.GetChunk(fp); !errors.Is(err, ErrNotFound) || err.Error() != fmt.Sprintf("chunk %s: %v", fp.Short(), ErrNotFound) {
		t.Fatalf("released corrupt chunk: %v, want the usual miss", err)
	}
}

// TestChunkSumCatchesFlippedByte: on every engine, one byte changed in a
// stored chunk fails GetChunk with ErrCorrupt and leaves everything else
// as it was.
func TestChunkSumCatchesFlippedByte(t *testing.T) {
	target, other := segChunk(1, 1024), segChunk(2, 1024)
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			for _, data := range [][]byte{target, other} {
				if err := s.PutChunk(fingerprint.Of(data), data); err != nil {
					t.Fatal(err)
				}
			}
			flipStored(t, s, fingerprint.Of(target))
			checkCorrupt(t, s, fingerprint.Of(target), other)
		})
	}
}

// TestChunkSumCoversFingerprint: an index row that points at another
// chunk's bytes — and that chunk's sum — is caught, because the sum
// covers the fingerprint, not just the bytes.
func TestChunkSumCoversFingerprint(t *testing.T) {
	a, b := segChunk(1, 1024), segChunk(2, 1024)
	fa, fb := fingerprint.Of(a), fingerprint.Of(b)
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			for _, data := range [][]byte{a, b} {
				if err := s.PutChunk(fingerprint.Of(data), data); err != nil {
					t.Fatal(err)
				}
			}
			switch s := s.(type) {
			case *memStore:
				s.index[fa] = s.index[fb]
			case *SegStore:
				if err := s.Commit(); err != nil {
					t.Fatal(err)
				}
				ea, _ := s.entryAtLocked(s.index[fa])
				eb, _ := s.entryAtLocked(s.index[fb])
				ea.Offset, ea.Length, ea.Sum = eb.Offset, eb.Length, eb.Sum
			}
			checkCorrupt(t, s, fa, b)
		})
	}
}

// TestZeroLengthChunk: an empty chunk is stored, counted, read back empty
// and released like any other, and on the segment engine survives a
// reopen with its sum.
func TestZeroLengthChunk(t *testing.T) {
	fp := fingerprint.Of(nil)
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			if err := s.PutChunk(fp, nil); err != nil {
				t.Fatal(err)
			}
			if b, n := s.Usage(); b != 0 || n != 1 {
				t.Fatalf("Usage %d/%d, want 0 bytes / 1 chunk", b, n)
			}
			if seg, ok := s.(*SegStore); ok {
				if err := seg.Close(); err != nil {
					t.Fatal(err)
				}
				reopened, err := NewSegStore(seg.dir, SegConfig{})
				if err != nil {
					t.Fatal(err)
				}
				defer reopened.Close()
				s = reopened
			}
			if got, err := s.GetChunk(fp); err != nil || len(got) != 0 {
				t.Fatalf("empty chunk read back as %d bytes, %v", len(got), err)
			}
			if err := s.ReleaseChunk(fp); err != nil {
				t.Fatal(err)
			}
			if _, err := s.GetChunk(fp); !errors.Is(err, ErrNotFound) {
				t.Fatalf("released empty chunk: %v", err)
			}
		})
	}
}

// TestMemStoreSumSurvivesRepack: a repack moves each chunk's sum with it,
// not a new one, so a byte flipped before the repack is still reported
// after it, and one flipped in the fresh arena is caught too.
func TestMemStoreSumSurvivesRepack(t *testing.T) {
	target, other := segChunk(1, 1024), segChunk(2, 1024)
	fp := fingerprint.Of(target)
	repack := func(t *testing.T, s *memStore) {
		t.Helper()
		sl := s.index[fp]
		before := &s.arenas[sl.arena].buf[sl.off]
		s.mu.Lock()
		s.repackLocked()
		s.mu.Unlock()
		sl = s.index[fp]
		if &s.arenas[sl.arena].buf[sl.off] == before {
			t.Fatal("test premise: the repack did not move the chunk")
		}
	}
	for _, flipFirst := range []bool{true, false} {
		t.Run(fmt.Sprintf("flipped before repack=%v", flipFirst), func(t *testing.T) {
			s := NewMem().(*memStore)
			for _, data := range [][]byte{target, other} {
				if err := s.PutChunk(fingerprint.Of(data), data); err != nil {
					t.Fatal(err)
				}
			}
			if flipFirst {
				flipStored(t, s, fp)
				repack(t, s)
			} else {
				repack(t, s)
				flipStored(t, s, fp)
			}
			checkCorrupt(t, s, fp, other)
		})
	}
}

// TestSegSumAtEveryStage: wherever a segment store keeps a chunk — the
// tail buffer, a written but unsealed segment, a sealed one, a segment
// reopened from disk, a compaction's rewrite — a flipped byte fails its
// read, and a chunk flipped before a compaction is still reported after
// it.
func TestSegSumAtEveryStage(t *testing.T) {
	target, other := segChunk(1, 1024), segChunk(2, 1024)
	garbage := segChunk(3, 16<<10)
	fp := fingerprint.Of(target)
	open := func(t *testing.T, dir string) *SegStore {
		t.Helper()
		s, err := NewSegStore(dir, SegConfig{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		return s
	}
	put := func(t *testing.T, s *SegStore, chunks ...[]byte) {
		t.Helper()
		for _, data := range chunks {
			if err := s.PutChunk(fingerprint.Of(data), data); err != nil {
				t.Fatal(err)
			}
		}
	}
	commit := func(t *testing.T, s *SegStore) {
		t.Helper()
		if err := s.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	// compact makes the segment holding target a victim (its garbage
	// outweighs it) and rewrites it.
	compact := func(t *testing.T, s *SegStore) {
		t.Helper()
		seg := s.index[fp].seg
		if err := s.ReleaseChunk(fingerprint.Of(garbage)); err != nil {
			t.Fatal(err)
		}
		commit(t, s)
		if n, err := s.Compact(); err != nil || n == 0 || s.index[fp].seg == seg {
			t.Fatalf("test premise: compaction rewrote %d segments (%v), target still in %016x: %v", n, err, seg, s.index[fp].seg == seg)
		}
	}
	for _, tc := range []struct {
		name  string
		stage func(t *testing.T, s *SegStore, dir string) *SegStore
	}{
		{"tail buffer", func(t *testing.T, s *SegStore, dir string) *SegStore {
			put(t, s, target, other)
			if s.active.flushed != 0 {
				t.Fatal("test premise: target left the tail buffer")
			}
			flipStored(t, s, fp)
			return s
		}},
		{"written, unsealed", func(t *testing.T, s *SegStore, dir string) *SegStore {
			put(t, s, target, other, segChunk(4, segTailBytes+1))
			if s.active == nil || s.active.flushed <= s.active.entries[0].Offset {
				t.Fatal("test premise: target not written to the active segment")
			}
			flipStored(t, s, fp)
			return s
		}},
		{"sealed", func(t *testing.T, s *SegStore, dir string) *SegStore {
			put(t, s, target, other)
			commit(t, s)
			flipStored(t, s, fp)
			return s
		}},
		{"after reopen", func(t *testing.T, s *SegStore, dir string) *SegStore {
			put(t, s, target, other)
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			flipStored(t, s, fp)
			return open(t, dir)
		}},
		{"after compaction", func(t *testing.T, s *SegStore, dir string) *SegStore {
			put(t, s, target, other, garbage)
			commit(t, s)
			compact(t, s)
			flipStored(t, s, fp)
			return s
		}},
		{"flipped before compaction", func(t *testing.T, s *SegStore, dir string) *SegStore {
			put(t, s, target, other, garbage)
			commit(t, s)
			flipStored(t, s, fp)
			compact(t, s)
			return s
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s := tc.stage(t, open(t, dir), dir)
			checkCorrupt(t, s, fp, other)
		})
	}
}

// TestEntrySizes pins the per-chunk index footprint: memStore keeps its
// sum in the slot (an adopted frame has no room for it behind the
// bytes), and segEntry's field order packs the sum into what was padding.
func TestEntrySizes(t *testing.T) {
	if got := unsafe.Sizeof(slot{}); got != 20 {
		t.Errorf("memStore slot is %d bytes, want 20", got)
	}
	if got := unsafe.Sizeof(segEntry{}); got != 40 {
		t.Errorf("segEntry is %d bytes, want 40", got)
	}
}

// TestChunkSum: the at-rest sum is exactly CRC-32C over fp ‖ data, for
// empty and non-empty chunks, taken by value (chunkSum) or over a
// fingerprint that already lives on the heap (fingerprint.ChunkSum), and
// taking it allocates nothing either way.
func TestChunkSum(t *testing.T) {
	for _, size := range []int{0, 1, 255, 4096} {
		data := segChunk(size, 4096)[:size]
		fp := fingerprint.Of(data)
		want := crc32.Checksum(append(fp[:], data...), crc32.MakeTable(crc32.Castagnoli))
		if got := chunkSum(fp, data); got != want {
			t.Errorf("%d bytes: sum %08x, CRC-32C of fp ‖ data is %08x", size, got, want)
		}
		if allocs := testing.AllocsPerRun(10, func() { chunkSum(fp, data) }); allocs != 0 {
			t.Errorf("%d bytes: chunkSum allocates %.0f times", size, allocs)
		}
		fps := []fingerprint.FP{fp}
		if got := fingerprint.ChunkSum(&fps[0], data); got != want {
			t.Errorf("%d bytes: fingerprint.ChunkSum %08x, CRC-32C of fp ‖ data is %08x", size, got, want)
		}
		if allocs := testing.AllocsPerRun(10, func() { fingerprint.ChunkSum(&fps[0], data) }); allocs != 0 {
			t.Errorf("%d bytes: fingerprint.ChunkSum allocates %.0f times", size, allocs)
		}
	}
}

// TestCheckedReadsAllocate: checking a chunk's sum on a read moves no
// fingerprint to the heap. memStore's GetChunk and GetChunkSum allocate
// nothing; SegStore's allocate only the buffer they return, whether the
// chunk is in the tail buffer or in a sealed segment. A put of a chunk
// already stored allocates nothing in either engine.
func TestCheckedReadsAllocate(t *testing.T) {
	data := segChunk(1, 256)
	fp := fingerprint.Of(data)
	reads := func(t *testing.T, s Store, want float64) {
		t.Helper()
		if allocs := testing.AllocsPerRun(20, func() {
			if _, err := s.GetChunk(fp); err != nil {
				t.Fatal(err)
			}
		}); allocs != want {
			t.Errorf("GetChunk allocates %.0f times, want %.0f", allocs, want)
		}
		if allocs := testing.AllocsPerRun(20, func() {
			if _, _, err := s.GetChunkSum(fp); err != nil {
				t.Fatal(err)
			}
		}); allocs != want {
			t.Errorf("GetChunkSum allocates %.0f times, want %.0f", allocs, want)
		}
	}
	repeat := func(t *testing.T, s Store) {
		t.Helper()
		if allocs := testing.AllocsPerRun(20, func() {
			if err := s.PutChunk(fp, data); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("PutChunk of a stored chunk allocates %.0f times", allocs)
		}
	}
	t.Run("mem", func(t *testing.T) {
		s := NewMem()
		if err := s.PutChunk(fp, data); err != nil {
			t.Fatal(err)
		}
		reads(t, s, 0)
		repeat(t, s)
	})
	t.Run("seg", func(t *testing.T) {
		s := openSeg(t, t.TempDir())
		defer s.Close()
		if err := s.PutChunk(fp, data); err != nil {
			t.Fatal(err)
		}
		reads(t, s, 1)
		repeat(t, s)
		if err := s.Commit(); err != nil {
			t.Fatal(err)
		}
		reads(t, s, 1)
	})
}

// storedSum is the sum fp's slot or row holds.
func storedSum(t *testing.T, s Store, fp fingerprint.FP) uint32 {
	t.Helper()
	switch s := s.(type) {
	case *memStore:
		return s.index[fp].sum
	case *SegStore:
		s.mu.Lock()
		defer s.mu.Unlock()
		e, _ := s.entryAtLocked(s.index[fp])
		return e.Sum
	}
	t.Fatalf("storedSum: no engine behind %T", s)
	return 0
}

// TestGetChunkSum: an engine does not hash what it is given, so a chunk
// put under a fingerprint its bytes do not hash to reads back with its
// stored sum, and Timed forwards that read to the engine as one timed
// read. An empty chunk, which the memory engine keeps no sum for, gets the
// sum CheckSum accepts. (checkCorrupt covers the stored sum of
// intact chunks, and ErrCorrupt for changed ones, wherever each engine
// keeps them.)
func TestGetChunkSum(t *testing.T) {
	data := []byte("bytes that do not hash to the fingerprint")
	fp := fingerprint.Of([]byte("some other chunk"))
	empty := fingerprint.Of(nil)
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			for _, c := range []struct {
				fp   fingerprint.FP
				data []byte
			}{{fp, data}, {empty, nil}} {
				if err := s.PutChunk(c.fp, c.data); err != nil {
					t.Fatal(err)
				}
			}
			timed := NewTimed(s)
			for _, via := range []Store{s, timed} {
				got, sum, err := via.GetChunkSum(fp)
				if err != nil || !bytes.Equal(got, data) || sum != storedSum(t, s, fp) {
					t.Fatalf("%T: %q under %08x, %v; want the stored chunk and sum", via, got, sum, err)
				}
			}
			if n := timed.ReadLatency().Count(); n != 1 {
				t.Fatalf("Timed recorded %d reads for one summed read", n)
			}
			for _, via := range []Store{s, NewTimed(s)} {
				got, sum, err := via.GetChunkSum(empty)
				if err != nil || len(got) != 0 || CheckSum(&empty, got, sum) != nil {
					t.Fatalf("%T: empty chunk is %d bytes under %08x, %v", via, len(got), sum, err)
				}
			}
		})
	}
}

// TestPutKeepsCallerSum: both engines keep the sum a put is handed — by
// PutChunkSum or as Record.Sum through PutRecords, directly or behind
// Timed — as given, without summing the bytes. A wrong one makes every
// read of its chunk ErrCorrupt (GetChunk, GetChunkSum, ReadRecords), in
// the segment store's tail buffer, after a seal and after a reopen, while
// the chunk put with the right one reads back under it.
func TestPutKeepsCallerSum(t *testing.T) {
	good, bad := segChunk(1, 1024), segChunk(2, 1024)
	fps := []fingerprint.FP{fingerprint.Of(good), fingerprint.Of(bad)}
	right, wrong := fingerprint.ChunkSum(&fps[0], good), fingerprint.ChunkSum(&fps[1], bad)^1
	puts := map[string]func(Store) error{
		"PutChunkSum": func(s Store) error {
			if err := s.PutChunkSum(fps[0], good, right); err != nil {
				return err
			}
			return s.PutChunkSum(fps[1], bad, wrong)
		},
		"PutRecords": func(s Store) error {
			recs := []Record{{FP: fps[0], Len: 1024, Sum: right}, {FP: fps[1], Off: 1024, Len: 1024, Sum: wrong}}
			if n, _, err := s.PutRecords(append(append(make([]byte, 0, 2048), good...), bad...), recs); err != nil || n != 2 {
				return fmt.Errorf("PutRecords stored %d of 2: %v", n, err)
			}
			return nil
		},
	}
	seg := func(t *testing.T, dir string) *SegStore {
		s, err := NewSegStore(dir, SegConfig{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		return s
	}
	wraps := map[string]func(Store) Store{
		"engine": func(s Store) Store { return s },
		"Timed":  func(s Store) Store { return NewTimed(s) },
	}
	for putName, put := range puts {
		for _, stage := range []string{"mem", "seg tail buffer", "seg sealed", "seg reopened"} {
			for wrapName, wrap := range wraps {
				t.Run(putName+"/"+stage+"/"+wrapName, func(t *testing.T) {
					dir := t.TempDir()
					s := NewMem()
					if stage != "mem" {
						s = seg(t, dir)
					}
					if err := put(wrap(s)); err != nil {
						t.Fatal(err)
					}
					switch stage {
					case "seg tail buffer":
						if a := s.(*SegStore).active; a == nil || a.flushed != 0 {
							t.Fatal("test premise: the chunks left the tail buffer")
						}
					case "seg sealed", "seg reopened":
						if err := s.(*SegStore).Commit(); err != nil {
							t.Fatal(err)
						}
					}
					if stage == "seg reopened" {
						if err := s.(*SegStore).Close(); err != nil {
							t.Fatal(err)
						}
						s = seg(t, dir)
					}
					dst, errs := make([]byte, 2048), make([]error, 2)
					NewTimed(s).ReadRecords(dst, []Record{{FP: fps[0], Len: 1024}, {FP: fps[1], Off: 1024, Len: 1024}}, errs)
					if errs[0] != nil || !bytes.Equal(dst[:1024], good) {
						t.Fatalf("ReadRecords of the chunk put with its sum: %v", errs[0])
					}
					if !errors.Is(errs[1], ErrCorrupt) {
						t.Fatalf("ReadRecords of the chunk put with a wrong sum: %v, want ErrCorrupt", errs[1])
					}
					if _, sum, err := s.GetChunkSum(fps[0]); err != nil || sum != right {
						t.Fatalf("chunk put with its sum reads back under %08x (%v), want %08x", sum, err, right)
					}
					checkCorrupt(t, s, fps[1], good)
				})
			}
		}
	}
}

// TestPutRecordsMatchesPerRecordPuts: on both engines, directly and behind
// Timed, one PutRecords stores what one PutChunkSum per record stores on
// a twin store — the same count and error, Usage, references, and bytes
// and sums read back — and Timed records the batch as one write. The
// batches, each on top of the ones before, fill and cross the segment
// store's tail buffer, carry a record larger than it, repeat chunks of
// their own and of earlier batches, span enough new bytes to be written
// straight from the payload and seal the segment once stored, meet a write
// error midway (the segment store's active file closed under a batch that
// goes through the tail buffer, after a commit left both twins with the
// same tail: the records before the one that failed are stored, and
// counted), and race a Fail, which lands before the batch or after it,
// never inside.
func TestPutRecordsMatchesPerRecordPuts(t *testing.T) {
	type chunk struct{ id, size int }
	run := func(n, size, from int) []chunk {
		out := make([]chunk, n)
		for i := range out {
			out[i] = chunk{from + i, size}
		}
		return out
	}
	batches := []struct {
		name   string
		chunks []chunk
		commit bool // both twins commit first
	}{
		{"fills the tail buffer", run(2, 40<<10, 1), false},
		{"crosses the tail buffer", run(2, 40<<10, 3), false},
		{"record larger than the tail buffer", []chunk{{5, 1 << 10}, {6, 200 << 10}, {7, 1 << 10}}, false},
		{"repeats", []chunk{{8, 3 << 10}, {8, 3 << 10}, {1, 40 << 10}, {9, 0}, {9, 0}}, false},
		{"span write seals", run(8, 50<<10, 10), false},
		{"tail after a commit", run(1, 40<<10, 60), true},
		{"write error midway", run(20, 6<<10, 20), false},
		{"Fail during the batch", run(4, 1<<10, 40), false},
	}
	type store struct {
		Store
		seg   *SegStore
		timed *Timed
	}
	open := func(t *testing.T, engine string) store {
		var s store
		s.Store = NewMem()
		if strings.HasPrefix(engine, "seg") {
			seg, err := NewSegStore(t.TempDir(), SegConfig{SegmentTarget: 300 << 10})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { seg.Close() })
			s.Store, s.seg = seg, seg
		}
		if strings.HasSuffix(engine, "timed") {
			s.timed = NewTimed(s.Store)
			s.Store = s.timed
		}
		return s
	}
	// sameClass compares errors whose text names each store's own files.
	sameClass := func(a, b error) bool {
		return (a == nil) == (b == nil) && errors.Is(a, ErrFailed) == errors.Is(b, ErrFailed) &&
			errors.Is(a, ErrNotFound) == errors.Is(b, ErrNotFound) && errors.Is(a, os.ErrClosed) == errors.Is(b, os.ErrClosed)
	}
	for _, engine := range []string{"mem", "mem, timed", "seg", "seg, timed"} {
		t.Run(engine, func(t *testing.T) {
			batch, single := open(t, engine), open(t, engine)
			var fps []fingerprint.FP
			for _, b := range batches {
				var payload []byte
				recs := make([]Record, len(b.chunks))
				for i, c := range b.chunks {
					data := segChunk(c.id, max(c.size, 2))[:c.size]
					fp := fingerprint.Of(data)
					recs[i] = Record{FP: fp, Off: int32(len(payload)), Len: int32(c.size), Sum: fingerprint.ChunkSum(&fp, data)}
					payload = append(payload, data...)
					fps = append(fps, fp)
				}
				perRecord := func() (n int, err error) {
					for _, r := range recs {
						if err = single.PutChunkSum(r.FP, payload[r.Off:r.Off+r.Len], r.Sum); err != nil {
							return n, err
						}
						n++
					}
					return n, nil
				}
				if b.commit {
					if err := batch.Commit(); err != nil {
						t.Fatal(err)
					}
					if err := single.Commit(); err != nil {
						t.Fatal(err)
					}
				}
				var seals, writes int64
				if batch.seg != nil {
					seals = batch.seg.Stats().Seals
				}
				if batch.timed != nil {
					writes = batch.timed.WriteLatency().Count()
				}
				var bn, sn int
				var berr, serr error
				switch b.name {
				case "write error midway":
					if batch.seg == nil {
						continue
					}
					batch.seg.active.f.Close()
					single.seg.active.f.Close()
					bn, _, berr = batch.PutRecords(payload, recs)
					sn, serr = perRecord()
					if bn == 0 || bn == len(recs) {
						t.Fatalf("test premise: the write error stopped the batch after %d of %d records", bn, len(recs))
					}
				case "Fail during the batch":
					done := make(chan struct{})
					go func() {
						defer close(done)
						bn, _, berr = batch.PutRecords(payload, recs)
					}()
					batch.Fail()
					<-done
					if bn == len(recs) {
						sn, serr = perRecord()
						single.Fail()
					} else {
						single.Fail()
						sn, serr = perRecord()
					}
					if bn != 0 && bn != len(recs) {
						t.Fatalf("Fail landed inside the batch: %d of %d records stored", bn, len(recs))
					}
				default:
					bn, _, berr = batch.PutRecords(payload, recs)
					sn, serr = perRecord()
				}
				if bn != sn || !sameClass(berr, serr) {
					t.Fatalf("%s: the batch stored %d (%v), one put per record %d (%v)", b.name, bn, berr, sn, serr)
				}
				if batch.timed != nil && batch.timed.WriteLatency().Count() != writes+1 {
					t.Fatalf("%s: the batch recorded %d write samples, want 1", b.name, batch.timed.WriteLatency().Count()-writes)
				}
				if b.name == "span write seals" && batch.seg != nil && (batch.seg.Stats().Seals != seals+1 || batch.seg.active != nil) {
					t.Fatalf("test premise: the span write sealed %d segments, leaving an active one: %v", batch.seg.Stats().Seals-seals, batch.seg.active != nil)
				}
				bb, bc := batch.Usage()
				if sb, sc := single.Usage(); bb != sb || bc != sc {
					t.Fatalf("%s: Usage %d bytes / %d chunks after the batch, %d / %d after one put per record", b.name, bb, bc, sb, sc)
				}
				for _, fp := range fps {
					bd, bs, berr := batch.GetChunkSum(fp)
					sd, ss, serr := single.GetChunkSum(fp)
					if refsOf(batch.Store, fp) != refsOf(single.Store, fp) || !bytes.Equal(bd, sd) || bs != ss || !sameClass(berr, serr) {
						t.Fatalf("%s: chunk %s reads back %d bytes under %08x (%v) after the batch, %d under %08x (%v) after one put per record",
							b.name, fp.Short(), len(bd), bs, berr, len(sd), ss, serr)
					}
				}
			}
		})
	}
}
