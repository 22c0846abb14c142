package storage

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"dedupcr/internal/fingerprint"
)

// segChunk builds deterministic chunk content for index i.
func segChunk(i, size int) []byte {
	buf := make([]byte, size)
	for j := range buf {
		buf[j] = byte(i*131 + j*7)
	}
	buf[0] = byte(i)
	buf[1] = byte(i >> 8)
	return buf
}

// openSeg opens a segment store with a small seal threshold so tests
// exercise multi-segment layouts without large writes.
func openSeg(t *testing.T, dir string) *SegStore {
	t.Helper()
	s, err := NewSegStore(dir, SegConfig{SegmentTarget: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSegReopenRestoresCommittedState(t *testing.T) {
	dir := t.TempDir()
	s := openSeg(t, dir)
	const n = 32
	for i := 0; i < n; i++ {
		data := segChunk(i, 1024)
		if err := s.PutChunk(fingerprint.Of(data), data); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.PutBlob("ds/meta", []byte("recipe")); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	wantBytes, wantChunks := s.Usage()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r := openSeg(t, dir)
	defer r.Close()
	gotBytes, gotChunks := r.Usage()
	if gotBytes != wantBytes || gotChunks != wantChunks {
		t.Fatalf("reopened usage = %d/%d, want %d/%d", gotBytes, gotChunks, wantBytes, wantChunks)
	}
	for i := 0; i < n; i++ {
		data := segChunk(i, 1024)
		got, err := r.GetChunk(fingerprint.Of(data))
		if err != nil {
			t.Fatalf("chunk %d: %v", i, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("chunk %d not byte-identical after reopen", i)
		}
	}
	blob, err := r.GetBlob("ds/meta")
	if err != nil || !bytes.Equal(blob, []byte("recipe")) {
		t.Fatalf("blob after reopen = %q, %v", blob, err)
	}
}

func TestSegUncommittedInvisibleAfterReopen(t *testing.T) {
	dir := t.TempDir()
	s := openSeg(t, dir)
	committed := segChunk(0, 1024)
	if err := s.PutChunk(fingerprint.Of(committed), committed); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	// Appended after the commit and never committed: spans both the
	// unsealed tail and (because of the small target) auto-sealed but
	// unnamed segments. A crash now must lose exactly these.
	for i := 1; i <= 12; i++ {
		data := segChunk(i, 1024)
		if err := s.PutChunk(fingerprint.Of(data), data); err != nil {
			t.Fatal(err)
		}
	}
	// Simulate the kill: reopen the directory without Close (Close would
	// commit the tail).
	r := openSeg(t, dir)
	defer r.Close()
	if got, err := r.GetChunk(fingerprint.Of(committed)); err != nil || !bytes.Equal(got, committed) {
		t.Fatalf("committed chunk after reopen: %q, %v", got, err)
	}
	for i := 1; i <= 12; i++ {
		if held(r, fingerprint.Of(segChunk(i, 1024))) {
			t.Fatalf("uncommitted chunk %d visible after reopen", i)
		}
	}
	if _, chunks := r.Usage(); chunks != 1 {
		t.Fatalf("reopened store has %d chunks, want 1", chunks)
	}
}

func TestSegRefcountsSurviveReopen(t *testing.T) {
	dir := t.TempDir()
	s := openSeg(t, dir)
	data := segChunk(7, 512)
	fp := fingerprint.Of(data)
	if err := s.PutChunk(fp, data); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	// Second reference lands after sealing: the refcount drift must
	// travel in the manifest's override column, not the immutable index.
	if err := s.PutChunk(fp, data); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r := openSeg(t, dir)
	defer r.Close()
	if err := r.ReleaseChunk(fp); err != nil {
		t.Fatal(err)
	}
	if !held(r, fp) {
		t.Fatal("chunk deleted after releasing one of two references")
	}
	if err := r.ReleaseChunk(fp); err != nil {
		t.Fatal(err)
	}
	if held(r, fp) {
		t.Fatal("chunk survived releasing both references")
	}
}

// TestSegCompactReclaims is the GC acceptance test: a churn that
// tombstones most of the store must get >=90% of those bytes back.
func TestSegCompactReclaims(t *testing.T) {
	dir := t.TempDir()
	s := openSeg(t, dir)
	defer s.Close()
	const n, size = 64, 1024
	fps := make([]fingerprint.FP, n)
	for i := 0; i < n; i++ {
		data := segChunk(i, size)
		fps[i] = fingerprint.Of(data)
		if err := s.PutChunk(fps[i], data); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	// Release 75% — every fourth chunk survives, so most segments are
	// mixed live/dead and compaction must copy, not just drop.
	for i := 0; i < n; i++ {
		if i%4 == 0 {
			continue
		}
		if err := s.ReleaseChunk(fps[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.TombstonedBytes == 0 {
		t.Fatal("churn produced no tombstoned bytes")
	}
	if r := st.ReclaimRatio(); r < 0.9 {
		t.Fatalf("compaction reclaimed %.3f of tombstoned bytes, want >= 0.9 (stats %+v)", r, st)
	}
	// Survivors must still read back byte-identical from the rewritten
	// segments.
	for i := 0; i < n; i += 4 {
		got, err := s.GetChunk(fps[i])
		if err != nil || !bytes.Equal(got, segChunk(i, size)) {
			t.Fatalf("survivor %d after compaction: %v", i, err)
		}
	}
	// And the on-disk footprint must reflect the reclaim.
	if st.DataBytes >= n*size {
		t.Fatalf("on-disk payload %d bytes after compaction, want < %d", st.DataBytes, n*size)
	}
	// The compacted state must survive a reopen.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r := openSeg(t, dir)
	defer r.Close()
	for i := 0; i < n; i += 4 {
		if got, err := r.GetChunk(fps[i]); err != nil || !bytes.Equal(got, segChunk(i, size)) {
			t.Fatalf("survivor %d after compaction+reopen: %v", i, err)
		}
	}
}

func TestSegAutoCompact(t *testing.T) {
	dir := t.TempDir()
	s, err := NewSegStore(dir, SegConfig{
		SegmentTarget: 4 << 10, AutoCompact: true, CompactEvery: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const n = 32
	fps := make([]fingerprint.FP, n)
	for i := 0; i < n; i++ {
		data := segChunk(i, 1024)
		fps[i] = fingerprint.Of(data)
		if err := s.PutChunk(fps[i], data); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	for _, fp := range fps {
		if err := s.ReleaseChunk(fp); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := s.Stats()
		if st.Compactions > 0 && st.GarbageBytes == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("background compactor never reclaimed: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestSegManifestCorruptionDetected(t *testing.T) {
	dir := t.TempDir()
	s := openSeg(t, dir)
	data := segChunk(1, 512)
	if err := s.PutChunk(fingerprint.Of(data), data); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, manifestName)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewSeg(dir); err == nil {
		t.Fatal("corrupted manifest opened without error")
	}
}

func TestSegIndexCorruptionDetected(t *testing.T) {
	dir := t.TempDir()
	s := openSeg(t, dir)
	data := segChunk(2, 512)
	if err := s.PutChunk(fingerprint.Of(data), data); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	matches, err := filepath.Glob(filepath.Join(dir, "segments", "*.idx"))
	if err != nil || len(matches) == 0 {
		t.Fatalf("no index files: %v", err)
	}
	raw, err := os.ReadFile(matches[0])
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(matches[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewSeg(dir); err == nil {
		t.Fatal("corrupted segment index opened without error")
	}
}

func TestSegFailSemantics(t *testing.T) {
	dir := t.TempDir()
	s := openSeg(t, dir)
	data := segChunk(3, 512)
	fp := fingerprint.Of(data)
	if err := s.PutChunk(fp, data); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	s.Fail()
	if err := s.PutChunk(fp, data); !errors.Is(err, ErrFailed) {
		t.Fatalf("put after Fail = %v, want ErrFailed", err)
	}
	if err := s.Commit(); !errors.Is(err, ErrFailed) {
		t.Fatalf("commit after Fail = %v, want ErrFailed", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// A failed node replaced with a blank store starts empty.
	r := openSeg(t, dir)
	defer r.Close()
	if _, chunks := r.Usage(); chunks != 0 {
		t.Fatalf("store reopened after Fail has %d chunks, want 0", chunks)
	}
}

func TestSegCommitHelperUnwrapsWrappers(t *testing.T) {
	dir := t.TempDir()
	s := openSeg(t, dir)
	defer s.Close()
	data := segChunk(4, 512)
	timed := NewTimed(s)
	if err := timed.PutChunk(fingerprint.Of(data), data); err != nil {
		t.Fatal(err)
	}
	if err := Commit(timed); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().Commits; got != 1 {
		t.Fatalf("Commit through Timed reached the engine %d times, want 1", got)
	}
	// And engines without a commit point are a clean no-op.
	if err := Commit(NewMem()); err != nil {
		t.Fatalf("Commit on mem store = %v", err)
	}
}

func TestSegStatsOf(t *testing.T) {
	dir := t.TempDir()
	s := openSeg(t, dir)
	defer s.Close()
	if _, ok := SegStatsOf(NewMem()); ok {
		t.Fatal("SegStatsOf claimed a mem store is segment-backed")
	}
	st, ok := SegStatsOf(NewTimed(s))
	if !ok {
		t.Fatal("SegStatsOf failed to unwrap Timed")
	}
	if st.Segments != 0 {
		t.Fatalf("fresh store reports %d segments", st.Segments)
	}
}

// TestSegManyCheckpoints drives a longer dump/forget churn through the
// engine — the "holds many checkpoints cheaply" claim — and checks the
// store converges instead of growing without bound.
func TestSegManyCheckpoints(t *testing.T) {
	dir := t.TempDir()
	s := openSeg(t, dir)
	defer s.Close()
	live := make(map[int][]fingerprint.FP)
	for ck := 0; ck < 10; ck++ {
		var fps []fingerprint.FP
		for i := 0; i < 16; i++ {
			data := segChunk(ck*16+i, 1024)
			fp := fingerprint.Of(data)
			if err := s.PutChunk(fp, data); err != nil {
				t.Fatal(err)
			}
			fps = append(fps, fp)
		}
		if err := s.PutBlob(fmt.Sprintf("ck%d/meta", ck), []byte{byte(ck)}); err != nil {
			t.Fatal(err)
		}
		if err := s.Commit(); err != nil {
			t.Fatal(err)
		}
		live[ck] = fps
		if old := ck - 2; old >= 0 {
			for _, fp := range live[old] {
				if err := s.ReleaseChunk(fp); err != nil {
					t.Fatal(err)
				}
			}
			delete(live, old)
			if err := s.Commit(); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Compact(); err != nil {
				t.Fatal(err)
			}
		}
	}
	st := s.Stats()
	if r := st.ReclaimRatio(); r < 0.9 {
		t.Fatalf("churn reclaim ratio %.3f, want >= 0.9", r)
	}
	for ck, fps := range live {
		for i, fp := range fps {
			got, err := s.GetChunk(fp)
			if err != nil || !bytes.Equal(got, segChunk(ck*16+i, 1024)) {
				t.Fatalf("checkpoint %d chunk %d after churn: %v", ck, i, err)
			}
		}
	}
}

// TestSegTailBuffersAppends covers the append buffer: chunks are readable
// while they exist only in memory, a chunk larger than the buffer goes to
// the file behind the bytes that precede it, a row released before the
// seal is dropped by it, and the committed state reopens byte-identically.
func TestSegTailBuffersAppends(t *testing.T) {
	dir := t.TempDir()
	// Default 4 MiB target: nothing seals before the Commit below.
	s, err := NewSegStore(dir, SegConfig{})
	if err != nil {
		t.Fatal(err)
	}
	put := func(s *SegStore, data []byte) {
		t.Helper()
		if err := s.PutChunk(fingerprint.Of(data), data); err != nil {
			t.Fatal(err)
		}
	}
	mustGet := func(s *SegStore, label string, data []byte) {
		t.Helper()
		got, err := s.GetChunk(fingerprint.Of(data))
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("%s not byte-identical", label)
		}
	}

	const small = 8
	for i := 0; i < small; i++ {
		put(s, segChunk(i, 1024))
	}
	if s.active.flushed != 0 || len(s.tail) != small*1024 {
		t.Fatalf("after %d small appends: %d bytes written, %d buffered; want 0 and %d",
			small, s.active.flushed, len(s.tail), small*1024)
	}
	for i := 0; i < small; i++ {
		mustGet(s, fmt.Sprintf("buffered chunk %d", i), segChunk(i, 1024))
	}

	// Released while still buffered: dead by the time the segment seals.
	dead := segChunk(3, 1024)
	if err := s.ReleaseChunk(fingerprint.Of(dead)); err != nil {
		t.Fatal(err)
	}

	// Larger than the buffer: the buffered bytes are flushed first, the
	// chunk follows them in the file, and the next small chunk is
	// buffered again behind it.
	big := segChunk(77, segTailBytes+4096)
	put(s, big)
	if want := uint64(small*1024 + len(big)); s.active.flushed != want || len(s.tail) != 0 {
		t.Fatalf("after the oversize append: %d bytes written, %d buffered; want %d and 0",
			s.active.flushed, len(s.tail), want)
	}
	after := segChunk(78, 1024)
	put(s, after)
	mustGet(s, "oversize chunk", big)
	mustGet(s, "chunk buffered behind the oversize one", after)
	mustGet(s, "flushed chunk 0", segChunk(0, 1024))

	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if len(s.sealed) != 1 {
		t.Fatalf("%d sealed segments after commit, want 1", len(s.sealed))
	}
	for _, sf := range s.sealed {
		if len(sf.entries) != small-1+2 {
			t.Errorf("sealed segment has %d rows, want %d (the released row dropped)", len(sf.entries), small-1+2)
		}
		if want := uint64(small*1024 + len(big) + len(after)); sf.dataLen != want {
			t.Errorf("sealed segment holds %d payload bytes, want %d", sf.dataLen, want)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := NewSegStore(dir, SegConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for i := 0; i < small; i++ {
		if i == 3 {
			if held(r, fingerprint.Of(dead)) {
				t.Error("released chunk live after reopen")
			}
			continue
		}
		mustGet(r, fmt.Sprintf("chunk %d after reopen", i), segChunk(i, 1024))
	}
	mustGet(r, "oversize chunk after reopen", big)
	mustGet(r, "last chunk after reopen", after)
}

// frameOf lays chunks out as a landed put frame does: a 4-byte header
// before each, so that the headers fall inside any span of them.
func frameOf(chunks [][]byte) ([]byte, []Record) {
	var payload []byte
	recs := make([]Record, len(chunks))
	for i, c := range chunks {
		payload = append(payload, 0, 0, 0, byte(i))
		fp := fingerprint.Of(c)
		recs[i] = Record{FP: fp, Off: int32(len(payload)), Len: int32(len(c)), Sum: fingerprint.ChunkSum(&fp, c)}
		payload = append(payload, c...)
	}
	return payload, recs
}

// TestSegSpanWrites covers a batch written straight from its payload: no
// positional write of segment data — tail flushes, oversize chunks, spans
// and compaction copies — exceeds segTailBytes; the headers and the
// repeated chunk inside the span are the active segment's garbage; the
// segment seals once the run is stored, not before; the store never
// keeps the payload; and a write that fails inside the span stores the
// records wholly written before it and nothing after, the next append
// going where the last stored record ends.
func TestSegSpanWrites(t *testing.T) {
	dir := t.TempDir()
	s, err := NewSegStore(dir, SegConfig{SegmentTarget: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var writes []int
	failAt := -1 // the index of the write that fails, if any
	s.writeAt = func(f *os.File, p []byte, off int64) (int, error) {
		writes = append(writes, len(p))
		if len(writes)-1 == failAt {
			return 0, errors.New("injected write failure")
		}
		return f.WriteAt(p, off)
	}
	mustGet := func(label string, data []byte) {
		t.Helper()
		if got, err := s.GetChunk(fingerprint.Of(data)); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("%s: %d bytes, %v", label, len(got), err)
		}
	}

	// A frame of 40 KiB chunks, one of them twice: 10 records, 9 new.
	var chunks [][]byte
	for i := 0; i < 9; i++ {
		chunks = append(chunks, segChunk(i, 40<<10))
	}
	chunks = append(chunks[:5], append([][]byte{chunks[2]}, chunks[5:]...)...)
	head := segChunk(100, 1<<10)
	if err := s.PutChunk(fingerprint.Of(head), head); err != nil {
		t.Fatal(err)
	}
	payload, recs := frameOf(chunks)
	n, kept, err := s.PutRecords(payload, recs)
	if err != nil || n != len(recs) || kept {
		t.Fatalf("span batch stored %d of %d, kept %v: %v", n, len(recs), kept, err)
	}
	span := len(payload) - 4 // from the first record to the end of the last
	if want := 1 + (span+segTailBytes-1)/segTailBytes; len(writes) != want {
		t.Fatalf("the tail flush and the span took %d writes (%v), want %d", len(writes), writes, want)
	}
	st := s.Stats()
	if want := int64(len(recs)*4 - 4 + 40<<10); st.GarbageBytes != want {
		t.Errorf("active garbage after the span: %d bytes, want %d (headers and the repeat)", st.GarbageBytes, want)
	}
	if st.DataBytes != st.LiveBytes+st.GarbageBytes || st.Seals != 0 {
		t.Errorf("after the span: %d data bytes, %d live, %d garbage, %d seals", st.DataBytes, st.LiveBytes, st.GarbageBytes, st.Seals)
	}
	for i, c := range chunks {
		mustGet(fmt.Sprintf("span chunk %d", i), c)
	}
	if refsOf(s, fingerprint.Of(chunks[2])) != 2 {
		t.Errorf("the repeated chunk holds %d references, want 2", refsOf(s, fingerprint.Of(chunks[2])))
	}

	// An oversize chunk goes to the file in pieces too.
	big := segChunk(200, 2*segTailBytes+5)
	if err := s.PutChunk(fingerprint.Of(big), big); err != nil {
		t.Fatal(err)
	}
	mustGet("oversize chunk", big)

	// This span crosses SegmentTarget: the segment seals once, after it.
	var more [][]byte
	for i := 0; i < 16; i++ {
		more = append(more, segChunk(300+i, 40<<10))
	}
	payload, recs = frameOf(more)
	if n, _, err := s.PutRecords(payload, recs); err != nil || n != len(recs) {
		t.Fatalf("second span stored %d of %d: %v", n, len(recs), err)
	}
	if st := s.Stats(); st.Seals != 1 || s.active != nil {
		t.Fatalf("after a span crossing the target: %d seals, active segment left: %v; want 1 and none", st.Seals, s.active != nil)
	}

	// The second write of a span fails: the records wholly inside the first
	// are stored, the rest are not, and the next put lands behind them.
	var last [][]byte
	for i := 0; i < 8; i++ {
		last = append(last, segChunk(400+i, 40<<10))
	}
	payload, recs = frameOf(last)
	failAt = len(writes) + 1
	n, _, err = s.PutRecords(payload, recs)
	failAt = -1
	wantN := 0
	for _, r := range recs {
		if int(r.Off)-4+int(r.Len) <= segTailBytes {
			wantN++
		}
	}
	if err == nil || n != wantN || wantN == 0 {
		t.Fatalf("span with its second write failing stored %d, want %d: %v", n, wantN, err)
	}
	for i, c := range last {
		if i < n {
			mustGet(fmt.Sprintf("chunk %d before the failed write", i), c)
		} else if held(s, fingerprint.Of(c)) {
			t.Fatalf("chunk %d, after the failed write, is held", i)
		}
	}
	after := segChunk(500, 1<<10)
	if err := s.PutChunk(fingerprint.Of(after), after); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.DataBytes != st.LiveBytes+st.GarbageBytes {
		t.Errorf("after the failed span: %d data bytes, %d live, %d garbage", st.DataBytes, st.LiveBytes, st.GarbageBytes)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	for _, c := range chunks[:6] {
		if err := s.ReleaseChunk(fingerprint.Of(c)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	for i, w := range writes {
		if w > segTailBytes {
			t.Fatalf("write %d of %d wrote %d bytes, more than segTailBytes (%d)", i, len(writes), w, segTailBytes)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r := openSeg(t, dir)
	defer r.Close()
	for i, c := range append(append(chunks[6:], more...), append(last[:n], big, head, after)...) {
		if got, err := r.GetChunk(fingerprint.Of(c)); err != nil || !bytes.Equal(got, c) {
			t.Fatalf("chunk %d after reopen: %v", i, err)
		}
	}
}

// TestSegRedumpWritesOnlyNewBytes: a batch landing on a store that holds
// most of its chunks — an incremental checkpoint, re-dumped onto the
// previous one — writes its new chunks and nothing else. One frame of 256
// 4 KiB chunks is stored; a second frame holds the same chunks but for
// every 20th, which is new, and writes exactly those 13 through the tail,
// adding no garbage. A third frame holds two dense runs of new chunks
// apart from each other by a held one: each run goes straight from the
// payload, its record headers its only garbage.
func TestSegRedumpWritesOnlyNewBytes(t *testing.T) {
	s, err := NewSegStore(t.TempDir(), SegConfig{SegmentTarget: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	written := 0
	s.writeAt = func(f *os.File, p []byte, off int64) (int, error) {
		written += len(p)
		return f.WriteAt(p, off)
	}
	const n, size = 256, 4 << 10
	chunks := make([][]byte, n)
	for i := range chunks {
		chunks[i] = segChunk(i, size)
	}
	payload, recs := frameOf(chunks)
	if n, _, err := s.PutRecords(payload, recs); err != nil || n != len(recs) {
		t.Fatalf("first frame stored %d of %d: %v", n, len(recs), err)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	before, garbage := written, s.Stats().GarbageBytes

	fresh := 0
	for i := 0; i < n; i += 20 {
		chunks[i] = segChunk(1000+i, size)
		fresh++
	}
	payload, recs = frameOf(chunks)
	if n, _, err := s.PutRecords(payload, recs); err != nil || n != len(recs) {
		t.Fatalf("incremental frame stored %d of %d: %v", n, len(recs), err)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := written - before; got != fresh*size {
		t.Errorf("the incremental frame wrote %d bytes, want its %d new chunks' %d", got, fresh, fresh*size)
	}
	if st := s.Stats(); st.GarbageBytes != garbage {
		t.Errorf("the incremental frame added %d bytes of garbage, want none", st.GarbageBytes-garbage)
	}
	for i, c := range chunks {
		if got, err := s.GetChunk(fingerprint.Of(c)); err != nil || !bytes.Equal(got, c) {
			t.Fatalf("chunk %d after the incremental frame: %v", i, err)
		}
	}

	// Two runs of 64 new chunks, 256 KiB each, with a held chunk between.
	var two [][]byte
	for i := 0; i < 128; i++ {
		if i == 64 {
			two = append(two, chunks[1])
		}
		two = append(two, segChunk(5000+i, size))
	}
	before, garbage = written, s.Stats().GarbageBytes
	payload, recs = frameOf(two)
	if n, _, err := s.PutRecords(payload, recs); err != nil || n != len(recs) {
		t.Fatalf("two-run frame stored %d of %d: %v", n, len(recs), err)
	}
	headers := 2 * 63 * 4 // between the records of each run
	if got, want := written-before, 128*size+headers; got != want {
		t.Errorf("the two runs wrote %d bytes, want %d: their chunks and the headers between them", got, want)
	}
	if got := s.Stats().GarbageBytes - garbage; got != int64(headers) {
		t.Errorf("the two runs added %d bytes of garbage, want their %d header bytes", got, headers)
	}
	if refsOf(s, fingerprint.Of(chunks[1])) != 3 {
		t.Errorf("the held chunk between the runs holds %d references, want 3", refsOf(s, fingerprint.Of(chunks[1])))
	}
}

// TestSegSealSyncFailureFailsCommit injects a failing data fsync into the
// seals of an uncommitted checkpoint: the next Commit must fail without
// writing a manifest, so does every later one (the failure is sticky),
// and the directory reopens to the previous checkpoint.
func TestSegSealSyncFailureFailsCommit(t *testing.T) {
	dir := t.TempDir()
	s := openSeg(t, dir)
	base := segChunk(0, 1024)
	if err := s.PutChunk(fingerprint.Of(base), base); err != nil {
		t.Fatal(err)
	}
	if err := s.PutBlob("ck/meta", []byte("one")); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	manifest, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}

	injected := errors.New("injected fsync failure")
	s.syncData = func(*os.File) error { return injected }
	for i := 1; i <= 12; i++ {
		data := segChunk(i, 1024)
		if err := s.PutChunk(fingerprint.Of(data), data); err != nil {
			t.Fatalf("put %d: %v; a seal's sync must not fail the put", i, err)
		}
	}
	if got := s.Stats().Seals; got < 3 {
		t.Fatalf("%d seals, want the puts to seal at least twice after the commit", got)
	}
	if err := s.PutBlob("ck/meta", []byte("two")); err != nil {
		t.Fatal(err)
	}
	for try := 0; try < 2; try++ {
		if err := s.Commit(); !errors.Is(err, injected) {
			t.Fatalf("commit %d after a failed seal sync = %v, want the injected error", try, err)
		}
	}
	if err := s.Close(); !errors.Is(err, injected) {
		t.Fatalf("close after a failed seal sync = %v, want the injected error", err)
	}
	if now, err := os.ReadFile(filepath.Join(dir, manifestName)); err != nil || !bytes.Equal(now, manifest) {
		t.Fatalf("manifest changed after failed commits (err %v)", err)
	}

	r := openSeg(t, dir)
	defer r.Close()
	if _, chunks := r.Usage(); chunks != 1 {
		t.Fatalf("reopened store has %d chunks, want the previous checkpoint's 1", chunks)
	}
	if got, err := r.GetBlob("ck/meta"); err != nil || string(got) != "one" {
		t.Fatalf("blob after reopen = %q, %v; want the previous checkpoint's", got, err)
	}
}

// TestSegCloseWaitsForSyncs holds every seal's data fsync until released:
// puts must not wait for them, and Close — after Fail or on a healthy
// store — must not return while one is in flight, nor leave a goroutine
// behind.
func TestSegCloseWaitsForSyncs(t *testing.T) {
	for _, fail := range []bool{false, true} {
		t.Run(fmt.Sprintf("fail=%v", fail), func(t *testing.T) {
			before := runtime.NumGoroutine()
			s := openSeg(t, t.TempDir())
			release := make(chan struct{})
			s.syncData = func(f *os.File) error {
				<-release
				return f.Sync()
			}
			for i := 0; i < 12; i++ {
				data := segChunk(i, 1024)
				if err := s.PutChunk(fingerprint.Of(data), data); err != nil {
					t.Fatal(err)
				}
			}
			if fail {
				s.Fail()
			}
			closed := make(chan error, 1)
			go func() { closed <- s.Close() }()
			select {
			case err := <-closed:
				t.Fatalf("Close returned (%v) while seal syncs were held", err)
			case <-time.After(20 * time.Millisecond):
			}
			close(release)
			if err := <-closed; err != nil {
				t.Fatal(err)
			}
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > before {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines after Close, %d before the store opened", runtime.NumGoroutine(), before)
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}

// TestSegCompactionPublishesOnlyCommittedBlobs compacts while a blob
// version is staged: the compaction manifest must keep naming the
// committed version, and a reopen without Close must read that version
// back and delete the staged file. A commit deletes the version it
// supersedes.
func TestSegCompactionPublishesOnlyCommittedBlobs(t *testing.T) {
	dir := t.TempDir()
	s := openSeg(t, dir)
	var fps []fingerprint.FP
	for i := 0; i < 8; i++ {
		data := segChunk(i, 1024)
		fps = append(fps, fingerprint.Of(data))
		if err := s.PutChunk(fps[i], data); err != nil {
			t.Fatal(err)
		}
	}
	blobFiles := func(want int) {
		t.Helper()
		files, err := filepath.Glob(filepath.Join(dir, "blobs", "ds", "*"))
		if err != nil || len(files) != want {
			t.Fatalf("blob files: %v, %v; want %d", files, err, want)
		}
	}
	for _, v := range []string{"superseded", "committed"} {
		if err := s.PutBlob("ds/meta", []byte(v)); err != nil {
			t.Fatal(err)
		}
		if err := s.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	blobFiles(1)
	if err := s.PutBlob("ds/meta", []byte("staged")); err != nil {
		t.Fatal(err)
	}
	for _, fp := range fps[:6] {
		if err := s.ReleaseChunk(fp); err != nil {
			t.Fatal(err)
		}
	}
	if n, err := s.Compact(); err != nil || n == 0 {
		t.Fatalf("compact = %d, %v; want victims rewritten", n, err)
	}
	if got, err := s.GetBlob("ds/meta"); err != nil || string(got) != "staged" {
		t.Fatalf("own staged blob = %q, %v", got, err)
	}

	r := openSeg(t, dir)
	defer r.Close()
	if got, err := r.GetBlob("ds/meta"); err != nil || string(got) != "committed" {
		t.Fatalf("blob after reopen = %q, %v; want the committed version", got, err)
	}
	blobFiles(1)
}

// TestSegUsageDuringPuts reads Usage in a loop while another goroutine
// puts, seals and commits. Every reading is a consistent pair that never
// shrinks, and under -race the counters are only touched under the lock.
func TestSegUsageDuringPuts(t *testing.T) {
	s := openSeg(t, t.TempDir())
	defer s.Close()
	const n, size = 256, 1024
	done := make(chan error, 1)
	go func() {
		defer close(done)
		for i := 0; i < n; i++ {
			data := segChunk(i, size)
			if err := s.PutChunk(fingerprint.Of(data), data); err != nil {
				done <- err
				return
			}
			if i%32 == 31 {
				if err := s.Commit(); err != nil {
					done <- err
					return
				}
			}
		}
	}()
	var last int64
	for running := true; running; {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			running = false
		default:
		}
		b, c := s.Usage()
		if b != int64(c)*size || b < last {
			t.Fatalf("Usage = %d bytes / %d chunks after %d bytes", b, c, last)
		}
		last = b
	}
	if last != n*size {
		t.Fatalf("final Usage = %d bytes, want %d", last, n*size)
	}
}
