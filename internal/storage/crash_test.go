package storage

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"dedupcr/internal/fingerprint"
)

// Crash-consistency matrix: for every injection point in the engine's
// write paths, a helper process is killed (os.Exit, no cleanup — the
// moral equivalent of kill -9 for fs state) exactly there, and the
// parent asserts the reopened store's chunks are byte-identical to the
// last committed checkpoint — never a torn mix of chunk sets.
//
// Blobs share the commit point: PutBlob only stages a version file, and
// the manifest a Commit writes publishes it with the chunks. Every row
// pins whether the phase-2 blob survived the kill, and at every point it
// is present exactly when the phase-2 chunks are.
//
// The helper runs two phases over the same directory:
//
//	phase 1 (unarmed): checkpoint 1 — chunks ck1:0..31, a metadata
//	    blob, Commit, Close. This is the durable baseline.
//	phase 2 (armed with the point under test): chunks ck2:0..15 (one
//	    PutChunk each, or one PutRecords batch: through the tail buffer,
//	    or with a filler chunk before each so that it is written from its
//	    payload), a blob, release
//	    ck1:0..19, Commit, Compact. The injected crash fires somewhere in
//	    here.
//
// Points firing before the phase-2 manifest rename must reopen to
// checkpoint 1 exactly; points firing during compaction (after the
// phase-2 commit) must reopen to the committed phase-2 state.

const (
	crashEnvHelper = "DEDUPCR_CRASH_HELPER"
	crashEnvPoint  = "DEDUPCR_SEG_CRASHPOINT"
	crashEnvDir    = "DEDUPCR_CRASH_DIR"
	crashEnvOp     = "DEDUPCR_CRASH_OP"

	ck1Chunks   = 32
	ck2Chunks   = 16
	ck1Released = 20
	crashChunk  = 1024
	// crashFiller is the size of the new chunk a span batch puts before
	// each of its ck2 chunks: its 32 records, one after the other, span
	// 144 KiB, more than segTailBytes.
	crashFiller = 8 << 10
)

func ck1Data(i int) []byte { return segChunk(i, crashChunk) }
func ck2Data(i int) []byte { return segChunk(1000+i, crashChunk) }

// ck1Dropped reports whether phase 2 releases ck1 chunk i. Every fourth
// chunk in the retired window survives so each compaction victim keeps
// a live row — that forces the copy-and-reindex path (and its
// compact-idx-write injection point) instead of whole-segment deletes.
func ck1Dropped(i int) bool { return i < ck1Released && i%4 != 3 }

// TestCrashHelper is the subprocess body; a no-op unless re-executed by
// TestCrashMatrix with the helper environment set.
func TestCrashHelper(t *testing.T) {
	if os.Getenv(crashEnvHelper) != "1" {
		t.Skip("crash-matrix helper; run via TestCrashMatrix")
	}
	dir := os.Getenv(crashEnvDir)
	point := os.Getenv(crashEnvPoint)
	cfg := SegConfig{SegmentTarget: 4 << 10}

	// Phase 1, unarmed: the committed baseline.
	s, err := NewSegStore(dir, cfg)
	if err != nil {
		t.Fatalf("phase 1 open: %v", err)
	}
	for i := 0; i < ck1Chunks; i++ {
		if err := s.PutChunk(fingerprint.Of(ck1Data(i)), ck1Data(i)); err != nil {
			t.Fatalf("phase 1 put %d: %v", i, err)
		}
	}
	if err := s.PutBlob("ck1/meta", []byte("ck1")); err != nil {
		t.Fatalf("phase 1 blob: %v", err)
	}
	if err := s.Commit(); err != nil {
		t.Fatalf("phase 1 commit: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("phase 1 close: %v", err)
	}

	// Phase 2, armed: the store kills itself at the configured point.
	cfg.CrashPoint = point
	s2, err := NewSegStore(dir, cfg)
	if err != nil {
		t.Fatalf("phase 2 open: %v", err)
	}
	switch op := os.Getenv(crashEnvOp); op {
	case "batch", "span":
		// A span batch puts a filler chunk before each ck2 chunk, so that
		// its new records span more than the tail buffer and go straight
		// from the payload to the file.
		var chunks [][]byte
		for i := 0; i < ck2Chunks; i++ {
			if op == "span" {
				chunks = append(chunks, segChunk(2000+i, crashFiller))
			}
			chunks = append(chunks, ck2Data(i))
		}
		var payload []byte
		recs := make([]Record, len(chunks))
		for i, c := range chunks {
			fp := fingerprint.Of(c)
			recs[i] = Record{FP: fp, Off: int32(len(payload)), Len: int32(len(c)), Sum: fingerprint.ChunkSum(&fp, c)}
			payload = append(payload, c...)
		}
		if n, _, err := s2.PutRecords(payload, recs); err != nil {
			t.Fatalf("phase 2 batch stored %d: %v", n, err)
		}
	default:
		for i := 0; i < ck2Chunks; i++ {
			if err := s2.PutChunk(fingerprint.Of(ck2Data(i)), ck2Data(i)); err != nil {
				t.Fatalf("phase 2 put %d: %v", i, err)
			}
		}
	}
	if err := s2.PutBlob("ck2/meta", []byte("ck2")); err != nil {
		t.Fatalf("phase 2 blob: %v", err)
	}
	for i := 0; i < ck1Chunks; i++ {
		if !ck1Dropped(i) {
			continue
		}
		if err := s2.ReleaseChunk(fingerprint.Of(ck1Data(i))); err != nil {
			t.Fatalf("phase 2 release %d: %v", i, err)
		}
	}
	if os.Getenv(crashEnvOp) == "close" {
		s2.Close()
	} else {
		if err := s2.Commit(); err != nil {
			t.Fatalf("phase 2 commit: %v", err)
		}
		if _, err := s2.Compact(); err != nil {
			t.Fatalf("phase 2 compact: %v", err)
		}
	}
	// Reaching here means the injection point never fired; the parent
	// treats any exit status other than crashExitCode as a failure.
	fmt.Fprintf(os.Stderr, "crash helper: point %q never reached\n", point)
}

func TestCrashMatrix(t *testing.T) {
	if os.Getenv(crashEnvHelper) == "1" {
		t.Skip("inside helper")
	}
	// expect: the chunk state the reopened store must show. "ck1" =
	// checkpoint 1 exactly (phase 2's chunks and releases lost); "ck2" =
	// the committed phase-2 state (releases applied, ck2 chunks live).
	// blob2: whether the phase-2 blob, staged before the kill and never
	// committed on the ck1 rows, is there after reopen.
	cases := []struct {
		name   string // the point's, unless set
		point  string
		op     string // "" = commit+compact, "close" = Close, "batch" = ck2 put as one batch first, "span" = as one batch written from its payload
		expect string
		blob2  bool
	}{
		{point: "torn-append", expect: "ck1"},
		{point: "append", expect: "ck1"},
		{name: "append-in-batch", point: "append", op: "batch", expect: "ck1"},
		{name: "append-in-span", point: "append", op: "span", expect: "ck1"},
		{name: "torn-append-in-span", point: "torn-append", op: "span", expect: "ck1"},
		{point: "seal", expect: "ck1"},
		{point: "idx-write", expect: "ck1"},
		// Killed while a seal's background data fsync is in flight.
		{point: "seal-sync", expect: "ck1"},
		{point: "blob-stage", expect: "ck1"},
		{point: "commit", expect: "ck1"},
		// Every sync of the commit done, the manifest not yet written.
		{point: "commit-sync", expect: "ck1"},
		{point: "manifest-rename", expect: "ck1"},
		{point: "close-commit", op: "close", expect: "ck1"},
		{point: "compact-idx-write", expect: "ck2", blob2: true},
		{point: "compact", expect: "ck2", blob2: true},
		{point: "compact-manifest-rename", expect: "ck2", blob2: true},
		{point: "compact-cleanup", expect: "ck2", blob2: true},
	}
	// Appends are buffered, so the append rows also pin what the kill left
	// in the unsealed segment file: "append" dies with the first chunk of
	// phase 2 buffered and nothing written, a batch's first append the
	// same, and "torn-append" halfway through the first buffer flush (four
	// chunks at the first seal, two of them written). A span batch is
	// written from its payload in writes of segTailBytes: "append" dies
	// after the first of them, "torn-append" halfway through it.
	unsealed := map[string]int64{"append": 0, "append-in-batch": 0, "torn-append": 2 * crashChunk,
		"append-in-span": segTailBytes, "torn-append-in-span": segTailBytes / 2}
	for _, tc := range cases {
		if tc.name == "" {
			tc.name = tc.point
		}
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			cmd := exec.Command(os.Args[0], "-test.run", "^TestCrashHelper$", "-test.v")
			cmd.Env = append(os.Environ(),
				crashEnvHelper+"=1",
				crashEnvPoint+"="+tc.point,
				crashEnvDir+"="+dir,
				crashEnvOp+"="+tc.op,
			)
			out, err := cmd.CombinedOutput()
			var ee *exec.ExitError
			if !errors.As(err, &ee) || ee.ExitCode() != crashExitCode {
				t.Fatalf("helper exited %v, want crash exit %d; output:\n%s", err, crashExitCode, out)
			}
			if want, ok := unsealed[tc.name]; ok {
				if got := unsealedBytes(t, dir); got != want {
					t.Errorf("kill at %q left %d payload bytes in the unsealed segment, want %d", tc.name, got, want)
				}
			}
			verifyAfterCrash(t, dir, tc.expect, tc.blob2)
		})
	}
}

// unsealedBytes returns the size of the one segment data file that has no
// sealed index next to it: what the killed process had written of its
// active segment.
func unsealedBytes(t *testing.T, dir string) int64 {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "segments", "*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	size := int64(-1)
	for _, seg := range segs {
		if _, err := os.Stat(strings.TrimSuffix(seg, ".seg") + ".idx"); err == nil {
			continue
		}
		info, err := os.Stat(seg)
		if err != nil {
			t.Fatal(err)
		}
		if size >= 0 {
			t.Fatalf("more than one unsealed segment file in %s", dir)
		}
		size = info.Size()
	}
	if size < 0 {
		t.Fatalf("no unsealed segment file in %s", dir)
	}
	return size
}

// verifyAfterCrash reopens the killed store and asserts it recovered to
// the expected committed checkpoint, byte for byte, with the phase-2 blob
// present exactly when blob2 says so.
func verifyAfterCrash(t *testing.T, dir, expect string, blob2 bool) {
	t.Helper()
	s, err := NewSegStore(dir, SegConfig{SegmentTarget: 4 << 10})
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	defer s.Close()

	mustHave := func(label string, data []byte) {
		t.Helper()
		got, err := s.GetChunk(fingerprint.Of(data))
		if err != nil {
			t.Fatalf("%s missing after recovery: %v", label, err)
		}
		if string(got) != string(data) {
			t.Fatalf("%s not byte-identical after recovery", label)
		}
	}
	mustLack := func(label string, data []byte) {
		t.Helper()
		if held(s, fingerprint.Of(data)) {
			t.Fatalf("%s present after recovery", label)
		}
	}

	switch expect {
	case "ck1":
		for i := 0; i < ck1Chunks; i++ {
			mustHave(fmt.Sprintf("ck1 chunk %d", i), ck1Data(i))
		}
		for i := 0; i < ck2Chunks; i++ {
			mustLack(fmt.Sprintf("uncommitted ck2 chunk %d", i), ck2Data(i))
		}
		if b, err := s.GetBlob("ck1/meta"); err != nil || string(b) != "ck1" {
			t.Fatalf("ck1 blob after recovery: %q, %v", b, err)
		}
		if _, chunks := s.Usage(); chunks != ck1Chunks {
			t.Fatalf("recovered store has %d chunks, want %d", chunks, ck1Chunks)
		}
	case "ck2":
		dropped := 0
		for i := 0; i < ck1Chunks; i++ {
			if ck1Dropped(i) {
				dropped++
				mustLack(fmt.Sprintf("released ck1 chunk %d", i), ck1Data(i))
			} else {
				mustHave(fmt.Sprintf("surviving ck1 chunk %d", i), ck1Data(i))
			}
		}
		for i := 0; i < ck2Chunks; i++ {
			mustHave(fmt.Sprintf("ck2 chunk %d", i), ck2Data(i))
		}
		if _, err := s.GetBlob("ck1/meta"); err != nil {
			t.Fatalf("blob ck1/meta after recovery: %v", err)
		}
		if _, chunks := s.Usage(); chunks != ck1Chunks-dropped+ck2Chunks {
			t.Fatalf("recovered store has %d chunks, want %d", chunks, ck1Chunks-dropped+ck2Chunks)
		}
	default:
		t.Fatalf("unknown expectation %q", expect)
	}
	// The phase-2 blob is committed with the phase-2 chunks or not at
	// all.
	b, err := s.GetBlob("ck2/meta")
	if ck2 := held(s, fingerprint.Of(ck2Data(0))); ck2 != (err == nil) {
		t.Fatalf("phase-2 chunks present: %v, phase-2 blob: %q, %v; they share one commit point", ck2, b, err)
	}
	switch {
	case blob2 && (err != nil || string(b) != "ck2"):
		t.Fatalf("phase-2 blob after recovery: %q, %v; want it committed with the ck2 chunks", b, err)
	case !blob2 && !errors.Is(err, ErrNotFound):
		t.Fatalf("phase-2 blob after recovery: %q, %v; want it lost with the ck2 chunks", b, err)
	}

	// The recovered store must stay fully operational: another
	// checkpoint must commit, survive a reopen, and compact cleanly.
	probe := segChunk(9999, crashChunk)
	if err := s.PutChunk(fingerprint.Of(probe), probe); err != nil {
		t.Fatalf("put after recovery: %v", err)
	}
	if err := s.Commit(); err != nil {
		t.Fatalf("commit after recovery: %v", err)
	}
	if _, err := s.Compact(); err != nil {
		t.Fatalf("compact after recovery: %v", err)
	}
}
