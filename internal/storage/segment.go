package storage

import (
	"fmt"
	"hash/crc32"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"dedupcr/internal/fingerprint"
	"dedupcr/internal/metrics"
	"dedupcr/internal/obs"
)

// The segment engine: a log-structured, content-addressed Store. Chunks
// are appended to an active segment data file, through a tail buffer or,
// for a dense run of new chunks in a landed batch that spans more than it,
// straight from the batch's payload, and the file is sealed at a size
// threshold; a blob is staged as a new version file. No put waits for the
// disk. Durability is checkpoint-grained: Commit seals the active
// segment, syncs every file written since, and only then atomically
// replaces the manifest, the single file naming the store's committed
// segments and blob versions. A process killed at any instant reopens to
// the last committed checkpoint: recovery replays the manifest and
// discards every file it does not name (see manifest.go for the commit
// protocol and the case analysis).
//
// Every row carries its chunk's CRC-32C (fingerprint.ChunkSum), handed in
// with the put (PutChunkSum, PutRecords) or taken by PutChunk, persisted
// in the segment index and checked on every read, whether the bytes come
// from the tail buffer or the file.
//
// Tombstones accumulate in place — ReleaseChunk only drops the in-memory
// reference, leaving the payload as garbage inside its sealed segment —
// and a compactor (background goroutine or explicit Compact call)
// rewrites segments whose garbage fraction exceeds a threshold, copying
// the live chunks into fresh segments and reclaiming the rest. The
// rollback/tombstone machinery of the collective abort protocol and
// Forget are exactly what produces this garbage.

// SegConfig tunes a segment store. The zero value selects defaults.
type SegConfig struct {
	// SegmentTarget is the payload size at which the active segment is
	// sealed mid-dump (Commit always seals). A seal starts the data
	// file's fsync in the background, so writeback overlaps later puts.
	// Default 4 MiB.
	SegmentTarget int64
	// GarbageRatio is the tombstoned fraction of a sealed segment's
	// payload above which the compactor rewrites it. Default 0.5.
	GarbageRatio float64
	// AutoCompact starts a background compactor goroutine that sweeps
	// for victim segments after every commit and every CompactEvery.
	AutoCompact bool
	// CompactEvery is the background compactor's poll interval.
	// Default 250ms.
	CompactEvery time.Duration
	// CrashPoint arms the deterministic kill switch of the
	// crash-consistency matrix: the store calls os.Exit(86) when it
	// reaches the named point (see crash_test.go for the points).
	// Empty in production.
	CrashPoint string
}

func (c SegConfig) withDefaults() SegConfig {
	if c.SegmentTarget <= 0 {
		c.SegmentTarget = 4 << 20
	}
	if c.GarbageRatio <= 0 {
		c.GarbageRatio = 0.5
	}
	if c.CompactEvery <= 0 {
		c.CompactEvery = 250 * time.Millisecond
	}
	return c
}

// crashExitCode is the status a store armed with a CrashPoint dies
// with, so the crash matrix can tell an injected kill from a real
// failure.
const crashExitCode = 86

// chunkLoc locates a live chunk: the segment holding it and its row in
// that segment's entry table.
type chunkLoc struct {
	seg  uint64
	slot int
}

// segFile is one sealed, immutable segment.
type segFile struct {
	id        uint64
	f         *os.File   // read handle
	dataLen   uint64     // payload bytes in the data file
	idxSum    uint32     // crc32 of the sealed index file's bytes
	garbage   uint64     // guarded by mu: tombstoned payload bytes
	entries   []segEntry // guarded by mu: fp-sorted rows; Refs mutate in memory
	dirty     bool       // guarded by mu: refs diverged from the sealed index
	committed bool       // guarded by mu: named by a committed manifest
}

// activeSeg is the segment currently being appended to. It is invisible
// to the manifest until sealed. Appended payload sits in the store's
// tail buffer until a flush writes it: bytes [0, flushed) are in f,
// bytes [flushed, len) in SegStore.tail, and no chunk straddles the two.
type activeSeg struct {
	id      uint64
	f       *os.File
	len     uint64     // payload bytes appended
	flushed uint64     // payload bytes written to f
	garbage uint64     // bytes of entries already released before sealing
	entries []segEntry // append order; offsets ascending
}

// segTailBytes is the capacity of the append buffer and the most any one
// positional write of the active segment writes. Appended chunks are
// written once per this many payload bytes, not once per chunk, and a
// dense run of new records in a batch that spans more than this goes
// straight from its payload in writes of this size (PutRecords). 128 KiB already makes the write
// syscalls a rounding error (≈ 200 per 16 MiB-per-rank dump instead of
// ≈ 7k), and it stays below the size at which single writes were measured
// to stall: on the reference box (Linux 6.18, ext4) every few dumps a run
// of 1 MiB writes took 20-40 ms each — +500 ms on that dump — 512 KiB
// writes a third of that, and writes of 256 KiB or less never did.
const segTailBytes = 128 << 10

// SegStore is the log-structured segment Store. Create with NewSeg or
// NewSegStore; the extra methods beyond the Store interface are Compact
// (synchronous garbage rewrite), Stats (segment/compaction counters) and
// Close (graceful shutdown: commits, stops the background compactor and
// waits for in-flight syncs).
type SegStore struct {
	mu       sync.Mutex
	dir      string
	cfg      SegConfig
	syncData func(*os.File) error                       // a seal's data fsync; tests inject failures
	readAt   func(*os.File, []byte, int64) (int, error) // a chunk read; tests count them
	writeAt  func(*os.File, []byte, int64) (int, error) // a positional write; tests watch them
	syncs    syncGroup                                  // fsyncs in flight, and the first that failed

	gen        uint64                      // guarded by mu: last committed generation
	nextSeg    uint64                      // guarded by mu: next segment ID to allocate
	sealed     map[uint64]*segFile         // guarded by mu
	active     *activeSeg                  // guarded by mu
	tail       []byte                      // guarded by mu: unflushed payload of active, reused across segments
	index      map[fingerprint.FP]chunkLoc // guarded by mu: live chunks only
	liveBytes  int64                       // guarded by mu
	liveChunks int                         // guarded by mu
	failed     bool                        // guarded by mu
	counters   metrics.StoreStats          // guarded by mu: monotonic counters only
	closed     bool                        // guarded by mu
	blobs      map[string]manifestBlob     // guarded by mu: committed blob versions
	staged     map[string]manifestBlob     // guarded by mu: blobs put since the last Commit
	unsynced   map[string]bool             // guarded by mu: files and directories written since the last sync

	stop chan struct{} // closes to stop the background compactor
	done chan struct{} // compactor exited
	kick chan struct{} // nudges the compactor after a commit
}

var _ Store = (*SegStore)(nil)

// NewSeg opens (creating if needed) a segment store rooted at dir with
// default configuration.
func NewSeg(dir string) (Store, error) { return NewSegStore(dir, SegConfig{}) }

// NewSegStore opens a segment store with explicit configuration,
// running crash recovery against whatever a previous process left in
// dir: the manifest is replayed, sealed segments are re-indexed, and
// unsealed tails, orphaned segment files, staged blobs and stale temp
// files are discarded.
func NewSegStore(dir string, cfg SegConfig) (*SegStore, error) {
	cfg = cfg.withDefaults()
	for _, sub := range []string{"segments", "blobs"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("storage: create %s: %w", sub, err)
		}
	}
	s := &SegStore{
		dir:      dir,
		cfg:      cfg,
		syncData: (*os.File).Sync,
		readAt:   (*os.File).ReadAt,
		writeAt:  (*os.File).WriteAt,
		syncs:    syncGroup{slots: make(chan struct{}, 16)},
		sealed:   make(map[uint64]*segFile),
		index:    make(map[fingerprint.FP]chunkLoc),
		blobs:    make(map[string]manifestBlob),
		staged:   make(map[string]manifestBlob),
		unsynced: make(map[string]bool),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
		kick:     make(chan struct{}, 1),
	}
	if err := s.recover(); err != nil {
		return nil, err
	}
	if cfg.AutoCompact {
		go s.compactLoop()
	} else {
		close(s.done)
	}
	return s, nil
}

// crash is the deterministic fault-injection hook: a store armed with
// cfg.CrashPoint simulates a kill -9 (no deferred cleanup, no commits)
// at the named point.
func (s *SegStore) crash(point string) {
	if s.cfg.CrashPoint != "" && s.cfg.CrashPoint == point {
		obs.Printf("segstore: injected crash at %s", point)
		os.Exit(crashExitCode)
	}
}

func (s *SegStore) segPath(id uint64) string {
	return filepath.Join(s.dir, "segments", fmt.Sprintf("%016x.seg", id))
}

func (s *SegStore) idxPath(id uint64) string {
	return filepath.Join(s.dir, "segments", fmt.Sprintf("%016x.idx", id))
}

// blobPath is the file holding version ver of blob name. Names may
// contain '/' separators; they map to subdirectories.
func (s *SegStore) blobPath(name string, ver uint64) string {
	return filepath.Join(s.dir, "blobs", filepath.FromSlash(name)+"."+strconv.FormatUint(ver, 16))
}

func (s *SegStore) manifestPath() string {
	return filepath.Join(s.dir, manifestName)
}

// recover replays the manifest into memory and deletes everything the
// manifest does not vouch for. Runs before the store is published, so
// fields are accessed without the lock.
func (s *SegStore) recover() error {
	m, err := readManifest(s.manifestPath())
	if err != nil {
		return err
	}
	s.gen = m.Gen
	s.nextSeg = m.NextSeg
	if s.nextSeg == 0 {
		s.nextSeg = 1
	}
	keep := make(map[string]bool) // the files the manifest names
	for i := range m.Segs {
		ms := &m.Segs[i]
		idxBytes, err := os.ReadFile(s.idxPath(ms.ID))
		if err != nil {
			return fmt.Errorf("storage: segment %016x index: %w", ms.ID, err)
		}
		if got := crc32.ChecksumIEEE(idxBytes); got != ms.IdxSum {
			return fmt.Errorf("storage: segment %016x index checksum %08x, manifest says %08x", ms.ID, got, ms.IdxSum)
		}
		entries, err := decodeSegIndex(idxBytes)
		if err != nil {
			return fmt.Errorf("storage: segment %016x: %w", ms.ID, err)
		}
		if ms.Refs != nil {
			if len(ms.Refs) != len(entries) {
				return fmt.Errorf("storage: segment %016x refcount override has %d rows for %d entries", ms.ID, len(ms.Refs), len(entries))
			}
			for j := range entries {
				entries[j].Refs = ms.Refs[j]
			}
		}
		f, err := os.Open(s.segPath(ms.ID))
		if err != nil {
			return fmt.Errorf("storage: segment %016x data: %w", ms.ID, err)
		}
		info, err := f.Stat()
		if err != nil {
			f.Close()
			return err
		}
		if uint64(info.Size()) < ms.DataLen {
			f.Close()
			return fmt.Errorf("storage: segment %016x data is %d bytes, manifest says %d", ms.ID, info.Size(), ms.DataLen)
		}
		sf := &segFile{id: ms.ID, f: f, dataLen: ms.DataLen, idxSum: ms.IdxSum, entries: entries, dirty: ms.Refs != nil, committed: true}
		live := uint64(0)
		for slot, e := range entries {
			if uint64(e.Offset)+uint64(e.Length) > ms.DataLen {
				f.Close()
				return fmt.Errorf("storage: segment %016x entry %d extends past data", ms.ID, slot)
			}
			if e.Refs == 0 {
				continue
			}
			if _, dup := s.index[e.FP]; dup {
				f.Close()
				return fmt.Errorf("storage: fingerprint %s live in two segments", e.FP.Short())
			}
			s.index[e.FP] = chunkLoc{seg: ms.ID, slot: slot}
			live += uint64(e.Length)
			s.liveBytes += int64(e.Length)
			s.liveChunks++
		}
		sf.garbage = ms.DataLen - live
		s.sealed[ms.ID] = sf
		keep[s.segPath(ms.ID)], keep[s.idxPath(ms.ID)] = true, true
		if ms.ID >= s.nextSeg {
			s.nextSeg = ms.ID + 1
		}
	}
	for _, b := range m.Blobs {
		s.blobs[b.Name] = b
		keep[s.blobPath(b.Name, b.Version)] = true
	}
	// Everything the manifest did not name is an unsealed tail, an
	// uncommitted compaction product, a staged or superseded blob, or a
	// stale temp file.
	discarded := 0
	for _, sub := range []string{"segments", "blobs"} {
		filepath.WalkDir(filepath.Join(s.dir, sub), func(path string, d os.DirEntry, err error) error {
			if err == nil && !d.IsDir() && !keep[path] {
				os.Remove(path)
				discarded++
			}
			return nil
		})
	}
	os.Remove(s.manifestPath() + ".tmp")
	obs.Logf(obs.KindRecover, -1, "", 0, "recovered %q: %d segments, %d chunks, %d files discarded",
		s.dir, len(s.sealed), s.liveChunks, discarded)
	if discarded > 0 {
		// Uncommitted state survived a previous crash and was rolled
		// back: black-box the recovery so the crash can be debugged
		// post mortem.
		obs.Trigger(obs.Failure{
			Kind: "crash-recovery", Rank: -1,
			Cause: fmt.Sprintf("recovery of %q discarded %d uncommitted files", s.dir, discarded),
		})
	}
	return nil
}

// entryAtLocked returns the row for loc, from the active or a sealed
// segment.
func (s *SegStore) entryAtLocked(loc chunkLoc) (*segEntry, *os.File) {
	if s.active != nil && loc.seg == s.active.id {
		return &s.active.entries[loc.slot], s.active.f
	}
	sf := s.sealed[loc.seg]
	return &sf.entries[loc.slot], sf.f
}

// flushTailLocked writes the buffered payload of the active segment.
// Positional writes mean a partially applied flush never desynchronizes
// the append cursor: on error the tail is kept and the next flush
// rewrites the same bytes at the same offset.
func (s *SegStore) flushTailLocked() error {
	a := s.active
	if len(s.tail) == 0 {
		return nil
	}
	if _, err := s.writeLocked(a.f, s.tail, a.flushed); err != nil {
		return fmt.Errorf("storage: append to segment %016x: %w", a.id, err)
	}
	a.flushed += uint64(len(s.tail))
	s.tail = s.tail[:0]
	return nil
}

// writeLocked writes b to f at off in positional writes of at most
// segTailBytes each, and returns how many bytes it wrote before an error.
// The crash matrix's "torn-append" point dies halfway through the first
// write, and "append" right after it.
func (s *SegStore) writeLocked(f *os.File, b []byte, off uint64) (int, error) {
	done := 0
	for done < len(b) {
		piece := b[done:min(len(b), done+segTailBytes)]
		if s.cfg.CrashPoint == "torn-append" {
			s.writeAt(f, piece[:len(piece)/2], int64(off)+int64(done))
			s.crash("torn-append")
		}
		n, err := s.writeAt(f, piece, int64(off)+int64(done))
		done += n
		if err != nil {
			return done, err
		}
		s.crash("append")
	}
	return done, nil
}

func (s *SegStore) PutChunk(fp fingerprint.FP, data []byte) error {
	return s.put(fp, data, nil)
}

func (s *SegStore) PutChunkSum(fp fingerprint.FP, data []byte, sum uint32) error {
	return s.put(fp, data, &sum)
}

func (s *SegStore) put(fp fingerprint.FP, data []byte, sum *uint32) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failed {
		return ErrFailed
	}
	return s.putLocked(fp, data, sum)
}

// PutRecords stores the records under one hold of the mutex, each as
// PutChunkSum would, and never keeps payload. It goes through the batch in
// runs: a record the store holds gains a reference and writes nothing, and
// the records that follow it, up to the next one held, one after the
// other in payload, form a run of new records. A run whose span — from its
// first record to the end of its last — is at least segTailBytes and at
// most twice its records' bytes (memStore's adoption rule) is written
// straight from payload (putSpanLocked): the tail is flushed, then the
// span is written, the record headers inside it, and any chunk the run
// repeats, counting as the active segment's garbage, and the segment is
// sealed after the span if that took it past SegmentTarget, so it overruns
// that by at most one run. A shorter or sparser run goes through the tail
// buffer record by record, which may seal any number of times. So a batch
// of mostly held chunks, an incremental checkpoint's, writes only its new
// bytes.
func (s *SegStore) PutRecords(payload []byte, recs []Record) (int, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failed {
		return 0, false, ErrFailed
	}
	for i := 0; i < len(recs); {
		if s.refLocked(recs[i].FP) {
			i++
			continue
		}
		j, bytes := i+1, int64(recs[i].Len)
		for ; j < len(recs); j++ {
			if _, held := s.index[recs[j].FP]; held || recs[j].Off < recs[j-1].Off+recs[j-1].Len {
				break
			}
			bytes += int64(recs[j].Len)
		}
		start, end := int64(recs[i].Off), int64(recs[j-1].Off)+int64(recs[j-1].Len)
		if end-start < segTailBytes || end-start > 2*bytes {
			for ; i < j; i++ {
				r := &recs[i]
				if err := s.putLocked(r.FP, payload[r.Off:r.Off+r.Len], &r.Sum); err != nil {
					return i, false, err
				}
			}
			continue
		}
		n, err := s.putSpanLocked(payload[start:end], start, recs[i:j])
		if err != nil {
			return i + n, false, err
		}
		i = j
	}
	return len(recs), false, nil
}

// putSpanLocked appends span, the bytes of payload from offset start on
// that hold every new record of recs, with writeLocked and stores the
// records in order: a record whose bytes a failed write did not reach is
// the one that failed.
func (s *SegStore) putSpanLocked(span []byte, start int64, recs []Record) (int, error) {
	a, err := s.activeLocked()
	if err != nil {
		return 0, err
	}
	if err := s.flushTailLocked(); err != nil {
		return 0, err
	}
	written, werr := s.writeLocked(a.f, span, a.len)
	var used, live uint64 // span bytes up to the end of the last record stored, and its records'
	stored := len(recs)
	for i := range recs {
		r := &recs[i]
		if s.refLocked(r.FP) {
			continue
		}
		rel := uint64(int64(r.Off) - start)
		if rel+uint64(r.Len) > uint64(written) {
			stored = i
			break
		}
		s.addEntryLocked(r.FP, a.len+rel, r.Len, r.Sum)
		used, live = max(used, rel+uint64(r.Len)), live+uint64(r.Len)
	}
	a.len += used
	a.flushed = a.len
	a.garbage += used - live
	if stored < len(recs) {
		return stored, fmt.Errorf("storage: append to segment %016x: %w", a.id, werr)
	}
	if int64(a.len) >= s.cfg.SegmentTarget {
		return stored, s.sealLocked()
	}
	return stored, nil
}

// refLocked adds a reference to fp if the store holds it.
func (s *SegStore) refLocked(fp fingerprint.FP) bool {
	loc, ok := s.index[fp]
	if !ok {
		return false
	}
	e, _ := s.entryAtLocked(loc)
	e.Refs++
	if sf, sealed := s.sealed[loc.seg]; sealed {
		sf.dirty = true
	}
	return true
}

// activeLocked returns the active segment, creating it if there is none.
func (s *SegStore) activeLocked() (*activeSeg, error) {
	if s.active == nil {
		f, err := os.OpenFile(s.segPath(s.nextSeg), os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
		if err != nil {
			return nil, fmt.Errorf("storage: create segment: %w", err)
		}
		s.active = &activeSeg{id: s.nextSeg, f: f}
		s.nextSeg++
	}
	return s.active, nil
}

// addEntryLocked indexes a new chunk of the active segment: length bytes
// at off, with its sum.
func (s *SegStore) addEntryLocked(fp fingerprint.FP, off uint64, length int32, sum uint32) {
	a := s.active
	a.entries = append(a.entries, segEntry{FP: fp, Offset: off, Length: uint32(length), Refs: 1, Sum: sum})
	s.index[fp] = chunkLoc{seg: a.id, slot: len(a.entries) - 1}
	s.liveBytes += int64(length)
	s.liveChunks++
}

// putLocked stores a chunk under the sum given, or under one it takes if
// that is nil and the chunk is new.
func (s *SegStore) putLocked(fp fingerprint.FP, data []byte, sum *uint32) error {
	if s.refLocked(fp) {
		return nil
	}
	a, err := s.activeLocked()
	if err != nil {
		return err
	}
	// The payload is buffered, not written: nothing is promised before
	// the manifest names the sealed segment, and sealing flushes. A chunk
	// that does not fit the buffer goes to the file directly, after the
	// bytes that precede it.
	if len(s.tail)+len(data) > segTailBytes {
		if err := s.flushTailLocked(); err != nil {
			return err
		}
	}
	if len(data) > segTailBytes {
		if _, err := s.writeLocked(a.f, data, a.len); err != nil {
			return fmt.Errorf("storage: append chunk %s: %w", fp.Short(), err)
		}
		a.flushed += uint64(len(data))
	} else {
		if s.tail == nil {
			s.tail = make([]byte, 0, segTailBytes)
		}
		s.tail = append(s.tail, data...)
		s.crash("append")
	}
	if sum == nil {
		own := chunkSum(fp, data)
		sum = &own
	}
	s.addEntryLocked(fp, a.len, int32(len(data)), *sum)
	a.len += uint64(len(data))
	if int64(a.len) >= s.cfg.SegmentTarget {
		if err := s.sealLocked(); err != nil {
			return err
		}
	}
	return nil
}

// sealLocked flushes the active segment's tail and seals it. An active
// segment with no live rows is simply discarded.
func (s *SegStore) sealLocked() error {
	a := s.active
	if a == nil {
		return nil
	}
	if err := s.flushTailLocked(); err != nil {
		return err
	}
	s.crash("seal")
	sf, err := s.sealFileLocked(a.id, a.f, a.len, a.entries, "idx-write")
	if err != nil {
		return err
	}
	s.active = nil
	if sf != nil {
		s.counters.Seals++
		obs.Logf(obs.KindSeal, -1, "", 0, "sealed segment %016x (%d bytes, %d live)", a.id, a.len, a.len-sf.garbage)
	}
	return nil
}

// sealFileLocked seals a written segment file, for the active segment
// and for compaction alike: dead rows dropped, the columnar index written
// beside the data, the rows repointed at the sealed segment, and the data
// file's fsync started in the background, so writeback overlaps the puts
// that follow. A segment with no live rows is deleted, and nil returned.
func (s *SegStore) sealFileLocked(id uint64, f *os.File, dataLen uint64, entries []segEntry, point string) (*segFile, error) {
	live := make([]segEntry, 0, len(entries))
	for _, e := range entries {
		if e.Refs > 0 {
			live = append(live, e)
		}
	}
	if len(live) == 0 {
		f.Close()
		os.Remove(s.segPath(id))
		return nil, nil
	}
	slices.SortFunc(live, bySegFP)
	idxBytes := encodeSegIndex(live)
	if err := os.WriteFile(s.idxPath(id), idxBytes, 0o644); err != nil {
		return nil, fmt.Errorf("storage: write segment %016x index: %w", id, err)
	}
	s.crash(point)
	liveBytes := uint64(0)
	for slot, e := range live {
		s.index[e.FP] = chunkLoc{seg: id, slot: slot}
		liveBytes += uint64(e.Length)
	}
	sf := &segFile{
		id: id, f: f, dataLen: dataLen, idxSum: crc32.ChecksumIEEE(idxBytes),
		garbage: dataLen - liveBytes, entries: live,
	}
	s.sealed[id] = sf
	s.unsynced[s.idxPath(id)] = true
	s.unsynced[filepath.Join(s.dir, "segments")] = true
	syncData := s.syncData
	s.syncs.do(func() error {
		s.crash("seal-sync")
		if err := syncData(f); err != nil {
			return fmt.Errorf("storage: sync segment %016x: %w", id, err)
		}
		return nil
	})
	return sf, nil
}

// syncLocked fsyncs every file and directory written since the last sync,
// concurrently with each other and with the seals' data syncs in flight,
// and returns when all are done.
func (s *SegStore) syncLocked() error {
	for p := range s.unsynced {
		s.syncs.do(func() error { return syncPath(p) })
	}
	clear(s.unsynced)
	return s.syncs.wait()
}

// syncGroup runs fsyncs on their own goroutines, at most cap(slots) at
// once, and keeps the first error for good: the page cache may have
// dropped what a failed fsync covered. Callers hold the store's mutex.
type syncGroup struct {
	wg    sync.WaitGroup
	slots chan struct{} // a semaphore: fsyncs each block an OS thread
	once  sync.Once
	err   error // set by the first failed fsync, read after wg.Wait
}

func (g *syncGroup) do(fsync func() error) {
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		g.slots <- struct{}{}
		err := fsync()
		<-g.slots
		if err != nil {
			g.once.Do(func() { g.err = err })
		}
	}()
}

// wait returns once every fsync started so far is done.
func (g *syncGroup) wait() error {
	g.wg.Wait()
	return g.err
}

// Commit seals the active segment, syncs it and atomically publishes the
// manifest, making every chunk, refcount change, tombstone and blob since
// the previous Commit durable as one unit. This is the checkpoint commit
// point the collective dump pipeline calls after persisting its metadata
// blobs and before entering the completion barrier.
func (s *SegStore) Commit() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failed {
		return ErrFailed
	}
	if err := s.commitLocked("commit", "manifest-rename"); err != nil {
		return err
	}
	s.maybeKickLocked()
	return nil
}

func (s *SegStore) commitLocked(prePoint, renamePoint string) error {
	if err := s.sealLocked(); err != nil {
		return err
	}
	for _, sf := range s.sealed {
		sf.committed = true
	}
	s.crash(prePoint)
	if err := s.syncLocked(); err != nil {
		return err
	}
	s.crash("commit-sync")
	blobs := maps.Clone(s.blobs)
	maps.Copy(blobs, s.staged)
	if err := s.writeManifestLocked(renamePoint, blobs); err != nil {
		return err
	}
	// The versions the staged ones supersede are garbage whether or not
	// these deletes land (recovery sweeps strays).
	for name, b := range s.staged {
		os.Remove(s.blobPath(name, b.Version-1))
	}
	s.blobs = blobs
	clear(s.staged)
	s.counters.Commits++
	obs.Logf(obs.KindCommit, -1, "", 0, "manifest committed (%d segments, %d chunks)", len(s.sealed), s.liveChunks)
	return nil
}

// writeManifestLocked atomically publishes the manifest naming every
// committed sealed segment and the blobs given. Segments sealed mid-dump
// are excluded, and a compaction passes only committed blobs — its
// manifest must never make half a checkpoint durable.
func (s *SegStore) writeManifestLocked(renamePoint string, blobs map[string]manifestBlob) error {
	m := &manifest{Gen: s.gen + 1, NextSeg: s.nextSeg}
	ids := make([]uint64, 0, len(s.sealed))
	for id, sf := range s.sealed {
		if sf.committed {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		sf := s.sealed[id]
		// The index file is immutable after sealing, so its seal-time
		// checksum is carried forward; refcount drift travels in the
		// override column instead.
		ms := manifestSeg{ID: id, DataLen: sf.dataLen, IdxSum: sf.idxSum}
		if sf.dirty {
			ms.Refs = make([]uint32, len(sf.entries))
			for j, e := range sf.entries {
				ms.Refs[j] = e.Refs
			}
		}
		m.Segs = append(m.Segs, ms)
	}
	for _, b := range blobs {
		m.Blobs = append(m.Blobs, b)
	}
	slices.SortFunc(m.Blobs, func(a, b manifestBlob) int { return strings.Compare(a.Name, b.Name) })
	if err := atomicWriteFile(s.manifestPath(), m.encode(), s.crash, renamePoint); err != nil {
		return err
	}
	s.gen = m.Gen
	return nil
}

func (s *SegStore) GetChunk(fp fingerprint.FP) ([]byte, error) {
	data, _, err := s.GetChunkSum(fp)
	return data, err
}

// GetChunkSum reads the chunk into a fresh buffer — a batch of one record
// as long as its row says — and returns it with the row's sum once the two
// match.
func (s *SegStore) GetChunkSum(fp fingerprint.FP) ([]byte, uint32, error) {
	var buf []byte
	rec, errs, sums := []Record{{FP: fp}}, []error{nil}, []uint32{0}
	s.mu.Lock()
	if loc, ok := s.index[fp]; ok {
		e, _ := s.entryAtLocked(loc)
		buf, rec[0].Len = make([]byte, e.Length), int32(e.Length)
	}
	s.readLocked(buf, rec, errs, sums)
	s.mu.Unlock()
	if errs[0] == nil && chunkSum(fp, buf) != sums[0] {
		errs[0] = chunkCorrupt(fp)
	}
	if errs[0] != nil {
		return nil, 0, errs[0]
	}
	return buf, sums[0], nil
}

// ReadRecords reads a batch under one hold of the mutex and checks every
// sum in place outside it. Only GetChunk tells a corrupt chunk from one
// stored at another length, so such a record's chunk is read through it:
// its error, if any, comes before the length's.
func (s *SegStore) ReadRecords(dst []byte, recs []Record, errs []error) {
	sums := make([]uint32, len(recs))
	s.mu.Lock()
	s.readLocked(dst, recs, errs, sums)
	s.mu.Unlock()
	for i, r := range recs {
		switch errs[i].(type) {
		case nil:
			errs[i] = CheckSum(&recs[i].FP, dst[r.Off:r.Off+r.Len], sums[i])
		case LengthError:
			if _, err := s.GetChunk(r.FP); err != nil {
				errs[i] = err
			}
		}
	}
}

// readLocked copies the stored bytes of every record stored at its
// record's length into dst, unchecked, and their sums into sums: one
// readAt per run of records that sit back to back both in one file and in
// dst, one copy per record still in the tail buffer.
func (s *SegStore) readLocked(dst []byte, recs []Record, errs []error, sums []uint32) {
	if s.failed {
		for i := range errs {
			errs[i] = ErrFailed
		}
		return
	}
	var (
		f        *os.File // the open run's file, or nil
		lo       int      // the run is recs[lo:i]
		at       int64    // where it starts in f
		from, to int32    // and where it lands in dst
	)
	read := func(hi int) {
		if f != nil && to > from {
			if _, err := s.readAt(f, dst[from:to], at); err != nil {
				for j := lo; j < hi; j++ {
					errs[j] = fmt.Errorf("storage: read chunk %s: %w", recs[j].FP.Short(), err)
				}
			}
		}
		f = nil
	}
	for i, r := range recs {
		loc, ok := s.index[r.FP]
		if !ok {
			read(i)
			errs[i] = chunkNotFound(r.FP)
			continue
		}
		e, ef := s.entryAtLocked(loc)
		errs[i], sums[i] = nil, e.Sum
		switch a := s.active; {
		case e.Length != uint32(r.Len):
			read(i)
			errs[i] = LengthError{Got: int(e.Length), Want: int(r.Len)}
		case a != nil && loc.seg == a.id && e.Offset >= a.flushed:
			read(i)
			copy(dst[r.Off:r.Off+r.Len], s.tail[e.Offset-a.flushed:])
		case ef == f && int64(e.Offset) == at+int64(to-from) && r.Off == to:
			to += r.Len
		default:
			read(i)
			f, lo, at, from, to = ef, i, int64(e.Offset), r.Off, r.Off+r.Len
		}
	}
	read(len(recs))
}

func (s *SegStore) ReleaseChunk(fp fingerprint.FP) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failed {
		return ErrFailed
	}
	loc, ok := s.index[fp]
	if !ok {
		return fmt.Errorf("release chunk %s: %w", fp.Short(), ErrNotFound)
	}
	e, _ := s.entryAtLocked(loc)
	e.Refs--
	if sf, sealed := s.sealed[loc.seg]; sealed {
		sf.dirty = true
		if e.Refs == 0 {
			sf.garbage += uint64(e.Length)
		}
	} else if e.Refs == 0 {
		s.active.garbage += uint64(e.Length)
	}
	if e.Refs == 0 {
		delete(s.index, fp)
		s.liveBytes -= int64(e.Length)
		s.liveChunks--
		s.counters.TombstonedBytes += int64(e.Length)
	}
	return nil
}

// PutBlob stages the blob as the version after its committed one, in a
// file of its own, unsynced and named by no manifest: the next Commit
// syncs it and its manifest publishes it.
func (s *SegStore) PutBlob(name string, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failed {
		return ErrFailed
	}
	ref := manifestBlob{Name: name, Version: s.blobs[name].Version + 1, Sum: crc32.ChecksumIEEE(data)}
	path := s.blobPath(name, ref.Version)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("storage: blob dir for %q: %w", name, err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("storage: stage blob %q: %w", name, err)
	}
	for p, blobDir := path, filepath.Join(s.dir, "blobs"); len(p) >= len(blobDir); p = filepath.Dir(p) {
		s.unsynced[p] = true
	}
	s.crash("blob-stage")
	s.staged[name] = ref
	return nil
}

// GetBlob reads the blob's staged version if it was put since the last
// Commit, else its committed one, and checks the sum taken at put.
func (s *SegStore) GetBlob(name string) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failed {
		return nil, ErrFailed
	}
	ref, ok := s.staged[name]
	if !ok {
		if ref, ok = s.blobs[name]; !ok {
			return nil, fmt.Errorf("blob %q: %w", name, ErrNotFound)
		}
	}
	buf, err := os.ReadFile(s.blobPath(name, ref.Version))
	if err != nil {
		return nil, fmt.Errorf("storage: read blob %q: %w", name, err)
	}
	if got := crc32.ChecksumIEEE(buf); got != ref.Sum {
		return nil, fmt.Errorf("storage: blob %q checksum %08x, want %08x", name, got, ref.Sum)
	}
	return buf, nil
}

func (s *SegStore) Usage() (int64, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failed {
		return 0, 0
	}
	return s.liveBytes, s.liveChunks
}

func (s *SegStore) Fail() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failed {
		return
	}
	s.failed = true
	for _, sf := range s.sealed {
		sf.f.Close()
	}
	if s.active != nil {
		s.active.f.Close()
	}
	os.RemoveAll(filepath.Join(s.dir, "segments"))
	os.RemoveAll(filepath.Join(s.dir, "blobs"))
	os.Remove(s.manifestPath())
	s.sealed = map[uint64]*segFile{}
	s.blobs, s.staged = map[string]manifestBlob{}, map[string]manifestBlob{}
	s.active = nil
	s.tail = nil
	s.index = map[fingerprint.FP]chunkLoc{}
	s.liveBytes = 0
	s.liveChunks = 0
}

func (s *SegStore) Failed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.failed
}

// Close commits pending state, stops the background compactor, waits for
// in-flight syncs and closes every file handle. The graceful counterpart
// of a crash; a store that is never Closed only loses what was never
// committed.
func (s *SegStore) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	if s.cfg.AutoCompact {
		close(s.stop)
		<-s.done
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var err error
	if !s.failed {
		err = s.commitLocked("close-commit", "manifest-rename")
	}
	s.syncs.wait() // a failed commit or Fail can leave seals' syncs running
	for _, sf := range s.sealed {
		sf.f.Close()
	}
	if s.active != nil {
		s.active.f.Close()
	}
	return err
}

// Stats snapshots the store's segment and compaction counters.
func (s *SegStore) Stats() metrics.StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.counters
	st.Gen = int64(s.gen)
	st.SealedSegments = int64(len(s.sealed))
	st.Segments = int64(len(s.sealed))
	for _, sf := range s.sealed {
		st.DataBytes += int64(sf.dataLen)
		st.GarbageBytes += int64(sf.garbage)
	}
	if s.active != nil {
		st.Segments++
		st.DataBytes += int64(s.active.len)
		st.GarbageBytes += int64(s.active.garbage)
	}
	st.LiveBytes = s.liveBytes
	st.LiveChunks = int64(s.liveChunks)
	return st
}

// SegStatsOf unwraps instrumentation wrappers (storage.Timed and
// anything else exposing Inner() Store) and returns the underlying
// segment store's stats, or false when the store is not segment-backed.
func SegStatsOf(s Store) (metrics.StoreStats, bool) {
	for {
		if ss, ok := s.(*SegStore); ok {
			return ss.Stats(), true
		}
		w, ok := s.(interface{ Inner() Store })
		if !ok {
			return metrics.StoreStats{}, false
		}
		s = w.Inner()
	}
}
