package storage

import (
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
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
// are appended to an active segment data file and the segment is sealed
// — data fsynced, columnar fingerprint index written — once it reaches a
// size threshold. Durability is checkpoint-grained: Commit seals the
// active segment and atomically replaces the manifest, the single file
// naming the store's committed state. A process killed at any instant
// reopens to the last committed checkpoint: recovery replays the
// manifest and discards every unsealed tail (see manifest.go for the
// commit protocol and the case analysis).
//
// Every row carries its chunk's CRC-32C (see chunkSum), taken at put,
// persisted in the segment index and checked on every read, whether the
// bytes come from the tail buffer or the file.
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
	// sealed mid-dump (Commit always seals). Default 4 MiB.
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

// segTailBytes is the capacity of the append buffer: appended chunks are
// written to the active segment once per this many payload bytes, not
// once per chunk. 128 KiB already makes the write syscalls a rounding
// error (≈ 200 per 16 MiB-per-rank dump instead of ≈ 7k), and it stays
// below the size at which single writes were measured to stall: on the
// reference box (Linux 6.18, ext4) every few dumps a run of 1 MiB writes
// took 20-40 ms each — +500 ms on that dump — 512 KiB writes a third of
// that, and writes of 256 KiB or less never did.
const segTailBytes = 128 << 10

// SegStore is the log-structured segment Store. Create with NewSeg or
// NewSegStore; the extra methods beyond the Store interface are Commit
// (durable checkpoint), Compact (synchronous garbage rewrite), Stats
// (segment/compaction counters) and Close (graceful shutdown: commits
// and stops the background compactor).
type SegStore struct {
	mu   sync.Mutex
	dir  string
	cfg  SegConfig
	blob fileBlobs

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
// unsealed tails, orphaned segment files and stale temp files are
// discarded.
func NewSegStore(dir string, cfg SegConfig) (*SegStore, error) {
	cfg = cfg.withDefaults()
	for _, sub := range []string{"segments", "blobs"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("storage: create %s: %w", sub, err)
		}
	}
	s := &SegStore{
		dir:    dir,
		cfg:    cfg,
		sealed: make(map[uint64]*segFile),
		index:  make(map[fingerprint.FP]chunkLoc),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
		kick:   make(chan struct{}, 1),
	}
	s.blob = fileBlobs{dir: filepath.Join(dir, "blobs"), crash: s.crash}
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
		obs.Logger().Error("segstore: injected crash", "point", point)
		os.Exit(crashExitCode)
	}
}

func (s *SegStore) segPath(id uint64) string {
	return filepath.Join(s.dir, "segments", fmt.Sprintf("%016x.seg", id))
}

func (s *SegStore) idxPath(id uint64) string {
	return filepath.Join(s.dir, "segments", fmt.Sprintf("%016x.idx", id))
}

func (s *SegStore) manifestPath() string {
	return filepath.Join(s.dir, manifestName)
}

// recover replays the manifest into memory and deletes everything the
// manifest does not vouch for. Runs before the store is published, so
// fields are accessed without the lock.
//
//dedupvet:locked
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
		if ms.ID >= s.nextSeg {
			s.nextSeg = ms.ID + 1
		}
	}
	// Everything in segments/ the manifest did not name is an unsealed
	// tail, an uncommitted compaction product or a stale temp file.
	entries, err := os.ReadDir(filepath.Join(s.dir, "segments"))
	if err != nil {
		return err
	}
	discarded := 0
	for _, e := range entries {
		name := e.Name()
		base, _, _ := strings.Cut(name, ".")
		id, perr := strconv.ParseUint(base, 16, 64)
		if perr == nil {
			if _, ok := s.sealed[id]; ok && !strings.HasSuffix(name, ".tmp") {
				continue
			}
		}
		os.Remove(filepath.Join(s.dir, "segments", name))
		discarded++
	}
	sweepTmp(s.blob.dir)
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

// flushTailLocked writes the buffered payload of the active segment with
// one positional write. Positional writes mean a partially applied flush
// never desynchronizes the append cursor: on error the tail is kept and
// the next flush rewrites the same bytes at the same offset.
func (s *SegStore) flushTailLocked() error {
	a := s.active
	if len(s.tail) == 0 {
		return nil
	}
	if s.cfg.CrashPoint == "torn-append" {
		a.f.WriteAt(s.tail[:len(s.tail)/2], int64(a.flushed))
		a.f.Sync()
		s.crash("torn-append")
	}
	if _, err := a.f.WriteAt(s.tail, int64(a.flushed)); err != nil {
		return fmt.Errorf("storage: append to segment %016x: %w", a.id, err)
	}
	a.flushed += uint64(len(s.tail))
	s.tail = s.tail[:0]
	return nil
}

func (s *SegStore) PutChunk(fp fingerprint.FP, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failed {
		return ErrFailed
	}
	if loc, ok := s.index[fp]; ok {
		e, _ := s.entryAtLocked(loc)
		e.Refs++
		if sf, sealed := s.sealed[loc.seg]; sealed {
			sf.dirty = true
		}
		return nil
	}
	if s.active == nil {
		f, err := os.OpenFile(s.segPath(s.nextSeg), os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
		if err != nil {
			return fmt.Errorf("storage: create segment: %w", err)
		}
		s.active = &activeSeg{id: s.nextSeg, f: f}
		s.nextSeg++
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
		if _, err := s.active.f.WriteAt(data, int64(s.active.len)); err != nil {
			return fmt.Errorf("storage: append chunk %s: %w", fp.Short(), err)
		}
		s.active.flushed += uint64(len(data))
	} else {
		if s.tail == nil {
			s.tail = make([]byte, 0, segTailBytes)
		}
		s.tail = append(s.tail, data...)
	}
	s.crash("append")
	s.active.entries = append(s.active.entries, segEntry{
		FP: fp, Offset: s.active.len, Length: uint32(len(data)), Refs: 1, Sum: chunkSum(fp, data),
	})
	s.index[fp] = chunkLoc{seg: s.active.id, slot: len(s.active.entries) - 1}
	s.active.len += uint64(len(data))
	s.liveBytes += int64(len(data))
	s.liveChunks++
	if int64(s.active.len) >= s.cfg.SegmentTarget {
		if err := s.sealLocked(); err != nil {
			return err
		}
	}
	return nil
}

// sealLocked makes the active segment immutable: data fsynced, dead rows
// dropped, the columnar index written atomically. An active segment with
// no live rows is simply discarded.
func (s *SegStore) sealLocked() error {
	a := s.active
	if a == nil || len(a.entries) == 0 {
		if a != nil {
			a.f.Close()
			os.Remove(s.segPath(a.id))
			s.active = nil
		}
		return nil
	}
	if err := s.flushTailLocked(); err != nil {
		return err
	}
	if err := a.f.Sync(); err != nil {
		return fmt.Errorf("storage: sync segment %016x: %w", a.id, err)
	}
	s.crash("seal")
	live := make([]segEntry, 0, len(a.entries))
	for _, e := range a.entries {
		if e.Refs > 0 {
			live = append(live, e)
		}
	}
	if len(live) == 0 {
		a.f.Close()
		os.Remove(s.segPath(a.id))
		s.active = nil
		return nil
	}
	idxBytes := encodeSegIndex(live)
	if err := atomicWriteFile(s.idxPath(a.id), idxBytes, 0o644, s.crash, "idx-rename"); err != nil {
		return err
	}
	sort.Slice(live, func(i, j int) bool { return live[i].FP.Less(live[j].FP) })
	liveBytes := uint64(0)
	for slot, e := range live {
		s.index[e.FP] = chunkLoc{seg: a.id, slot: slot}
		liveBytes += uint64(e.Length)
	}
	s.sealed[a.id] = &segFile{
		id: a.id, f: a.f, dataLen: a.len, idxSum: crc32.ChecksumIEEE(idxBytes),
		garbage: a.len - liveBytes, entries: live,
	}
	s.active = nil
	s.counters.Seals++
	obs.Logf(obs.KindSeal, -1, "", 0, "sealed segment %016x (%d bytes, %d live)", a.id, a.len, liveBytes)
	return nil
}

// Commit seals the active segment and atomically publishes the manifest,
// making every chunk, refcount change and tombstone since the previous
// Commit durable. This is the checkpoint commit point the collective
// dump pipeline calls after persisting its metadata blobs and before
// entering the completion barrier.
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
	if err := s.writeManifestLocked(renamePoint); err != nil {
		return err
	}
	s.counters.Commits++
	obs.Logf(obs.KindCommit, -1, "", 0, "manifest committed (%d segments, %d chunks)", len(s.sealed), s.liveChunks)
	return nil
}

// writeManifestLocked atomically publishes the manifest naming every
// committed sealed segment. Segments sealed mid-dump but not yet
// covered by an explicit Commit are excluded — a compaction-triggered
// manifest must never make half a checkpoint durable.
func (s *SegStore) writeManifestLocked(renamePoint string) error {
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
	if err := atomicWriteFile(s.manifestPath(), m.encode(), 0o644, s.crash, renamePoint); err != nil {
		return err
	}
	s.gen = m.Gen
	return nil
}

// GetChunk reads the chunk from the tail buffer or its segment file and
// checks it against the sum its row carries, outside the mutex.
func (s *SegStore) GetChunk(fp fingerprint.FP) ([]byte, error) {
	buf, sum, err := s.readChunk(fp)
	if err != nil {
		return nil, err
	}
	return checkSum(fp, buf, sum)
}

// readChunk copies out a chunk's stored bytes and returns them with its
// sum, unchecked.
func (s *SegStore) readChunk(fp fingerprint.FP) ([]byte, uint32, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failed {
		return nil, 0, ErrFailed
	}
	loc, ok := s.index[fp]
	if !ok {
		return nil, 0, chunkNotFound(fp)
	}
	e, f := s.entryAtLocked(loc)
	buf := make([]byte, e.Length)
	if a := s.active; a != nil && loc.seg == a.id && e.Offset >= a.flushed {
		copy(buf, s.tail[e.Offset-a.flushed:])
		return buf, e.Sum, nil
	}
	if _, err := f.ReadAt(buf, int64(e.Offset)); err != nil {
		return nil, 0, fmt.Errorf("storage: read chunk %s: %w", fp.Short(), err)
	}
	return buf, e.Sum, nil
}

func (s *SegStore) HasChunk(fp fingerprint.FP) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failed {
		return false, ErrFailed
	}
	_, ok := s.index[fp]
	return ok, nil
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

func (s *SegStore) PutBlob(name string, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failed {
		return ErrFailed
	}
	return s.blob.put(name, data)
}

func (s *SegStore) GetBlob(name string) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failed {
		return nil, ErrFailed
	}
	return s.blob.get(name)
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
	os.RemoveAll(s.blob.dir)
	os.Remove(s.manifestPath())
	s.sealed = map[uint64]*segFile{}
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

// Close commits pending state, stops the background compactor and
// closes every file handle. The graceful counterpart of a crash; a
// store that is never Closed only loses what was never committed.
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
	if s.failed {
		return nil
	}
	err := s.commitLocked("close-commit", "manifest-rename")
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
