package storage

import (
	"fmt"
	"os"
	"sort"
	"time"

	"dedupcr/internal/obs"
)

// Background compaction: a sealed segment whose tombstoned fraction
// exceeds SegConfig.GarbageRatio is a victim; its live chunks are copied
// into a fresh segment, the manifest is committed without the victim,
// and only then are the victim's files deleted. A crash at any point
// leaves a recoverable store (see manifest.go); the worst outcome is a
// re-run of the same compaction.
//
// Only committed segments are eligible — segments auto-sealed mid-dump
// belong to an in-flight checkpoint and stay invisible to the manifest
// until that checkpoint's own Commit. Refcount overrides written by a
// compaction manifest snapshot the in-memory counts, which may include
// increments from an in-flight dump; after a crash those over-count (a
// bounded leak, in line with rollbackDump's best-effort stance) but
// never drop a committed chunk.

// Compact synchronously rewrites every victim segment, returning how
// many segments were compacted away. A store without garbage returns
// (0, nil) without touching the disk.
func (s *SegStore) Compact() (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.compactLocked()
}

// victimsLocked returns the committed segments whose garbage fraction
// reached the configured threshold, in ascending ID order.
func (s *SegStore) victimsLocked() []*segFile {
	var victims []*segFile
	for _, sf := range s.sealed {
		if !sf.committed || sf.dataLen == 0 || sf.garbage == 0 {
			continue
		}
		if float64(sf.garbage)/float64(sf.dataLen) >= s.cfg.GarbageRatio {
			victims = append(victims, sf)
		}
	}
	sort.Slice(victims, func(i, j int) bool { return victims[i].id < victims[j].id })
	return victims
}

func (s *SegStore) compactLocked() (int, error) {
	if s.failed {
		return 0, ErrFailed
	}
	victims := s.victimsLocked()
	if len(victims) == 0 {
		return 0, nil
	}
	var reclaimed, copied int64
	for _, v := range victims {
		if err := s.rewriteLocked(v, &copied); err != nil {
			return 0, err
		}
		delete(s.sealed, v.id)
		reclaimed += int64(v.garbage)
	}
	s.crash("compact")
	if err := s.syncLocked(); err != nil {
		return 0, err
	}
	if err := s.writeManifestLocked("compact-manifest-rename", s.blobs); err != nil {
		return 0, err
	}
	s.crash("compact-cleanup")
	// The manifest no longer names the victims; their files are garbage
	// whether or not these deletes land (recovery sweeps strays).
	for _, v := range victims {
		v.f.Close()
		os.Remove(s.segPath(v.id))
		os.Remove(s.idxPath(v.id))
	}
	s.counters.Compactions++
	s.counters.SegmentsCompacted += int64(len(victims))
	s.counters.ReclaimedBytes += reclaimed
	s.counters.CopiedBytes += copied
	obs.Logf(obs.KindCompact, -1, "", 0, "compacted %d segments (%d bytes reclaimed, %d copied)",
		len(victims), reclaimed, copied)
	return len(victims), nil
}

// rewriteLocked copies a victim's live chunks into a fresh segment and
// seals it like any other. A victim with no live chunks needs no
// replacement. The new segment is invisible until the caller commits the
// manifest. Bytes are copied unchecked and each row keeps the sum taken
// at put, so a chunk that changed on disk before the compaction still
// fails its check after it.
func (s *SegStore) rewriteLocked(v *segFile, copied *int64) error {
	live := make([]segEntry, 0, len(v.entries))
	for _, e := range v.entries {
		if e.Refs > 0 {
			live = append(live, e)
		}
	}
	if len(live) == 0 {
		return nil
	}
	id := s.nextSeg
	s.nextSeg++
	f, err := os.OpenFile(s.segPath(id), os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("storage: create compaction segment: %w", err)
	}
	fail := func(err error) error {
		f.Close()
		os.Remove(s.segPath(id))
		return err
	}
	cursor := uint64(0)
	buf := make([]byte, 0)
	for i := range live {
		e := &live[i]
		if uint64(len(buf)) < uint64(e.Length) {
			buf = make([]byte, e.Length)
		}
		b := buf[:e.Length]
		if _, err := v.f.ReadAt(b, int64(e.Offset)); err != nil {
			return fail(fmt.Errorf("storage: compact read %s: %w", e.FP.Short(), err))
		}
		if _, err := s.writeLocked(f, b, cursor); err != nil {
			return fail(fmt.Errorf("storage: compact write %s: %w", e.FP.Short(), err))
		}
		e.Offset = cursor
		cursor += uint64(e.Length)
	}
	sf, err := s.sealFileLocked(id, f, cursor, live, "compact-idx-write")
	if err != nil {
		return fail(err)
	}
	sf.committed = true
	*copied += int64(cursor)
	s.counters.CopiedChunks += int64(len(live))
	return nil
}

// maybeKickLocked nudges the background compactor when a commit left at
// least one victim behind, so reclamation starts promptly instead of
// waiting out the poll interval.
func (s *SegStore) maybeKickLocked() {
	if !s.cfg.AutoCompact || len(s.victimsLocked()) == 0 {
		return
	}
	select {
	case s.kick <- struct{}{}:
	default:
	}
}

// compactLoop is the background compactor goroutine: it sweeps after
// every commit kick and every CompactEvery tick, and exits on Close.
// Errors are swallowed by design — compaction is an optimization, and
// the next sweep retries; a failed store stops producing victims.
func (s *SegStore) compactLoop() {
	defer close(s.done)
	tick := time.NewTicker(s.cfg.CompactEvery)
	defer tick.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-s.kick:
		case <-tick.C:
		}
		s.Compact()
	}
}
