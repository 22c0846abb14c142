// Package storage models the node-local storage devices the paper dumps
// to: per-node chunk stores with reference counting (a chunk stored for
// several datasets or positions is kept once), recipe persistence, usage
// accounting, and failure injection for resilience tests.
//
// Two implementations are provided: an in-memory store (used when
// simulating hundreds of ranks in one process) and a log-structured
// segment store (segment.go) with crash-safe checkpoint commit and
// background compaction — the durable engine of the socket-transport
// daemon and the examples that want real files on a real local device.
// Both, and the Timed wrapper, implement every Store method with one path
// each: the summed puts (PutChunkSum, and PutRecords for a landed batch),
// the summed and batched reads (GetChunkSum, ReadRecords) and the
// durability point (Commit) are methods the dump and the restore call on
// any store, with no per-record fallback behind them.
//
// Who verifies what: a chunk's sum (fingerprint.ChunkSum, a CRC-32C over
// fingerprint ‖ bytes) is taken once per hop and travels with it. Its
// owner hashes the chunk at ingest and sums it in the same pass, and hands
// that sum to its own store (PutChunkSum). A partner reads the fingerprint
// from the owner's recipe and sums each received record under it; the put
// frame's CRC-32C covers those record sums, so a frame that passes vouches
// for bytes bound to the recipe's fingerprints, and the partner hands each
// sum to its store with the record (Record.Sum). A restoring rank checks
// what a peer sent against the sum the peer's store read it under, and
// hands that sum to its own store. So no store hashes or sums a chunk on
// the way in: the caller vouches for the sum, and only PutChunk, for a
// caller that holds none, sums the bytes itself. Every read — GetChunk,
// GetChunkSum, or ReadRecords where it placed each chunk — checks the
// stored sum and returns ErrCorrupt on a mismatch: a flipped byte, a
// wrong sum handed in, or an index row pointing at another chunk's bytes.
// GetChunkSum hands that sum on with the bytes, so a fetch reply carries
// it and CheckSum at the requester covers the hop from store to store.
//
// The in-memory store packs chunk bytes into append-only 256 KiB arenas
// behind a pointer-free fingerprint index: one heap object per arena, not
// per chunk. Each chunk's 4-byte sum sits in its index slot. A landed put
// frame handed over through PutRecords becomes an arena itself when at
// least half of it is new chunk bytes, and PutRecords says so: a frame no
// store kept goes back to its transport for the next receive. The segment
// store never keeps one: it writes the frame's new records from it. An arena whose chunks are all
// released is dropped; when the dead bytes exceed both the live bytes and
// one arena, the live chunks are repacked into fresh arenas. Arenas are
// never written in place, so bytes GetChunk returned stay valid.
package storage

import (
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
	"sync"

	"dedupcr/internal/fingerprint"
)

// ErrFailed is returned by operations on a store whose node has failed.
var ErrFailed = errors.New("storage: node failed")

// ErrNotFound is returned when a chunk or recipe is absent.
var ErrNotFound = errors.New("storage: not found")

// chunkNotFound is GetChunk's miss: it matches ErrNotFound and prints as
// "chunk <fp>: storage: not found", but builds that text only when it is
// printed — a wiped rank misses at every position of its recipe.
type chunkNotFound fingerprint.FP

func (e chunkNotFound) Error() string {
	return "chunk " + fingerprint.FP(e).Short() + ": " + ErrNotFound.Error()
}

func (e chunkNotFound) Unwrap() error { return ErrNotFound }

// ErrCorrupt is returned by GetChunk when a chunk's bytes no longer match
// the checksum taken when they were stored.
var ErrCorrupt = errors.New("storage: chunk corrupt")

// sumSize is the size of a chunk's at-rest checksum in a segment index.
const sumSize = 4

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// chunkSum is fingerprint.ChunkSum of a fingerprint held by value, such as
// a Store method's argument. It folds fp in a byte at a time: handing
// crc32 a slice of it would move fp to the heap on every call. A caller
// whose fingerprint is already addressable calls fingerprint.ChunkSum,
// which is faster.
func chunkSum(fp fingerprint.FP, data []byte) uint32 {
	crc := ^uint32(0)
	for _, b := range fp {
		crc = castagnoli[byte(crc)^b] ^ crc>>8
	}
	return crc32.Update(^crc, castagnoli, data)
}

// CheckSum returns ErrCorrupt unless sum is fingerprint.ChunkSum(fp, data),
// the at-rest sum of data stored under *fp. A sum from GetChunkSum vouches
// for bytes bound to *fp, so bytes that pass against it are *fp's,
// wherever they travelled since.
func CheckSum(fp *fingerprint.FP, data []byte, sum uint32) error {
	if fingerprint.ChunkSum(fp, data) != sum {
		return chunkCorrupt(*fp)
	}
	return nil
}

func chunkCorrupt(fp fingerprint.FP) error {
	return fmt.Errorf("chunk %s: %w", fp.Short(), ErrCorrupt)
}

// Store is a node-local chunk store.
type Store interface {
	// PutChunk stores data under fp, incrementing its reference count if
	// already present. The store keeps its own copy of data, and sums it
	// (fingerprint.ChunkSum). The caller vouches that data hashes to fp:
	// the store does not SHA-1 it. A caller that holds the sum already
	// hands it over with PutChunkSum instead.
	PutChunk(fp fingerprint.FP, data []byte) error
	// PutChunkSum stores data under fp as PutChunk does, keeping sum as its
	// at-rest sum: the caller vouches that sum is fingerprint.ChunkSum(fp,
	// data), and a wrong one makes every read of the chunk ErrCorrupt.
	PutChunkSum(fp fingerprint.FP, data []byte, sum uint32) error
	// PutRecords stores each record of payload as PutChunkSum would with
	// its Sum, in order, and returns how many it stored: all of them, or
	// those before the one that failed. It also reports whether it kept
	// payload: if so, the caller must not write to it again; if not, the
	// store is done with it when PutRecords returns.
	PutRecords(payload []byte, recs []Record) (n int, kept bool, err error)
	// GetChunk returns the content of fp, ErrNotFound, or ErrCorrupt if
	// the stored bytes no longer match the checksum PutChunk took. Bytes
	// it returns are the bytes PutChunk was given.
	GetChunk(fp fingerprint.FP) ([]byte, error)
	// GetChunkSum returns fp's bytes as GetChunk does, with the stored sum
	// they were checked against, which CheckSum accepts them under: nothing
	// is hashed twice.
	GetChunkSum(fp fingerprint.FP) ([]byte, uint32, error)
	// ReadRecords reads each record's chunk into dst[Off:Off+Len] and sets
	// errs[i], which must exist for every record, to what GetChunk and a
	// length compare give: nil once the bytes are placed, the store's error
	// (ErrNotFound, ErrCorrupt, ErrFailed, a read error), or a LengthError.
	ReadRecords(dst []byte, recs []Record, errs []error)
	// ReleaseChunk decrements fp's reference count, deleting the chunk
	// when it drops to zero.
	ReleaseChunk(fp fingerprint.FP) error
	// PutBlob persists a small named metadata blob (dataset recipes,
	// restore hints). The store keeps its own copy of data. A store with
	// a durability point makes it durable at its next Commit, not before.
	PutBlob(name string, data []byte) error
	// GetBlob loads a persisted blob, or ErrNotFound.
	GetBlob(name string) ([]byte, error)
	// Commit makes every chunk put and release and every blob put since
	// the previous Commit survive a crash, atomically: after a kill, the
	// store's chunks and blobs reopen to the last committed state
	// together, never a prefix of an uncommitted one. The in-memory store
	// has nothing to make durable.
	Commit() error
	// Usage returns the unique bytes and unique chunk count held.
	Usage() (bytes int64, chunks int)
	// Fail simulates the loss of the node: all content becomes
	// inaccessible and every subsequent operation returns ErrFailed.
	Fail()
	// Failed reports whether the node has failed.
	Failed() bool
}

// Commit is s.Commit as a function value.
func Commit(s Store) error { return s.Commit() }

// Record is one chunk of a landed payload: Len bytes at Off, stored
// under FP. On a put, Sum is the chunk's sum, fingerprint.ChunkSum(FP,
// bytes), which the caller vouches for; reads ignore it.
type Record struct {
	FP       fingerprint.FP
	Off, Len int32
	Sum      uint32
}

// LengthError is ReadRecords' outcome for a chunk stored at another length
// than its record's.
type LengthError struct{ Got, Want int }

func (e LengthError) Error() string {
	return fmt.Sprintf("storage: chunk is %d bytes, not %d", e.Got, e.Want)
}

// arenaSize is the capacity of one in-memory arena. A chunk that does not
// fit an empty arena gets an arena of its own, sized to it.
const arenaSize = 256 << 10

// memStore is the in-memory Store. Chunk bytes are appended to
// append-only arenas, or a landed payload is kept as one, and the index
// maps each fingerprint to a pointer-free slot, so the garbage collector
// has nothing to mark per chunk however many the store holds.
//
// Space comes back two ways. An arena whose chunks are all released is
// dropped. Once the dead bytes — released chunks in arenas still held,
// and an adopted payload's bytes that were never a new chunk — exceed
// both the live bytes and one arena, every live chunk is repacked into
// fresh arenas. No arena is ever written in place, so a slice GetChunk
// handed out keeps its bytes.
type memStore struct {
	mu     sync.Mutex
	index  map[fingerprint.FP]slot // guarded by mu
	arenas []arena                 // guarded by mu; a dropped arena has a nil buf
	free   []int32                 // guarded by mu: indices of dropped arenas
	cur    int32                   // guarded by mu: the arena puts append to, or -1
	blobs  map[string][]byte       // guarded by mu
	bytes  int64                   // guarded by mu: live chunk bytes
	dead   int64                   // guarded by mu: arena bytes not live
	placed []int32                 // guarded by mu: PutRecords' new records
	failed bool                    // guarded by mu
}

// slot locates one chunk: length bytes at off in arenas[arena], and their
// sum. A zero-length chunk has no arena (-1) and no sum: there are no
// bytes to change.
type slot struct {
	arena, off, length, refs int32
	sum                      uint32
}

// arena is one append-only run of chunk bytes, or an adopted payload with
// its length set to its capacity; live counts the bytes of its chunks
// still referenced.
type arena struct {
	buf  []byte
	live int64
}

// NewMem returns an empty in-memory store.
func NewMem() Store {
	return &memStore{
		index: make(map[fingerprint.FP]slot),
		cur:   -1,
		blobs: make(map[string][]byte),
	}
}

func (s *memStore) PutChunk(fp fingerprint.FP, data []byte) error {
	return s.put(fp, data, nil)
}

func (s *memStore) PutChunkSum(fp fingerprint.FP, data []byte, sum uint32) error {
	return s.put(fp, data, &sum)
}

// put stores a chunk under the sum given, or under one it takes if that
// is nil and the chunk is new.
func (s *memStore) put(fp fingerprint.FP, data []byte, sum *uint32) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failed {
		return ErrFailed
	}
	if sl, ok := s.index[fp]; ok {
		sl.refs++
		s.index[fp] = sl
		return nil
	}
	if sum == nil {
		own := chunkSum(fp, data)
		sum = &own
	}
	s.index[fp] = s.placeLocked(data, *sum, 1)
	s.bytes += int64(len(data))
	return nil
}

// PutRecords indexes every new record, with its Sum, as if payload were
// adopted as an arena, and keeps it so when the new records fill at least
// half its capacity. Otherwise it copies them into arenas as PutChunk
// does: a frame of mostly duplicates would hold its capacity for a few
// live bytes.
func (s *memStore) PutRecords(payload []byte, recs []Record) (int, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failed {
		return 0, false, ErrFailed
	}
	a := s.arenaLocked(nil) // reserved: no put lands in it meanwhile
	var fresh int64
	s.placed = s.placed[:0]
	for i, r := range recs {
		if sl, ok := s.index[r.FP]; ok {
			sl.refs++
			s.index[r.FP] = sl
			continue
		}
		sl := slot{arena: -1, refs: 1}
		if r.Len > 0 {
			sl = slot{arena: a, off: r.Off, length: r.Len, refs: 1, sum: r.Sum}
			s.placed = append(s.placed, int32(i))
		}
		s.index[r.FP] = sl
		fresh += int64(r.Len)
	}
	s.bytes += fresh
	if fresh > 0 && 2*fresh >= int64(cap(payload)) {
		s.arenas[a] = arena{buf: payload[:cap(payload)], live: fresh}
		s.dead += int64(cap(payload)) - fresh
		return len(recs), true, nil
	}
	for _, i := range s.placed {
		r := recs[i]
		sl := s.index[r.FP]
		s.index[r.FP] = s.placeLocked(payload[r.Off:r.Off+r.Len], sl.sum, sl.refs)
	}
	s.free = append(s.free, a)
	return len(recs), false, nil
}

// placeLocked copies data into an arena and returns its slot.
func (s *memStore) placeLocked(data []byte, sum uint32, refs int32) slot {
	n := len(data)
	if n == 0 {
		return slot{arena: -1, refs: refs}
	}
	a := s.cur
	if n > arenaSize {
		a = s.arenaLocked(make([]byte, 0, n))
	} else if a < 0 || cap(s.arenas[a].buf)-len(s.arenas[a].buf) < n {
		a = s.arenaLocked(make([]byte, 0, arenaSize))
		s.cur = a
	}
	ar := &s.arenas[a]
	off := len(ar.buf)
	ar.buf = append(ar.buf, data...)
	ar.live += int64(n)
	return slot{arena: a, off: int32(off), length: int32(n), refs: refs, sum: sum}
}

// arenaLocked installs buf as an arena, in a dropped arena's index if
// there is one.
func (s *memStore) arenaLocked(buf []byte) int32 {
	a := int32(len(s.arenas))
	if k := len(s.free); k > 0 {
		a, s.free = s.free[k-1], s.free[:k-1]
	} else {
		s.arenas = append(s.arenas, arena{})
	}
	s.arenas[a] = arena{buf: buf}
	return a
}

func (s *memStore) GetChunk(fp fingerprint.FP) ([]byte, error) {
	data, _, err := s.GetChunkSum(fp)
	return data, err
}

// GetChunkSum returns the chunk's bytes in place, capacity clipped to
// length, once they match their slot's sum, and that sum. The check runs
// outside the mutex: the bytes were written before the slot was published
// and are never written again. An empty chunk keeps no sum; its sum is
// taken here.
func (s *memStore) GetChunkSum(fp fingerprint.FP) ([]byte, uint32, error) {
	s.mu.Lock()
	if s.failed {
		s.mu.Unlock()
		return nil, 0, ErrFailed
	}
	sl, ok := s.index[fp]
	var buf []byte
	if ok && sl.arena >= 0 {
		buf = s.arenas[sl.arena].buf
	}
	s.mu.Unlock()
	switch {
	case !ok:
		return nil, 0, chunkNotFound(fp)
	case sl.arena < 0:
		return []byte{}, chunkSum(fp, nil), nil
	}
	end := sl.off + sl.length
	data := buf[sl.off:end:end]
	if chunkSum(fp, data) != sl.sum {
		return nil, 0, chunkCorrupt(fp)
	}
	return data, sl.sum, nil
}

// ReadRecords looks every record's slot up under one hold of the mutex,
// then checks and copies the bytes outside it, as GetChunkSum does. A
// chunk's sum is checked before its length is compared, so a corrupt
// chunk is ErrCorrupt whatever its length, as GetChunk has it.
func (s *memStore) ReadRecords(dst []byte, recs []Record, errs []error) {
	type found struct {
		buf []byte
		sl  slot
	}
	at := make([]found, len(recs))
	s.mu.Lock()
	failed := s.failed
	for i, r := range recs {
		sl, ok := s.index[r.FP] // a miss is the zero slot: no held slot has zero refs
		if ok && sl.arena >= 0 {
			at[i].buf = s.arenas[sl.arena].buf
		}
		at[i].sl = sl
	}
	s.mu.Unlock()
	for i, r := range recs {
		sl := at[i].sl
		end := sl.off + sl.length
		data := at[i].buf[sl.off:end:end]
		switch {
		case failed:
			errs[i] = ErrFailed
		case sl.refs == 0:
			errs[i] = chunkNotFound(r.FP)
		case sl.arena >= 0 && fingerprint.ChunkSum(&recs[i].FP, data) != sl.sum:
			errs[i] = chunkCorrupt(r.FP)
		case sl.length != r.Len:
			errs[i] = LengthError{Got: int(sl.length), Want: int(r.Len)}
		default:
			copy(dst[r.Off:r.Off+r.Len], data)
			errs[i] = nil
		}
	}
}

func (s *memStore) ReleaseChunk(fp fingerprint.FP) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failed {
		return ErrFailed
	}
	sl, ok := s.index[fp]
	if !ok {
		return fmt.Errorf("release chunk %s: %w", fp.Short(), ErrNotFound)
	}
	if sl.refs--; sl.refs > 0 {
		s.index[fp] = sl
		return nil
	}
	delete(s.index, fp)
	s.bytes -= int64(sl.length)
	if sl.arena < 0 {
		return nil
	}
	ar := &s.arenas[sl.arena]
	ar.live -= int64(sl.length)
	s.dead += int64(sl.length)
	if ar.live == 0 { // drop it: none of its bytes are held any more
		s.dead -= int64(len(ar.buf))
		*ar = arena{}
		s.free = append(s.free, sl.arena)
		if sl.arena == s.cur {
			s.cur = -1
		}
	}
	if s.dead > s.bytes && s.dead > arenaSize {
		s.repackLocked()
	}
	return nil
}

// repackLocked copies every live chunk into fresh arenas and lets the old
// ones go; slices handed out earlier keep them alive as long as needed.
// Each chunk takes its stored sum along, not a new one, so bytes that
// changed before the repack still fail the check after it.
func (s *memStore) repackLocked() {
	old := s.arenas
	s.arenas, s.free, s.cur, s.dead = nil, nil, -1, 0
	for fp, sl := range s.index {
		if sl.arena >= 0 {
			s.index[fp] = s.placeLocked(old[sl.arena].buf[sl.off:sl.off+sl.length], sl.sum, sl.refs)
		}
	}
}

// Commit has nothing to do: the in-memory store keeps nothing across a
// crash.
func (s *memStore) Commit() error { return nil }

func (s *memStore) PutBlob(name string, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failed {
		return ErrFailed
	}
	s.blobs[name] = append([]byte(nil), data...)
	return nil
}

func (s *memStore) GetBlob(name string) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failed {
		return nil, ErrFailed
	}
	b, ok := s.blobs[name]
	if !ok {
		return nil, fmt.Errorf("blob %q: %w", name, ErrNotFound)
	}
	return b, nil
}

func (s *memStore) Usage() (int64, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes, len(s.index)
}

func (s *memStore) Fail() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.failed = true
	s.index, s.arenas, s.free, s.cur = nil, nil, nil, -1
	s.blobs = nil
	s.bytes, s.dead = 0, 0
}

func (s *memStore) Failed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.failed
}

// Cluster is the set of node-local stores of a simulated machine room,
// one store per rank. (The paper maps one process per core and replicates
// across nodes; for the simulation we give each rank its own local store,
// the worst case for replication overhead.)
type Cluster struct {
	stores []Store
}

// NewCluster creates n in-memory node stores.
func NewCluster(n int) *Cluster {
	c := &Cluster{stores: make([]Store, n)}
	for i := range c.stores {
		c.stores[i] = NewMem()
	}
	return c
}

// Size returns the number of nodes.
func (c *Cluster) Size() int { return len(c.stores) }

// Node returns the store of the given rank.
func (c *Cluster) Node(rank int) Store { return c.stores[rank] }

// FailNodes simulates the loss of the given ranks' local storage.
func (c *Cluster) FailNodes(ranks ...int) {
	for _, r := range ranks {
		c.stores[r].Fail()
	}
}

// Replace swaps in a fresh empty store for rank, modelling a failed node
// coming back (or being substituted) with blank local storage before a
// restore.
func (c *Cluster) Replace(rank int) {
	c.stores[rank] = NewMem()
}

// TotalUsage sums unique bytes and chunk counts over all surviving nodes.
func (c *Cluster) TotalUsage() (bytes int64, chunks int) {
	for _, s := range c.stores {
		if s.Failed() {
			continue
		}
		b, n := s.Usage()
		bytes += b
		chunks += n
	}
	return bytes, chunks
}

// UsageByNode returns per-node unique byte usage, sorted by rank.
func (c *Cluster) UsageByNode() []int64 {
	out := make([]int64, len(c.stores))
	for i, s := range c.stores {
		if s.Failed() {
			continue
		}
		out[i], _ = s.Usage()
	}
	return out
}

// MaxUsage returns the highest per-node unique byte usage.
func (c *Cluster) MaxUsage() int64 {
	return slices.Max(append(c.UsageByNode(), 0))
}
