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
package storage

import (
	"errors"
	"fmt"
	"sort"
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

// Store is a node-local chunk store.
type Store interface {
	// PutChunk stores data under fp, incrementing its reference count if
	// already present. The store keeps its own copy of data.
	PutChunk(fp fingerprint.FP, data []byte) error
	// GetChunk returns the content of fp, or ErrNotFound.
	GetChunk(fp fingerprint.FP) ([]byte, error)
	// HasChunk reports whether fp is stored.
	HasChunk(fp fingerprint.FP) (bool, error)
	// ReleaseChunk decrements fp's reference count, deleting the chunk
	// when it drops to zero.
	ReleaseChunk(fp fingerprint.FP) error
	// PutBlob persists a small named metadata blob (dataset recipes,
	// restore hints). The store keeps its own copy of data.
	PutBlob(name string, data []byte) error
	// GetBlob loads a persisted blob, or ErrNotFound.
	GetBlob(name string) ([]byte, error)
	// Usage returns the unique bytes and unique chunk count held.
	Usage() (bytes int64, chunks int)
	// Fail simulates the loss of the node: all content becomes
	// inaccessible and every subsequent operation returns ErrFailed.
	Fail()
	// Failed reports whether the node has failed.
	Failed() bool
}

// Committer is implemented by stores with an explicit durability point:
// Commit makes every put, release and blob write since the previous
// Commit survive a crash, atomically — after a kill, the store reopens
// to the last committed state, never a prefix of an uncommitted one.
type Committer interface {
	Commit() error
}

// Commit drives a store's checkpoint commit if it has one. Stores
// without an explicit commit point (the in-memory store) are a no-op,
// so pipeline code calls this unconditionally. Instrumentation wrappers
// exposing Inner() Store are unwrapped.
func Commit(s Store) error {
	for {
		if c, ok := s.(Committer); ok {
			return c.Commit()
		}
		w, ok := s.(interface{ Inner() Store })
		if !ok {
			return nil
		}
		s = w.Inner()
	}
}

// memStore is the in-memory Store.
type memStore struct {
	mu     sync.Mutex
	chunks map[fingerprint.FP]*memChunk // guarded by mu
	blobs  map[string][]byte            // guarded by mu
	bytes  int64                        // guarded by mu
	failed bool                         // guarded by mu
}

type memChunk struct {
	data []byte
	refs int
}

// NewMem returns an empty in-memory store.
func NewMem() Store {
	return &memStore{
		chunks: make(map[fingerprint.FP]*memChunk),
		blobs:  make(map[string][]byte),
	}
}

func (s *memStore) PutChunk(fp fingerprint.FP, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failed {
		return ErrFailed
	}
	if c, ok := s.chunks[fp]; ok {
		c.refs++
		return nil
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	s.chunks[fp] = &memChunk{data: cp, refs: 1}
	s.bytes += int64(len(data))
	return nil
}

func (s *memStore) GetChunk(fp fingerprint.FP) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failed {
		return nil, ErrFailed
	}
	c, ok := s.chunks[fp]
	if !ok {
		return nil, chunkNotFound(fp)
	}
	return c.data, nil
}

func (s *memStore) HasChunk(fp fingerprint.FP) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failed {
		return false, ErrFailed
	}
	_, ok := s.chunks[fp]
	return ok, nil
}

func (s *memStore) ReleaseChunk(fp fingerprint.FP) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failed {
		return ErrFailed
	}
	c, ok := s.chunks[fp]
	if !ok {
		return fmt.Errorf("release chunk %s: %w", fp.Short(), ErrNotFound)
	}
	c.refs--
	if c.refs == 0 {
		s.bytes -= int64(len(c.data))
		delete(s.chunks, fp)
	}
	return nil
}

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
	return s.bytes, len(s.chunks)
}

func (s *memStore) Fail() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.failed = true
	s.chunks = nil
	s.blobs = nil
	s.bytes = 0
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
	usage := c.UsageByNode()
	sort.Slice(usage, func(i, j int) bool { return usage[i] > usage[j] })
	if len(usage) == 0 {
		return 0
	}
	return usage[0]
}
