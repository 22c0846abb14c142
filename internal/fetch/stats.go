package fetch

import (
	"sync"
	"time"

	"dedupcr/internal/collectives"
	"dedupcr/internal/metrics"
)

// Stats is an instrumented fetch client: it wraps the package-level Blob
// call and records per-exchange latency, per-peer traffic and
// miss counts — the raw material of restore read-amplification and
// fetch-imbalance reporting. Batched exchanges (Pipeline) are recorded
// by their caller through Exchange, once it has judged every answer. A
// nil *Stats is valid and records nothing, so instrumented call sites
// never branch on "is instrumentation on".
//
// All methods are safe for concurrent use. The restore keeps several
// batched exchanges in flight on one goroutine.
type Stats struct {
	mu         sync.Mutex
	latency    *metrics.Histogram
	peerChunks []int64 // indexed by peer rank
	peerBytes  []int64
	requests   int64
	misses     int64
}

// NewStats creates an instrumented fetch client for a communicator of n
// ranks.
func NewStats(n int) *Stats {
	return &Stats{
		latency:    metrics.NewHistogram(),
		peerChunks: make([]int64, n),
		peerBytes:  make([]int64, n),
	}
}

// record notes one single-call RPC: an exchange that asked for one thing.
func (s *Stats) record(peer int, data []byte, found bool, elapsed time.Duration) {
	if found {
		s.Exchange(peer, 1, 1, int64(len(data)), elapsed)
	} else {
		s.Exchange(peer, 1, 0, 0, elapsed)
	}
}

// Exchange records one batched exchange with peer: asked fingerprints
// went out in one request, served of them (servedBytes in all) came back
// and were accepted, and the reply took elapsed to arrive. The rest —
// answered not-found, or rejected by the caller — count as misses. One
// latency sample per exchange, however many fingerprints it carried.
func (s *Stats) Exchange(peer, asked, served int, servedBytes int64, elapsed time.Duration) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.requests += int64(asked)
	s.misses += int64(asked - served)
	s.latency.Record(int64(elapsed))
	if peer >= 0 && peer < len(s.peerChunks) {
		s.peerChunks[peer] += int64(served)
		s.peerBytes[peer] += servedBytes
	}
}

// Blob fetches a named blob from peer, recording the RPC. Blob payloads
// count toward per-peer traffic like chunks do (the restore-metadata
// sweep is real network load).
func (s *Stats) Blob(c collectives.Comm, class Class, peer int, name string) ([]byte, bool, error) {
	start := time.Now()
	data, found, err := Blob(c, class, peer, name)
	if err == nil {
		s.record(peer, data, found, time.Since(start))
	}
	return data, found, err
}

// Requests returns how many chunks or blobs were asked of a peer (misses
// included): one per single-call RPC, one per fingerprint of a batched
// exchange.
func (s *Stats) Requests() int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.requests
}

// Misses returns how many of those asks came back not-found or were
// rejected by the caller.
func (s *Stats) Misses() int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.misses
}

// Latency returns the latency histogram (nanoseconds), one sample per
// exchange — a single-call RPC or a whole batched request — or nil if
// nothing was recorded.
func (s *Stats) Latency() *metrics.Histogram {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.latency.Count() == 0 {
		return nil
	}
	return s.latency
}

// PeerChunks returns a copy of the per-peer served-chunk counts (indexed
// by peer rank).
func (s *Stats) PeerChunks() []int64 {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]int64(nil), s.peerChunks...)
}

// PeerBytes returns a copy of the per-peer fetched-byte counts.
func (s *Stats) PeerBytes() []int64 {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]int64(nil), s.peerBytes...)
}

// SourceRanks returns how many distinct peers served at least one chunk
// or blob.
func (s *Stats) SourceRanks() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, c := range s.peerChunks {
		if c > 0 {
			n++
		}
	}
	return n
}
