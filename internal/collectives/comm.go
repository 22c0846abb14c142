// Package collectives is a small MPI-like runtime: ranks, tagged
// point-to-point messages, tree-based collective operations and one-sided
// windows, over two interchangeable transports — an in-process transport
// (goroutines and channels, used to simulate hundreds of ranks in one
// process) and a TCP transport (length-prefixed frames, used to run real
// multi-process collective dumps over sockets).
//
// The collective algorithms (Barrier, Bcast, Gather, Allgather, Allreduce)
// are written once against the Comm interface and shared by both
// transports.
package collectives

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Tag labels a message stream between two ranks. User tags must be below
// TagUserLimit; the runtime reserves the rest for collectives and windows.
type Tag uint32

// Reserved tag space.
const (
	// TagUserLimit is the first reserved tag; user code must stay below.
	TagUserLimit Tag = 1 << 24

	tagCollBase Tag = TagUserLimit      // collective ops (sequence-salted)
	tagWinBase  Tag = TagUserLimit << 1 // one-sided window traffic
)

// ErrClosed is returned by operations on a closed communicator.
var ErrClosed = errors.New("collectives: communicator closed")

// Comm is a communicator: a fixed group of ranks 0..Size()-1 that can
// exchange tagged messages. All collective operations in this package are
// built on this interface.
//
// A Comm value belongs to exactly one rank; every rank of the group holds
// its own Comm. Methods may be called from multiple goroutines of that
// rank, but matching (from, tag) streams must not be shared.
type Comm interface {
	// Rank returns this process's rank in [0, Size).
	Rank() int
	// Size returns the number of ranks in the group.
	Size() int
	// Send delivers data to rank `to` under tag. It may block until the
	// transport accepts the message, but never until the receiver calls
	// Recv (buffered semantics). data is not retained after Send returns.
	Send(to int, tag Tag, data []byte) error
	// Recv blocks until a message from rank `from` with tag arrives and
	// returns its payload. Messages from one sender under one tag arrive
	// in send order.
	Recv(from int, tag Tag) ([]byte, error)
	// NextSeq returns a per-communicator sequence number used to salt
	// collective tags. All ranks must invoke collectives in the same
	// order (SPMD), so equal sequence numbers identify the same
	// collective call site.
	NextSeq() uint32
	// Stats returns a snapshot of this rank's transport counters.
	Stats() Stats
	// Close releases the communicator. Pending Recvs fail with ErrClosed.
	Close() error
}

// frameTaker is implemented by the transports that can take a sent buffer
// over instead of copying it (in-process, TCP).
type frameTaker interface {
	sendOwned(to int, tag Tag, frame []byte) error
}

// Handover sends frame to rank `to` under tag and hands the buffer over:
// after a nil return the caller must not touch frame again, and the
// receiver may get that very buffer. After an error it was not retained.
// A Comm that cannot take ownership — any wrapper, the fault-injection
// one included — gets a copying Send, after which frame goes back to the
// free list beneath it.
func Handover(c Comm, to int, tag Tag, frame []byte) error {
	if ft, ok := c.(frameTaker); ok {
		return ft.sendOwned(to, tag, frame)
	}
	err := c.Send(to, tag, frame)
	if err == nil {
		Release(c, frame)
	}
	return err
}

// Stats counts transport traffic for one rank. The experiment harness
// feeds these into the performance model, so they must reflect every byte
// a rank pushes to or pulls from its peers (self-sends are free and not
// counted).
type Stats struct {
	BytesSent int64
	BytesRecv int64
	MsgsSent  int64
	MsgsRecv  int64
	// CollOps, CollRounds and CollTime aggregate the collective calls
	// this rank participated in: one op per Barrier/Bcast/Gather/
	// Allgather/Reduce entered, the rounds it personally ran, and the
	// wall time it spent inside them.
	CollOps    int64
	CollRounds int64
	CollTime   time.Duration
	// ReduceRounds holds the per-round durations of this rank's most
	// recent Reduce (or the reduction half of an Allreduce): the
	// per-round timing of the paper's HMERGE tree. A rank that leaves
	// the tree early reports only the rounds it ran.
	ReduceRounds []time.Duration
	// LastBarrierExit is the wall-clock instant this rank left its most
	// recent Barrier. Barriers are the tightest synchronization points
	// the runtime has — every rank exits within one dissemination sweep —
	// so the cluster telemetry plane compares these stamps across ranks
	// to estimate inter-node clock offsets. Zero before the first
	// barrier.
	LastBarrierExit time.Time
	// Peers breaks traffic down by peer rank (index = rank). Self
	// traffic stays uncounted, like the totals. Receives of wildcard
	// (window) traffic are attributed where the transport knows the
	// sender: TCP counts them on the delivering connection, while the
	// in-process transport files them under the wildcard and only the
	// totals see them — sender-side attribution is exact on both.
	Peers []PeerStats
}

// PeerStats is one peer's slice of a rank's transport traffic.
type PeerStats struct {
	BytesSent int64
	BytesRecv int64
	MsgsSent  int64
	MsgsRecv  int64
}

// statsCounter is embedded by transports to track Stats atomically.
// initPeers must be called once at construction with the group size.
type statsCounter struct {
	bytesSent atomic.Int64
	bytesRecv atomic.Int64
	msgsSent  atomic.Int64
	msgsRecv  atomic.Int64

	collOps    atomic.Int64
	collRounds atomic.Int64
	collNanos  atomic.Int64

	peers []peerCounter

	// barrierExit is the unix-nano wall stamp of the latest Barrier exit
	// (0 = none yet).
	barrierExit atomic.Int64

	reduceMu     sync.Mutex
	reduceRounds []time.Duration // guarded by reduceMu
}

// peerCounter is the per-peer slice of a statsCounter.
type peerCounter struct {
	bytesSent atomic.Int64
	bytesRecv atomic.Int64
	msgsSent  atomic.Int64
	msgsRecv  atomic.Int64
}

func (s *statsCounter) initPeers(n int) {
	s.peers = make([]peerCounter, n)
}

func (s *statsCounter) countSend(to, n int) {
	s.bytesSent.Add(int64(n))
	s.msgsSent.Add(1)
	if to >= 0 && to < len(s.peers) {
		s.peers[to].bytesSent.Add(int64(n))
		s.peers[to].msgsSent.Add(1)
	}
}

func (s *statsCounter) countRecv(from, n int) {
	s.bytesRecv.Add(int64(n))
	s.msgsRecv.Add(1)
	if from >= 0 && from < len(s.peers) {
		s.peers[from].bytesRecv.Add(int64(n))
		s.peers[from].msgsRecv.Add(1)
	}
}

// countColl records one finished collective op: how many rounds this rank
// ran and how long it spent inside the call.
func (s *statsCounter) countColl(rounds int, d time.Duration) {
	s.collOps.Add(1)
	s.collRounds.Add(int64(rounds))
	s.collNanos.Add(d.Nanoseconds())
}

// noteBarrierExit stamps the completion of one Barrier.
func (s *statsCounter) noteBarrierExit(t time.Time) {
	s.barrierExit.Store(t.UnixNano())
}

// setReduceRounds replaces the per-round timing record of the most recent
// reduction.
func (s *statsCounter) setReduceRounds(rounds []time.Duration) {
	s.reduceMu.Lock()
	s.reduceRounds = rounds
	s.reduceMu.Unlock()
}

func (s *statsCounter) snapshot() Stats {
	st := Stats{
		BytesSent:  s.bytesSent.Load(),
		BytesRecv:  s.bytesRecv.Load(),
		MsgsSent:   s.msgsSent.Load(),
		MsgsRecv:   s.msgsRecv.Load(),
		CollOps:    s.collOps.Load(),
		CollRounds: s.collRounds.Load(),
		CollTime:   time.Duration(s.collNanos.Load()),
	}
	if ns := s.barrierExit.Load(); ns != 0 {
		st.LastBarrierExit = time.Unix(0, ns)
	}
	s.reduceMu.Lock()
	st.ReduceRounds = append([]time.Duration(nil), s.reduceRounds...)
	s.reduceMu.Unlock()
	if len(s.peers) > 0 {
		st.Peers = make([]PeerStats, len(s.peers))
		for i := range s.peers {
			st.Peers[i] = PeerStats{
				BytesSent: s.peers[i].bytesSent.Load(),
				BytesRecv: s.peers[i].bytesRecv.Load(),
				MsgsSent:  s.peers[i].msgsSent.Load(),
				MsgsRecv:  s.peers[i].msgsRecv.Load(),
			}
		}
	}
	return st
}

// collRecorder is the internal hook the collective algorithms use to
// surface round timings through Stats. Both transports implement it by
// embedding statsCounter; third-party Comm implementations simply miss
// out on collective timing.
type collRecorder interface {
	countColl(rounds int, d time.Duration)
	setReduceRounds(rounds []time.Duration)
	noteBarrierExit(t time.Time)
}

// checkPeer validates a peer rank.
func checkPeer(c Comm, peer int) error {
	if peer < 0 || peer >= c.Size() {
		return fmt.Errorf("collectives: peer rank %d out of range [0,%d)", peer, c.Size())
	}
	return nil
}

// checkRecv validates a receive: the AnyRank wildcard is only meaningful
// for wildcard-delivery tags (transports file those under AnyRank), and a
// wildcard tag can ONLY be received with AnyRank — a specific-sender
// receive on it would block forever.
func checkRecv(c Comm, from int, tag Tag) error {
	wild := tag >= tagWinBase
	if from == AnyRank {
		if !wild {
			return fmt.Errorf("collectives: AnyRank receive on non-wildcard tag %#x", uint32(tag))
		}
		return nil
	}
	if wild {
		return fmt.Errorf("collectives: wildcard tag %#x must be received with AnyRank", uint32(tag))
	}
	return checkPeer(c, from)
}
