package collectives

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Window is a one-sided communication window: a byte region a rank exposes
// so that partners can Put data at offsets they computed independently
// (Algorithm 3 of the paper). Because the offset planning tells the owner
// exactly how many bytes will arrive, the window is opened with the exact
// expected size and completion needs no extra synchronization: the owner
// simply drains puts until the window is full.
//
// Usage (all ranks):
//
//	win := OpenWindow(comm, expectedBytes, epoch)
//	... win.Put(target, offset, data) for each partner ...
//	buf, err := win.Wait()   // blocks until the window is full
//
// Put and Wait may be interleaved freely; the wire protocol is symmetric
// across transports (a header frame with the destination offset followed
// by the payload in the same frame).
//
// Put is safe for concurrent use from multiple goroutines of the owning
// rank (the parallel dump pipeline drives one put stream per partner):
// the fill and instrumentation counters are atomic, and concurrent local
// deposits are race-free because the offset planning guarantees disjoint
// destination regions. Wait must be called from a single goroutine, after
// or concurrently with the puts.
type Window struct {
	comm   Comm
	tag    Tag
	buf    []byte
	filled atomic.Int64

	// OnPut, when set before the first Put, observes every put's payload
	// size and wall-clock latency (including transport blocking). The
	// dump pipeline points it at a latency histogram. It may be invoked
	// concurrently and must be safe for that.
	OnPut func(bytes int, d time.Duration)

	// PutTimeout, when positive, bounds each remote Put's transport time
	// on deadline-capable transports (TCP); a timed-out put fails with a
	// transient, retryable error. Other transports ignore it. Set it
	// before the first Put.
	PutTimeout time.Duration

	puts     atomic.Int64
	putBytes atomic.Int64
	waitTime time.Duration
}

// WindowStats reports what one window epoch did: outbound puts (remote
// and local) and the time spent draining the own window.
type WindowStats struct {
	// Puts and PutBytes count this rank's outgoing Put calls.
	Puts     int
	PutBytes int64
	// WaitTime is the wall time Wait spent until the window was full.
	WaitTime time.Duration
}

// Stats returns the window's instrumentation. Call it after Wait.
func (w *Window) Stats() WindowStats {
	return WindowStats{Puts: int(w.puts.Load()), PutBytes: w.putBytes.Load(), WaitTime: w.waitTime}
}

// windowTag derives the tag for a window epoch. Epochs must be issued in
// the same order on all ranks (one per collective dump).
func windowTag(epoch uint32) Tag {
	return tagWinBase + Tag(epoch%(1<<20))
}

// OpenWindow exposes a window of exactly size bytes for the given epoch.
// Every rank participating in the epoch must open a window (possibly of
// size zero) with the same epoch number.
func OpenWindow(c Comm, size int64, epoch uint32) *Window {
	return &Window{comm: c, tag: windowTag(epoch), buf: make([]byte, size)}
}

// Put writes data into the window of rank target at the given byte offset.
// The caller must have planned offsets so that puts never overlap and the
// target window is exactly filled; violations are detected by the target.
func (w *Window) Put(target int, offset int64, data []byte) error {
	if err := checkPeer(w.comm, target); err != nil {
		return err
	}
	start := time.Now()
	err := w.put(target, offset, data)
	if err == nil {
		w.puts.Add(1)
		w.putBytes.Add(int64(len(data)))
		if w.OnPut != nil {
			w.OnPut(len(data), time.Since(start))
		}
	}
	return err
}

// putOffsetHeader is the destination offset every put frame starts with.
const putOffsetHeader = 8

// MaxPutBytes is the largest put payload that, with its offset header,
// fits the receiver's first frame allocation (frameAllocChunk): a put of
// at most this many bytes is read into one buffer allocated once, never
// through readFrame's grow-and-copy path. Senders that gather a
// contiguous region into several puts cut it at this size.
const MaxPutBytes = frameAllocChunk - putOffsetHeader

// putFrames recycles put frames of up to frameAllocChunk bytes. The
// transports do not retain data after Send returns, so a frame goes back
// as soon as the send does.
var putFrames = sync.Pool{New: func() any {
	b := make([]byte, 0, frameAllocChunk)
	return &b
}}

func (w *Window) put(target int, offset int64, data []byte) error {
	if target == w.comm.Rank() {
		// Local put: write directly.
		return w.deposit(offset, data)
	}
	var frame []byte
	if len(data) <= MaxPutBytes {
		fb := putFrames.Get().(*[]byte)
		defer putFrames.Put(fb)
		frame = (*fb)[:putOffsetHeader+len(data)]
	} else {
		frame = make([]byte, putOffsetHeader+len(data))
	}
	binary.BigEndian.PutUint64(frame, uint64(offset))
	copy(frame[putOffsetHeader:], data)
	if w.PutTimeout > 0 {
		if ds, ok := w.comm.(DeadlineSender); ok {
			return ds.SendDeadline(target, w.tag, frame, time.Now().Add(w.PutTimeout))
		}
	}
	return w.comm.Send(target, w.tag, frame)
}

// deposit writes payload at offset into the local window buffer. Callers
// depositing concurrently must target disjoint regions (the planner
// guarantees it); the fill counter is atomic, so the completion check in
// Wait observes every deposit's copy through the counter's
// happens-before chain.
func (w *Window) deposit(offset int64, data []byte) error {
	if offset < 0 || offset+int64(len(data)) > int64(len(w.buf)) {
		return fmt.Errorf("collectives: put of %d bytes at offset %d exceeds window of %d bytes",
			len(data), offset, len(w.buf))
	}
	copy(w.buf[offset:], data)
	if f := w.filled.Add(int64(len(data))); f > int64(len(w.buf)) {
		return fmt.Errorf("collectives: window overfilled: %d bytes deposited into %d-byte window",
			f, len(w.buf))
	}
	return nil
}

// Wait blocks until the window is exactly full and returns its buffer.
// Senders are identified implicitly: any rank may contribute, and the
// exact-size property doubles as the completion fence.
//
// Wait assumes non-overlapping puts (guaranteed by the offset planning);
// it counts bytes, so overlapping puts would stall or overfill, both of
// which are reported as errors.
func (w *Window) Wait() ([]byte, error) {
	start := time.Now()
	defer func() { w.waitTime += time.Since(start) }()
	for w.filled.Load() < int64(len(w.buf)) {
		frame, err := w.recvAny()
		if err != nil {
			return nil, err
		}
		if len(frame) < putOffsetHeader {
			return nil, fmt.Errorf("collectives: malformed window frame (%d bytes)", len(frame))
		}
		offset := int64(binary.BigEndian.Uint64(frame))
		if err := w.deposit(offset, frame[putOffsetHeader:]); err != nil {
			return nil, err
		}
	}
	return w.buf, nil
}

// recvAny receives the next window frame from any peer. Transports
// deliver window traffic under the wildcard sender AnyRank.
func (w *Window) recvAny() ([]byte, error) {
	return w.comm.Recv(AnyRank, w.tag)
}

// AnyRank is the wildcard sender rank used for window traffic, where the
// receiver does not care who a put came from.
const AnyRank = -1

// WildcardTag returns a tag in the wildcard-delivery space: messages sent
// under it are received with Recv(AnyRank, tag) regardless of sender.
// Used by request/reply protocols (e.g. the restore chunk service) where
// the server cannot know who will call. The space is disjoint from window
// epoch tags for any n.
func WildcardTag(n uint32) Tag {
	return tagWinBase + Tag(1<<20) + Tag(n)
}
