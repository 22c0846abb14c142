package collectives

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
	"sync/atomic"
	"time"
)

// Window is a one-sided communication window: a byte region a rank exposes
// so that partners can Put data at offsets they computed independently
// (Algorithm 3 of the paper). Because the offset planning tells the owner
// exactly how many bytes will arrive, the window is opened with the exact
// expected size and completion needs no extra synchronization: the owner
// simply drains puts until every byte has arrived.
//
// Frames are handed over, not copied: a sender appends its payload to a
// NewFrame (which leaves room for the offset and checksum header) and
// PutFrame gives the frame to the transport (see Handover) with the
// checksum the sender took of it. The owner holds no window-sized buffer:
// Next hands out the landed payloads and their checksums in window-offset
// order, holding frames that arrive ahead of the cursor, so the caller can
// commit each frame as it lands and check it its own way, then give its
// buffer back (Release) for the next receive or put, or keep it (Keep).
//
// Usage (all ranks):
//
//	win := OpenWindow(comm, expectedBytes, epoch)
//	... win.PutFrame(target, offset, frame, sum) for each partner ...
//	for { payload, sum, err := win.Next(); ...; win.Release(payload) } // io.EOF once complete
//
// Put and Wait are the copying forms of the same two operations, with
// the payload's CRC-32C as the checksum: Put copies data into a fresh
// frame and sums it, Wait drains the whole window into one buffer,
// checking every payload against its sum. PutFrame is safe for
// concurrent use by the owning rank's goroutines (the dump may drive one
// put stream per partner, each on its own); Next and Wait must be called
// from a single goroutine.
type Window struct {
	comm Comm
	tag  Tag
	size int64

	// Drain state: the window offset of the next byte to hand out, and
	// the frames that landed beyond it, sorted by offset.
	cursor int64
	held   []heldFrame
	// last is the frame of the payload Next handed out last, until it is
	// released.
	last []byte

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

// heldFrame is a put frame, with its payload's offset and checksum, that
// arrived ahead of the drain cursor.
type heldFrame struct {
	off   int64
	sum   uint32
	frame []byte
}

func (h heldFrame) end() int64 { return h.off + int64(len(h.frame)-putHeader) }

// WindowStats reports what one window epoch did: outbound puts (remote
// and local) and the time spent draining the own window.
type WindowStats struct {
	// Puts and PutBytes count this rank's outgoing Put calls.
	Puts     int
	PutBytes int64
	// WaitTime is the wall time Next and Wait spent waiting for frames.
	WaitTime time.Duration
}

// Stats returns the window's instrumentation. Call it after the drain.
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
// size zero) with the same epoch number. Nothing is allocated: the bytes
// arrive in the senders' frames.
func OpenWindow(c Comm, size int64, epoch uint32) *Window {
	return &Window{comm: c, tag: windowTag(epoch), size: size}
}

// putHeader is what every put frame starts with: u64 destination offset
// | u32 checksum. The window carries the checksum and does not take it:
// what it covers is the sender's and the receiver's to agree on. Put and
// Wait use the CRC-32C (Castagnoli) of the payload; the dump's frames
// carry the CRC-32C over the sums of the whole records they hold (see the
// committer in internal/core).
const putHeader = 12

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrChecksum reports a put payload that does not match its checksum.
var ErrChecksum = errors.New("collectives: window frame checksum mismatch")

// Checksum folds b into a running CRC-32C (Castagnoli): a payload fed
// through it piece by piece from 0 ends at the sum Put stamps. The dump
// feeds its frames' record sums through it instead.
func Checksum(sum uint32, b []byte) uint32 { return crc32.Update(sum, castagnoli, b) }

// MaxPutBytes is the largest put payload that, with its header,
// fits the receiver's first frame allocation (frameAllocChunk): a put of
// at most this many bytes is read into one buffer allocated once, never
// through the receiver's grow-and-copy path. The dump's senders start a
// new put once the next record would take it past this size, so a put
// holds whole records and one larger than this travels alone.
const MaxPutBytes = frameAllocChunk - putHeader

// NewFrame returns an empty put frame from the communicator's free list —
// its length is the header headroom — with room for n payload bytes.
func (w *Window) NewFrame(n int) []byte { return framesOf(w.comm).get(putHeader + n)[:putHeader] }

// Put writes data into the window of rank target at the given byte
// offset, through a frame of its own whose checksum is the payload's
// CRC-32C: data stays the caller's. The frame does not come from the free
// list, whose lock a stream of small puts would queue on.
func (w *Window) Put(target int, offset int64, data []byte) error {
	frame := append(make([]byte, putHeader, putHeader+len(data)), data...)
	return w.PutFrame(target, offset, frame, Checksum(0, data))
}

// PutFrame writes the payload of frame — a NewFrame with the payload
// appended — into the window of rank target at the given byte offset,
// stamping the offset and the caller's checksum of the frame into its
// header, and hands the frame over: after a nil return the caller must
// not touch it; after an error it may put it again. The window does not
// read the payload. The caller must have planned offsets so that puts
// never overlap and the target window is exactly filled; violations are
// detected by the target.
func (w *Window) PutFrame(target int, offset int64, frame []byte, sum uint32) error {
	if err := checkPeer(w.comm, target); err != nil {
		return err
	}
	n := len(frame) - putHeader
	if offset < 0 || target == w.comm.Rank() && offset > w.size-int64(n) {
		return fmt.Errorf("collectives: put of %d bytes at offset %d exceeds window of %d bytes", n, offset, w.size)
	}
	binary.BigEndian.PutUint64(frame, uint64(offset))
	binary.BigEndian.PutUint32(frame[8:], sum)
	start := time.Now()
	var deadline time.Time
	if w.PutTimeout > 0 {
		deadline = start.Add(w.PutTimeout)
	}
	if err := Handover(w.comm, target, w.tag, frame, deadline); err != nil {
		return err
	}
	w.puts.Add(1)
	w.putBytes.Add(int64(n))
	if w.OnPut != nil {
		w.OnPut(n, time.Since(start))
	}
	return nil
}

// Next returns the next put's payload in window-offset order, which the
// caller now owns, and its sender's checksum, or io.EOF once the whole
// window has been handed out. The caller gives the payload's frame back
// with Release once nothing reads the payload, or keeps it (Keep) if it
// gave the payload away for good. Checking the payload against the sum is
// the caller's, folded into its own pass over the bytes: Wait checks the
// payload's CRC-32C, the dump's committer the CRC-32C over the sums it
// takes of the frame's records. A frame is placed as it lands: outside the
// window, on bytes already handed out, or overlapping a held put is an
// error. Puts are therefore disjoint and in bounds, so the window cannot
// overfill, and it is complete exactly when the cursor reaches its size.
func (w *Window) Next() ([]byte, uint32, error) {
	start := time.Now()
	defer func() { w.waitTime += time.Since(start) }()
	for {
		if len(w.held) > 0 && w.held[0].off == w.cursor {
			h := w.held[0]
			w.held = w.held[1:]
			w.cursor, w.last = h.end(), h.frame
			return h.frame[putHeader:], h.sum, nil
		}
		if w.cursor == w.size {
			return nil, 0, io.EOF
		}
		frame, err := w.comm.Recv(AnyRank, w.tag)
		if err != nil {
			return nil, 0, err
		}
		if len(frame) < putHeader {
			return nil, 0, fmt.Errorf("collectives: malformed window frame (%d bytes)", len(frame))
		}
		off, sum, data := int64(binary.BigEndian.Uint64(frame)), binary.BigEndian.Uint32(frame[8:]), frame[putHeader:]
		if off < 0 || off > w.size-int64(len(data)) {
			return nil, 0, fmt.Errorf("collectives: put of %d bytes at offset %d exceeds window of %d bytes",
				len(data), off, w.size)
		}
		if len(data) == 0 {
			Release(w.comm, frame)
			continue
		}
		i, _ := slices.BinarySearchFunc(w.held, off, func(h heldFrame, off int64) int { return cmp.Compare(h.off, off) })
		if off < w.cursor || i > 0 && w.held[i-1].end() > off ||
			i < len(w.held) && w.held[i].off < off+int64(len(data)) {
			return nil, 0, fmt.Errorf("collectives: put of %d bytes at offset %d overlaps an earlier put", len(data), off)
		}
		w.held = slices.Insert(w.held, i, heldFrame{off, sum, frame})
	}
}

// Release gives the frame of payload, the payload Next returned last,
// back to the communicator's free list. Nothing may read payload
// afterwards. Any other payload is ignored.
func (w *Window) Release(payload []byte) {
	if f := w.frameOf(payload); f != nil {
		Release(w.comm, f)
	}
}

// Keep makes the frame of payload, the payload Next returned last, the
// caller's for good (Keep). Any other payload is ignored.
func (w *Window) Keep(payload []byte) {
	if f := w.frameOf(payload); f != nil {
		Keep(w.comm, f)
	}
}

// frameOf returns the frame of payload if it is the payload Next returned
// last, and forgets it.
func (w *Window) frameOf(payload []byte) []byte {
	f := w.last
	if f == nil || len(payload) == 0 || &f[putHeader] != &payload[0] {
		return nil
	}
	w.last = nil
	return f
}

// Wait drains the window through Next into one buffer and returns it,
// giving every frame back once copied, and failing on the first frame
// whose payload's CRC-32C is not its checksum: the checksum Put takes.
func (w *Window) Wait() ([]byte, error) {
	buf := make([]byte, 0, w.size)
	for {
		data, sum, err := w.Next()
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return nil, err
		}
		if Checksum(0, data) != sum {
			return nil, fmt.Errorf("%w: window frame at offset %d", ErrChecksum, len(buf))
		}
		buf = append(buf, data...)
		w.Release(data)
	}
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
