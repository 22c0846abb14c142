package collectives

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"unsafe"
)

// Frame buffers have one lifecycle. A buffer is taken from its
// communicator's free list (Window.NewFrame and NewBuffer for the frames a
// rank sends, TCP's receive for the window and fetch frames it reads),
// filled, handed over, read — a landed put frame is written to the store
// once, from the buffer — and then either given back (Release,
// Window.Release) for the next receive or put, or kept for good by its
// reader (Keep, Window.Keep): a frame a store keeps as an arena, a
// synchronous fetch's reply. TCP gives back every frame it has written to
// a peer, and Handover every frame a wrapper such as FaultyComm sent by
// copy.
//
// A receiver gives back or keeps every window or fetch message it reads,
// whoever made it: small messages sent one at a time (Window.Put, the
// synchronous fetch calls, anything sent with a copying Send in process)
// travel in buffers of their own, which a list lock per message would
// make slower. So a list tells its own buffers by their address: it
// records the first byte of every buffer out, as an integer, so that a
// buffer never given back is still collected (the next buffer made at its
// address takes its record over). A buffer it does not have
// out — another's, one given back already, a slice cut from the front of
// a buffer — is dropped. So a list's buffers out are exactly its own in
// flight or being read.
//
// There is one list per TCPComm and one per in-process Group. A buffer is
// kept while one of the list's own is out, and one of the smallest free
// buffers is dropped whenever none holds the size asked for and a new
// buffer is made, so the list never holds more buffers than were ever out
// at once. New buffers are exactly the size asked for. Close drops the
// list.

// frameList is a communicator's free list of frame buffers, filed by
// capacity class (floor(log2(cap))) so that taking and giving back cost
// the same however many buffers it holds. A nil list allocates every
// buffer and keeps none.
type frameList struct {
	mu      sync.Mutex
	free    [64][][]byte         // guarded by mu: empty buffers, full capacity, by class
	classes uint64               // guarded by mu: bit k set while free[k] is not empty
	n       int                  // guarded by mu: buffers in free
	lent    map[uintptr]struct{} // guarded by mu: first(buf) of every buffer taken and neither given back nor kept
	peakOut int                  // guarded by mu: the most buffers ever out at once
	closed  bool                 // guarded by mu
}

// first is the address of buf's first byte: the identity of a buffer in
// its list, held as an integer so that the list never keeps a buffer
// alive.
func first(buf []byte) uintptr { return uintptr(unsafe.Pointer(unsafe.SliceData(buf))) }

func capClass(c int) int { return bits.Len(uint(c)) - 1 }

// get returns a buffer of length n: the last one given back of n's class
// if it holds n bytes, else one of the smallest class above it, else a new
// one of exactly n bytes, for which a buffer of the smallest class held is
// dropped.
func (l *frameList) get(n int) []byte {
	if l == nil || n == 0 {
		return make([]byte, n)
	}
	l.mu.Lock()
	var buf []byte
	k := capClass(n)
	above := l.classes >> (k + 1) << (k + 1)
	switch {
	case len(l.free[k]) > 0 && cap(l.free[k][len(l.free[k])-1]) >= n:
		buf = l.takeLocked(k)[:n]
	case above != 0:
		buf = l.takeLocked(bits.TrailingZeros64(above))[:n]
	case l.classes != 0:
		l.takeLocked(bits.TrailingZeros64(l.classes))
	}
	if buf == nil {
		// Allocate outside the lock: the other ranks of a Group take and
		// give back meanwhile.
		l.mu.Unlock()
		buf = make([]byte, n)
		l.mu.Lock()
	}
	if !l.closed {
		if l.lent == nil {
			l.lent = make(map[uintptr]struct{})
		}
		l.lent[first(buf)] = struct{}{}
		l.peakOut = max(l.peakOut, len(l.lent))
	}
	l.mu.Unlock()
	return buf
}

// takeLocked removes and returns the buffer of class k given back last.
func (l *frameList) takeLocked(k int) []byte {
	f := l.free[k]
	b := f[len(f)-1]
	f[len(f)-1] = nil
	if l.free[k] = f[:len(f)-1]; len(l.free[k]) == 0 {
		l.classes &^= 1 << k
	}
	l.n--
	return b
}

// returnedLocked reports whether buf is a buffer l has out, and if so no
// longer counts it as out.
func (l *frameList) returnedLocked(buf []byte) bool {
	k := first(buf)
	if _, ok := l.lent[k]; !ok {
		return false
	}
	delete(l.lent, k)
	return true
}

// put gives buf back: the list keeps it if it has it out. Under
// PoisonFrames it first overwrites buf, whoever made it.
func (l *frameList) put(buf []byte) {
	if l == nil || cap(buf) == 0 {
		return
	}
	if poisonFrames.Load() {
		full := buf[:cap(buf)]
		for i := range full {
			full[i] = poisonByte
		}
	}
	l.mu.Lock()
	if l.returnedLocked(buf) {
		k := capClass(cap(buf))
		l.free[k] = append(l.free[k], buf[:0])
		l.classes |= 1 << k
		l.n++
	}
	l.mu.Unlock()
}

// keep stops counting buf as out, if l has it out.
func (l *frameList) keep(buf []byte) {
	if l == nil || cap(buf) == 0 {
		return
	}
	l.mu.Lock()
	l.returnedLocked(buf)
	l.mu.Unlock()
}

// close drops the list's buffers; it keeps none from then on.
func (l *frameList) close() {
	l.mu.Lock()
	l.closed, l.free, l.classes, l.n, l.lent = true, [64][][]byte{}, 0, 0, nil
	l.mu.Unlock()
}

// framer is implemented by the transports that keep a free list.
type framer interface{ frames() *frameList }

// framesOf returns the free list of the transport beneath c's wrappers, or
// nil if it keeps none.
func framesOf(c Comm) *frameList {
	if f, ok := unwrapComm(c).(framer); ok {
		return f.frames()
	}
	return nil
}

// NewBuffer returns an empty buffer with room for n bytes from c's free
// list, to be handed over (Handover) or given back (Release).
func NewBuffer(c Comm, n int) []byte { return framesOf(c).get(n)[:0] }

// Release gives buf, a whole buffer c took (NewBuffer, Window.NewFrame) or
// one Recv returned under a wildcard tag, back to c's free list. Nothing
// may read or write buf afterwards. A buffer the list does not have out is
// dropped.
func Release(c Comm, buf []byte) { framesOf(c).put(buf) }

// Keep makes buf, a whole buffer c took or one Recv returned under a
// wildcard tag, the caller's for good: c's free list stops counting it as
// out and never gives it out again.
func Keep(c Comm, buf []byte) { framesOf(c).keep(buf) }

// FrameStats describes a communicator's free list.
type FrameStats struct {
	// Free is the number of buffers the list holds.
	Free int
	// Out is the number of buffers taken and neither given back nor kept,
	// PeakOut the most that ever were.
	Out, PeakOut int
}

// Frames returns c's free list statistics: zero for a Comm without one.
func Frames(c Comm) FrameStats {
	l := framesOf(c)
	if l == nil {
		return FrameStats{}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return FrameStats{Free: l.n, Out: len(l.lent), PeakOut: l.peakOut}
}

// poisonFrames makes put fill every buffer it is given with poisonByte, so
// a buffer given back while something still reads it shows up as a
// checksum or byte-compare failure. Only tests set it (PoisonFrames).
var poisonFrames atomic.Bool

const poisonByte = 0xA5

// PoisonFrames turns poisoning on for the rest of the process. It is for
// tests: production code never calls it.
func PoisonFrames() { poisonFrames.Store(true) }
