package collectives

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"dedupcr/internal/obs"
)

// TCPComm is a communicator over TCP sockets: the "fake MPI over sockets"
// transport. Each rank listens on one address; data connections are
// unidirectional and dialed lazily on first send, so a pair of ranks that
// exchange data in both directions holds two connections.
//
// Wire protocol, all integers big endian:
//
//	handshake (once per connection, dialer → accepter): u32 senderRank
//	frame: u32 payloadLen | u32 tag | payload
//
// Failure handling: a connection that dies mid-job marks its peer rank
// failed (drain-first: already-delivered frames stay consumable, only
// waits that would block on the dead peer error out), and a rank that
// aborts — context cancellation, local error, explicit Abort — pushes an
// abort frame (tagAbort) to every peer over short-lived dedicated
// connections, so the whole group unblocks within one collective step.
type TCPComm struct {
	rank  int
	addrs []string

	listener net.Listener
	box      *mailbox
	free     frameList // the buffers of window and fetch frames, read and written

	mu      sync.Mutex
	conns   map[int]*tcpSender // guarded by mu
	inbound []net.Conn         // guarded by mu

	seq    atomic.Uint32
	closed atomic.Bool
	// wtrace holds the causal wire-tracing configuration (nil = off);
	// spanSeq mints sender-unique flow ids.
	wtrace  atomic.Pointer[wireTraceState]
	spanSeq atomic.Uint64
	// aborted holds the abort/kill error once the communicator gave up;
	// every subsequent operation fails with it.
	aborted atomic.Pointer[CollectiveError]
	wg      sync.WaitGroup
	statsCounter
}

var _ Comm = (*TCPComm)(nil)
var _ aborter = (*TCPComm)(nil)
var _ killer = (*TCPComm)(nil)
var _ frameTaker = (*TCPComm)(nil)
var _ framer = (*TCPComm)(nil)

// tcpSender is one outgoing connection with its write lock.
type tcpSender struct {
	mu   sync.Mutex
	conn net.Conn
}

// DialTCP creates the endpoint of rank within a group whose rank i listens
// on addrs[i]. It starts listening immediately; outgoing connections are
// established lazily. All ranks of the group must be constructed before
// any collective is attempted.
func DialTCP(rank int, addrs []string) (*TCPComm, error) {
	if rank < 0 || rank >= len(addrs) {
		return nil, fmt.Errorf("collectives: rank %d out of range for %d addresses", rank, len(addrs))
	}
	ln, err := net.Listen("tcp", addrs[rank])
	if err != nil {
		return nil, fmt.Errorf("collectives: rank %d listen %s: %w", rank, addrs[rank], err)
	}
	return newTCPComm(rank, addrs, ln), nil
}

// newTCPComm wires a communicator around an already-bound listener.
func newTCPComm(rank int, addrs []string, ln net.Listener) *TCPComm {
	c := &TCPComm{
		rank:     rank,
		addrs:    append([]string(nil), addrs...),
		listener: ln,
		conns:    make(map[int]*tcpSender),
	}
	c.box = newMailbox(&c.free)
	c.initPeers(len(addrs))
	// Record the actual address in case addrs[rank] used port 0.
	c.addrs[rank] = ln.Addr().String()
	c.wg.Add(1)
	go c.acceptLoop()
	return c
}

// LocalAddr returns the address this rank is listening on.
func (c *TCPComm) LocalAddr() string { return c.addrs[c.rank] }

// Rank implements Comm.
func (c *TCPComm) Rank() int { return c.rank }

// Size implements Comm.
func (c *TCPComm) Size() int { return len(c.addrs) }

// NextSeq implements Comm.
func (c *TCPComm) NextSeq() uint32 { return c.seq.Add(1) }

// Stats implements Comm.
func (c *TCPComm) Stats() Stats { return c.snapshot() }

func (c *TCPComm) frames() *frameList { return &c.free }

func (c *TCPComm) acceptLoop() {
	defer c.wg.Done()
	for {
		conn, err := c.listener.Accept()
		if err != nil {
			return // listener closed
		}
		c.mu.Lock()
		if c.closed.Load() {
			c.mu.Unlock()
			conn.Close()
			return
		}
		c.inbound = append(c.inbound, conn)
		c.mu.Unlock()
		c.wg.Add(1)
		go c.readLoop(conn)
	}
}

// maxFrameSize bounds a single frame payload (1 GiB). The length prefix
// is attacker- (and bug-) controlled input on the accepting side; without
// a bound, a corrupt or malicious header makes the reader allocate up to
// 4 GiB before the stream is even validated. Window puts and reduction
// tables stay far below this in practice.
const maxFrameSize = 1 << 30

// writeFrame writes one frame to w: u32 payloadLen | u32 tag | payload.
// It performs two writes (header, payload) so large payloads are not
// copied; callers serialize writes per connection.
func writeFrame(w io.Writer, tag Tag, payload []byte) error {
	return writeFrameTC(w, tag, nil, payload)
}

// writeFrameTC is writeFrame with an optional trace-context header: when
// tc is non-nil, bit 31 of the length word is set and an u8-length-
// prefixed context block precedes the payload (see tracectx.go).
func writeFrameTC(w io.Writer, tag Tag, tc *TraceContext, payload []byte) error {
	if len(payload) > maxFrameSize {
		return fmt.Errorf("collectives: frame payload of %d bytes exceeds limit %d", len(payload), maxFrameSize)
	}
	var hdr [8]byte
	lenWord := uint32(len(payload))
	if tc != nil {
		lenWord |= flagTraceCtx
	}
	binary.BigEndian.PutUint32(hdr[:4], lenWord)
	binary.BigEndian.PutUint32(hdr[4:], uint32(tag))
	if tc != nil {
		enc := encodeTraceContext(tc)
		buf := make([]byte, 0, len(hdr)+1+len(enc))
		buf = append(buf, hdr[:]...)
		buf = append(buf, byte(len(enc)))
		buf = append(buf, enc...)
		if _, err := w.Write(buf); err != nil {
			return err
		}
	} else if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if len(payload) == 0 {
		return nil
	}
	_, err := w.Write(payload)
	return err
}

// frameAllocChunk is the initial allocation for a frame payload. The
// buffer grows geometrically as bytes actually arrive, so a corrupt or
// hostile length prefix costs at most one chunk of memory before the
// short stream errors out — never the full declared size.
const frameAllocChunk = 1 << 20

// frameReader reads the frames of one stream. Its header buffer lives as
// long as the stream, so reading a frame allocates at most its payload.
type frameReader struct {
	r    io.Reader
	free *frameList
	hdr  [8]byte
}

// next reads one frame, returning its tag, payload and optional trace
// context (nil on legacy frames without the bit-31 flag). It rejects
// frames whose declared payload exceeds maxFrameSize, and allocates
// progressively so the declared size is only ever backed by bytes that
// really arrived. A window or fetch frame (a wildcard tag) of at most
// frameAllocChunk bytes is read into a buffer from free, which its
// receiver gives back (Release) once done with it or keeps (Keep), and
// which goes back at once if the stream breaks mid-frame; every other
// frame gets a buffer of its own.
func (fr *frameReader) next() (Tag, []byte, *TraceContext, error) {
	r, hdr := fr.r, fr.hdr[:]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return 0, nil, nil, err
	}
	lenWord := binary.BigEndian.Uint32(hdr[:4])
	size := lenWord &^ flagTraceCtx
	tag := Tag(binary.BigEndian.Uint32(hdr[4:]))
	if size > maxFrameSize {
		return 0, nil, nil, fmt.Errorf("collectives: frame of %d bytes exceeds limit %d", size, maxFrameSize)
	}
	var tc *TraceContext
	if lenWord&flagTraceCtx != 0 {
		if _, err := io.ReadFull(r, hdr[:1]); err != nil {
			return 0, nil, nil, err
		}
		tcBuf := make([]byte, hdr[0])
		if _, err := io.ReadFull(r, tcBuf); err != nil {
			return 0, nil, nil, err
		}
		var err error
		if tc, err = decodeTraceContext(tcBuf); err != nil {
			return 0, nil, nil, err
		}
	}
	total := int(size)
	var payload []byte
	switch {
	case total > frameAllocChunk:
		payload = make([]byte, frameAllocChunk)
	case tag >= tagWinBase && tag != tagAbort:
		payload = fr.free.get(total)
	default:
		payload = make([]byte, total)
	}
	read := 0
	for {
		if _, err := io.ReadFull(r, payload[read:]); err != nil {
			fr.free.put(payload)
			return 0, nil, nil, err
		}
		read = len(payload)
		if read >= total {
			return tag, payload, tc, nil
		}
		next := read * 2
		if next > total {
			next = total
		}
		grown := make([]byte, next)
		copy(grown, payload)
		payload = grown
	}
}

// readLoop performs the handshake and pumps frames into the mailbox.
// A connection that errors mid-job marks its peer rank failed — unless
// the local communicator is already closed, killed or aborted, in which
// case the loss carries no information.
func (c *TCPComm) readLoop(conn net.Conn) {
	defer c.wg.Done()
	defer conn.Close()
	var hs [4]byte
	if _, err := io.ReadFull(conn, hs[:]); err != nil {
		return
	}
	from := int(binary.BigEndian.Uint32(hs[:]))
	if from < 0 || from >= len(c.addrs) {
		return
	}
	// A fresh connection proves the peer alive: clear any stale death
	// mark (e.g. from a previous connection it dropped after a write
	// error and redialed).
	c.box.unfailPeer(from)
	fr := &frameReader{r: conn, free: &c.free}
	for {
		tag, payload, tc, err := fr.next()
		if err != nil {
			if c.closed.Load() || c.aborted.Load() != nil {
				return
			}
			c.box.failPeer(from, &CollectiveError{
				Ranks: []int{from},
				Cause: fmt.Errorf("%w: connection to rank %d lost: %v", ErrRankFailed, from, err),
			})
			return
		}
		if tag == tagAbort {
			// Failure dissemination from a peer: abort locally, but do
			// not re-gossip — the origin already notified everyone it
			// could reach, and the erroring layers above cascade anyway.
			if ranks, cause, derr := decodeAbortMsg(payload); derr == nil {
				obs.Logf(obs.KindAbort, c.rank, "", 0, "abort gossip from rank %d: ranks %v: %s", from, ranks, cause)
				c.noteAbort(&CollectiveError{
					Ranks: ranks,
					Cause: fmt.Errorf("rank %d reported: %s", from, cause),
				}, false)
			}
			continue
		}
		if tc != nil {
			// Receive-side flow anchor: links this rank's timeline back
			// to the sending rank's flow start with the same span id.
			if wt := c.wtrace.Load(); wt != nil {
				wt.tracer.Flow("wire-recv", obs.KindFlowEnd, tc.SpanID, map[string]string{
					"from":  fmt.Sprintf("%d", tc.Sender),
					"round": fmt.Sprintf("%d", tc.Round),
					"job":   fmt.Sprintf("%d/%d", tc.JobID, tc.DumpSeq),
				})
			}
		}
		c.countRecv(from, len(payload))
		c.box.put(from, tag, payload)
	}
}

// dialTimeout bounds how long a rank waits for a peer process to start
// listening. Ranks of one job are launched together but not atomically,
// so the first send retries through the startup skew.
const dialTimeout = 30 * time.Second

// abortDialTimeout bounds the best-effort abort-frame delivery to one
// peer; a peer that cannot be reached that fast is likely dead anyway.
const abortDialTimeout = time.Second

// sender returns (dialing if needed) the outgoing connection to peer,
// retrying the dial for up to dialTimeout.
func (c *TCPComm) sender(peer int) (*tcpSender, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed.Load() {
		return nil, ErrClosed
	}
	if s, ok := c.conns[peer]; ok {
		return s, nil
	}
	var conn net.Conn
	var err error
	limit := time.Now().Add(dialTimeout)
	for {
		if e := c.aborted.Load(); e != nil {
			return nil, e
		}
		if e := c.box.peerFailed(peer); e != nil {
			return nil, e
		}
		conn, err = net.Dial("tcp", c.addrs[peer])
		if err == nil {
			break
		}
		if c.closed.Load() || time.Now().After(limit) {
			return nil, fmt.Errorf("collectives: rank %d dial rank %d (%s): %w", c.rank, peer, c.addrs[peer], err)
		}
		time.Sleep(50 * time.Millisecond)
	}
	var hs [4]byte
	binary.BigEndian.PutUint32(hs[:], uint32(c.rank))
	if _, err := conn.Write(hs[:]); err != nil {
		conn.Close()
		return nil, fmt.Errorf("collectives: handshake with rank %d: %w", peer, err)
	}
	s := &tcpSender{conn: conn}
	c.conns[peer] = s
	return s, nil
}

// dropSender discards a connection after a write error, so the next send
// to that peer redials instead of reusing a stream with a partial frame.
func (c *TCPComm) dropSender(peer int, s *tcpSender) {
	c.mu.Lock()
	if c.conns[peer] == s {
		delete(c.conns, peer)
	}
	c.mu.Unlock()
	s.conn.Close()
}

// Send implements Comm. A connection whose write fails is dropped, so
// the next send to that peer redials a clean stream.
func (c *TCPComm) Send(to int, tag Tag, data []byte) error {
	if err := checkPeer(c, to); err != nil {
		return err
	}
	if e := c.aborted.Load(); e != nil {
		return e
	}
	if to == c.rank {
		// Self-send: deliver locally without touching the network.
		msg := make([]byte, len(data))
		copy(msg, data)
		c.box.put(c.rank, tag, msg)
		return nil
	}
	s, err := c.sender(to)
	if err != nil {
		return err
	}
	// Causal wire tracing: stamp the frame with this rank's context and
	// record the sending side of the flow arrow.
	var tc *TraceContext
	if wt := c.wtrace.Load(); wt != nil {
		tc = &TraceContext{
			JobID:   wt.jobID,
			DumpSeq: wt.dumpSeq,
			Round:   uint32(c.collRounds.Load()),
			Sender:  uint32(c.rank),
			SpanID:  c.nextSpanID(),
		}
		wt.tracer.Flow("wire-send", obs.KindFlowStart, tc.SpanID, map[string]string{
			"to":    fmt.Sprintf("%d", to),
			"round": fmt.Sprintf("%d", tc.Round),
		})
	}
	s.mu.Lock()
	werr := writeFrameTC(s.conn, tag, tc, data)
	s.mu.Unlock()
	if werr != nil {
		c.dropSender(to, s)
		if e := c.aborted.Load(); e != nil {
			return e
		}
		return fmt.Errorf("collectives: send to rank %d: %w", to, werr)
	}
	c.countSend(to, len(data))
	return nil
}

// sendOwned implements frameTaker: a frame to this rank is delivered
// itself, and one written to a peer is given back (Release).
func (c *TCPComm) sendOwned(to int, tag Tag, frame []byte) error {
	if to == c.rank {
		if e := c.aborted.Load(); e != nil {
			return e
		}
		c.box.put(c.rank, tag, frame)
		return nil
	}
	err := c.Send(to, tag, frame)
	if err == nil {
		c.free.put(frame)
	}
	return err
}

// Recv implements Comm. The AnyRank wildcard is accepted for window tags.
func (c *TCPComm) Recv(from int, tag Tag) ([]byte, error) {
	if err := checkRecv(c, from, tag); err != nil {
		return nil, err
	}
	return c.box.get(from, tag)
}

// noteAbort records the first abort, fails every local wait, and poisons
// outgoing connections so writers blocked on slow peers unblock. When
// gossip is set (local aborts), the failure is additionally disseminated
// to all peers in the background.
func (c *TCPComm) noteAbort(e *CollectiveError, gossip bool) {
	if !c.aborted.CompareAndSwap(nil, e) {
		return
	}
	origin := "received"
	if gossip {
		origin = "local"
	}
	obs.Logf(obs.KindAbort, c.rank, e.Phase, 0, "abort (%s): %v", origin, e)
	c.box.abort(e)
	c.mu.Lock()
	for _, s := range c.conns {
		s.conn.SetDeadline(time.Now())
	}
	c.mu.Unlock()
	if gossip {
		c.gossipAbort(e)
	}
}

// gossipAbort pushes the abort frame to every peer over short-lived
// dedicated connections (the cached senders may be blocked or already
// poisoned). Strictly best effort: unreachable peers are skipped after
// abortDialTimeout, and the goroutines outlive neither their dials nor
// their single frame write.
func (c *TCPComm) gossipAbort(e *CollectiveError) {
	cause := ""
	if e.Cause != nil {
		cause = e.Cause.Error()
	}
	payload := encodeAbortMsg(e.Ranks, cause)
	for peer := range c.addrs {
		if peer == c.rank {
			continue
		}
		go func(addr string) {
			conn, err := net.DialTimeout("tcp", addr, abortDialTimeout)
			if err != nil {
				return
			}
			defer conn.Close()
			conn.SetDeadline(time.Now().Add(abortDialTimeout))
			var hs [4]byte
			binary.BigEndian.PutUint32(hs[:], uint32(c.rank))
			if _, err := conn.Write(hs[:]); err != nil {
				return
			}
			writeFrame(conn, tagAbort, payload)
		}(c.addrs[peer])
	}
}

// abortComm implements the collective abort protocol: local failure plus
// best-effort dissemination.
func (c *TCPComm) abortComm(e *CollectiveError) { c.noteAbort(e, true) }

// killComm simulates this rank's crash: everything local fails and every
// connection drops abruptly, with no notification — peers detect the
// death through connection loss, exactly like a real process crash.
func (c *TCPComm) killComm(e *CollectiveError) {
	if !c.aborted.CompareAndSwap(nil, e) {
		return
	}
	obs.Logf(obs.KindKill, c.rank, e.Phase, 0, "comm killed: %v", e)
	obs.Trigger(obs.Failure{
		Kind: "kill", Rank: c.rank, Ranks: e.Ranks, Phase: e.Phase, Cause: e.Error(),
	})
	c.box.abort(e)
	c.listener.Close()
	c.mu.Lock()
	for _, s := range c.conns {
		s.conn.Close()
	}
	for _, conn := range c.inbound {
		conn.Close()
	}
	c.mu.Unlock()
}

// Close implements Comm. It closes the listener and all connections;
// blocked receivers fail with ErrClosed.
func (c *TCPComm) Close() error {
	if !c.closed.CompareAndSwap(false, true) {
		return nil
	}
	c.listener.Close()
	c.mu.Lock()
	for _, s := range c.conns {
		s.conn.Close()
	}
	for _, conn := range c.inbound {
		conn.Close()
	}
	c.mu.Unlock()
	c.box.close()
	c.wg.Wait()
	c.free.close()
	return nil
}

// StartLocalTCP creates a fully configured local TCP group of n ranks on
// loopback addresses with ephemeral ports, used by tests, examples and the
// sockets demo. The caller owns the returned comms and must Close all of
// them.
func StartLocalTCP(n int) ([]*TCPComm, error) {
	if n <= 0 {
		return nil, fmt.Errorf("collectives: group size %d must be positive", n)
	}
	// Reserve ports by listening first, then hand the concrete address
	// list to every rank.
	listeners := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range listeners[:i] {
				l.Close()
			}
			return nil, err
		}
		listeners[i] = ln
		addrs[i] = ln.Addr().String()
	}
	comms := make([]*TCPComm, n)
	for i := range comms {
		comms[i] = newTCPComm(i, addrs, listeners[i])
	}
	return comms, nil
}
