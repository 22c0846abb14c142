package collectives

import "sync"

// msgKey identifies a (sender, tag) message stream.
type msgKey struct {
	from int
	tag  Tag
}

// mailbox is a matching receive queue: messages are enqueued by transport
// readers and dequeued by Recv calls matching on (from, tag). Per-stream
// FIFO order is preserved. It is shared by both transports.
//
// Failure semantics are drain-first: messages already queued stay
// deliverable after a failure mark, and only a receive that would
// otherwise wait observes the failure. This keeps benign end-of-job races
// (a peer closing its connection after sending everything it owed)
// harmless, while a receive that would genuinely deadlock on a dead peer
// errors out instead.
type mailbox struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queues map[msgKey][][]byte // guarded by mu
	closed bool                // guarded by mu
	// aborted, once set, fails every empty-queue wait: the whole group
	// gave up (collective abort, context cancellation, local kill).
	// guarded by mu
	aborted *CollectiveError
	// failed marks individual senders known dead; waits for their
	// messages — and wildcard waits, which any dead peer may starve —
	// fail with the recorded error. guarded by mu
	failed map[int]*CollectiveError
	// free takes back the wildcard-tagged frames (window puts, fetch
	// requests and replies) an aborted mailbox will never hand out: those
	// queued when it aborts and those put after.
	free *frameList
}

func newMailbox(free *frameList) *mailbox {
	m := &mailbox{queues: make(map[msgKey][][]byte), free: free}
	m.cond = sync.NewCond(&m.mu)
	return m
}

// put enqueues a message. The mailbox takes ownership of data.
// Window-tagged traffic is filed under the AnyRank wildcard, since window
// owners drain puts without caring about the sender.
func (m *mailbox) put(from int, tag Tag, data []byte) {
	if tag >= tagWinBase {
		from = AnyRank
	}
	m.mu.Lock()
	if from == AnyRank && m.aborted != nil {
		m.mu.Unlock()
		m.free.put(data)
		return
	}
	k := msgKey{from, tag}
	m.queues[k] = append(m.queues[k], data)
	m.mu.Unlock()
	m.cond.Broadcast()
}

// get blocks until a message matching (from, tag) is available, or the
// mailbox is closed, aborted, or (for an empty queue) the sender is
// marked failed.
func (m *mailbox) get(from int, tag Tag) ([]byte, error) {
	k := msgKey{from, tag}
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		if q := m.queues[k]; len(q) > 0 {
			data := q[0]
			if len(q) == 1 {
				delete(m.queues, k)
			} else {
				// Avoid retaining the delivered element.
				q[0] = nil
				m.queues[k] = q[1:]
			}
			return data, nil
		}
		if m.closed {
			return nil, ErrClosed
		}
		if m.aborted != nil {
			return nil, m.aborted
		}
		if from == AnyRank {
			// Wildcard traffic loses sender identity, so any dead peer
			// may be the one whose contribution will never arrive.
			for _, e := range m.failed {
				return nil, e
			}
		} else if e := m.failed[from]; e != nil {
			return nil, e
		}
		m.cond.Wait()
	}
}

// abort fails every empty-queue wait, current and future, with e. The
// first abort wins; later ones are ignored.
func (m *mailbox) abort(e *CollectiveError) {
	var dropped [][]byte
	m.mu.Lock()
	if m.aborted == nil {
		m.aborted = e
		for k, q := range m.queues {
			if k.from == AnyRank {
				dropped = append(dropped, q...)
				delete(m.queues, k)
			}
		}
	}
	m.mu.Unlock()
	m.cond.Broadcast()
	for _, data := range dropped {
		m.free.put(data)
	}
}

// abortErr returns the abort error, or nil.
func (m *mailbox) abortErr() *CollectiveError {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.aborted
}

// failPeer marks one sender dead. Queued messages from it remain
// deliverable (drain-first); only waits that would block on it fail.
func (m *mailbox) failPeer(rank int, e *CollectiveError) {
	m.mu.Lock()
	if m.failed == nil {
		m.failed = make(map[int]*CollectiveError)
	}
	if _, ok := m.failed[rank]; !ok {
		m.failed[rank] = e
	}
	m.mu.Unlock()
	m.cond.Broadcast()
}

// unfailPeer clears a sender's death mark: a fresh connection (a redial
// after a failed write) proves the peer alive again.
func (m *mailbox) unfailPeer(rank int) {
	m.mu.Lock()
	delete(m.failed, rank)
	m.mu.Unlock()
}

// peerFailed returns the failure recorded for rank, or nil.
func (m *mailbox) peerFailed(rank int) *CollectiveError {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.failed[rank]
}

// close wakes all blocked receivers with ErrClosed.
func (m *mailbox) close() {
	m.mu.Lock()
	m.closed = true
	m.mu.Unlock()
	m.cond.Broadcast()
}
