// Package fetch is the peer fetch service used during restores: while a
// collective restore runs, every rank serves chunk and blob requests so
// peers can pull data their own (possibly replaced) local store no longer
// holds. A Class gives one fetch service its own tag space on the
// communicator.
package fetch

import (
	"encoding/binary"
	"fmt"

	"dedupcr/internal/collectives"
	"dedupcr/internal/fingerprint"
	"dedupcr/internal/storage"
)

// Request frame:  u8 op | u32 requester | payload
// Reply frame:    u8 found | payload
//
// opChunks is the batched form (see batch.go): its payload is
// u32 id | n × FP and its reply u8 replyChunks | u32 id | n × record, a
// found record carrying the serving store's at-rest sum of its bytes.
const (
	opStop   = 0
	opBlob   = 1
	opChunk  = 2
	opChunks = 3
)

// Class separates independent fetch protocols' tag spaces.
type Class uint32

// Tags: requests of a class share one wildcard tag; replies are
// per-requester.
func (cl Class) reqTag() collectives.Tag {
	return collectives.WildcardTag(uint32(cl) << 19)
}

func (cl Class) replyTag(rank int) collectives.Tag {
	return collectives.WildcardTag(uint32(cl)<<19 + 1 + uint32(rank))
}

// Server answers fetch requests from the local store until stopped.
type Server struct {
	comm  collectives.Comm
	class Class
	done  chan struct{}
}

// Serve starts answering chunk/blob requests against store. Failures of
// the local store are reported to requesters as "not found", so they move
// on to the next replica.
func Serve(c collectives.Comm, store storage.Store, class Class) *Server {
	s := &Server{comm: c, class: class, done: make(chan struct{})}
	go s.loop(store)
	return s
}

// Stop shuts the server down. It must be called only after all peers have
// stopped issuing requests (a barrier), and blocks until the serving
// goroutine exits.
func (s *Server) Stop() {
	poison := []byte{opStop, 0, 0, 0, 0}
	if err := s.comm.Send(s.comm.Rank(), s.class.reqTag(), poison); err != nil {
		return // communicator closed; loop already exited
	}
	<-s.done
}

func (s *Server) loop(store storage.Store) {
	defer close(s.done)
	for {
		req, err := s.comm.Recv(collectives.AnyRank, s.class.reqTag())
		if err != nil {
			return // communicator closed
		}
		if len(req) < 5 {
			collectives.Release(s.comm, req)
			continue
		}
		op := req[0]
		requester := int(binary.BigEndian.Uint32(req[1:]))
		payload := req[5:]
		var reply []byte
		switch op {
		case opStop:
			collectives.Release(s.comm, req)
			return
		case opChunks:
			reply = serveChunks(s.comm, store, payload)
		case opBlob:
			reply = s.syncReply(store.GetBlob(string(payload)))
		case opChunk:
			if len(payload) == fingerprint.Size {
				reply = s.syncReply(store.GetChunk(fingerprint.FP(payload)))
			} else {
				reply = s.syncReply(nil, storage.ErrNotFound)
			}
		default:
			reply = s.syncReply(nil, storage.ErrNotFound)
		}
		collectives.Release(s.comm, req)
		if err := s.reply(requester, reply); err != nil {
			return
		}
	}
}

// syncReply builds the reply to a synchronous request in a buffer of its
// own: found (no error) and the data, or not.
func (s *Server) syncReply(data []byte, err error) []byte {
	if err != nil {
		return []byte{0}
	}
	return append(append(make([]byte, 0, 1+len(data)), 1), data...)
}

// reply hands one reply frame over to the transport; a requester outside
// the group gets none, and the frame is given back.
func (s *Server) reply(requester int, frame []byte) error {
	if requester < 0 || requester >= s.comm.Size() {
		collectives.Release(s.comm, frame)
		return nil
	}
	return collectives.Handover(s.comm, requester, s.class.replyTag(requester), frame)
}

// call performs one synchronous request to peer. Request and reply are
// buffers of their own, sent one at a time; the caller keeps the reply,
// which TCP read into a buffer of the free list (Keep).
func call(c collectives.Comm, class Class, peer int, op byte, payload []byte) ([]byte, bool, error) {
	req := make([]byte, 5+len(payload))
	req[0] = op
	binary.BigEndian.PutUint32(req[1:], uint32(c.Rank()))
	copy(req[5:], payload)
	if err := c.Send(peer, class.reqTag(), req); err != nil {
		return nil, false, fmt.Errorf("fetch: request to rank %d: %w", peer, err)
	}
	reply, err := c.Recv(collectives.AnyRank, class.replyTag(c.Rank()))
	if err != nil {
		return nil, false, fmt.Errorf("fetch: reply from rank %d: %w", peer, err)
	}
	collectives.Keep(c, reply)
	if len(reply) < 1 {
		return nil, false, fmt.Errorf("fetch: malformed reply from rank %d", peer)
	}
	return reply[1:], reply[0] == 1, nil
}

// Blob fetches a named blob from peer. The bool reports whether the peer
// had it.
func Blob(c collectives.Comm, class Class, peer int, name string) ([]byte, bool, error) {
	return call(c, class, peer, opBlob, []byte(name))
}

// Chunk fetches a chunk by fingerprint from peer.
func Chunk(c collectives.Comm, class Class, peer int, fp fingerprint.FP) ([]byte, bool, error) {
	return call(c, class, peer, opChunk, fp[:])
}
