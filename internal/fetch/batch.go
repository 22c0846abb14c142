package fetch

import (
	"encoding/binary"
	"fmt"
	"time"

	"dedupcr/internal/collectives"
	"dedupcr/internal/fingerprint"
	"dedupcr/internal/storage"
)

// Batched chunk fetch: one request names many fingerprints, one reply
// carries every answer in request order.
//
//	request payload: u32 id | n × FP
//	reply frame:     u8 replyChunks | u32 id | n × record
//	found record:    u8 1 | u32 len | u32 sum | payload
//	not-found:       u8 0 | u32 0
//
// The reply travels on the same per-requester tag as the single-call
// replies; its first byte tells the two apart. A found record may be
// empty (1 | 0 | sum), which is not a miss. Its sum is the at-rest sum the
// serving store checked the bytes against (Store.GetChunkSum), so the
// requester verifies them with storage.CheckSum instead of hashing them.
const (
	replyChunks = 2
	replyHeader = 5 // u8 kind | u32 id
	recHeader   = 5 // u8 found | u32 len
	recSum      = 4 // a found record's u32 sum
)

// Record is one answer of a batched reply: whether the peer had the
// chunk, the sum it vouched for the bytes with, and the bytes, which
// alias the reply frame.
type Record struct {
	Found bool
	Sum   uint32
	Data  []byte
}

// serveChunks answers one opChunks request. It always produces a reply:
// a payload that is not 4 + 20·n bytes gets the header alone (under id
// ^0 when even the id is missing), which the requester's strict decode
// turns into an error instead of waiting forever. The reply is capped:
// the first record always goes, but once collectives.MaxPutBytes of
// reply are spoken for the rest are answered not-found without being
// read, so no request makes this rank build an unbounded frame. A
// requester that sizes its asks by ReplyBytes never meets the cap. The
// reply is built in a buffer from c's free list (collectives.NewBuffer).
func serveChunks(c collectives.Comm, store storage.Store, payload []byte) []byte {
	id := ^uint32(0)
	if len(payload) >= 4 {
		id = binary.BigEndian.Uint32(payload)
	}
	var recs []Record
	if len(payload) >= 4 && (len(payload)-4)%fingerprint.Size == 0 {
		recs = make([]Record, (len(payload)-4)/fingerprint.Size)
		size := replyHeader + recHeader*len(recs)
		for i := range recs {
			var fp fingerprint.FP
			copy(fp[:], payload[4+i*fingerprint.Size:])
			data, sum, err := store.GetChunkSum(fp)
			if err != nil {
				continue
			}
			if i > 0 && size+recSum+len(data) > collectives.MaxPutBytes {
				break
			}
			recs[i] = Record{Found: true, Sum: sum, Data: data}
			size += recSum + len(data)
		}
	}
	return encodeChunksReply(c, id, recs)
}

// encodeChunksReply builds a batched reply frame in one buffer from c's
// free list.
func encodeChunksReply(c collectives.Comm, id uint32, recs []Record) []byte {
	size := replyHeader
	for _, r := range recs {
		size += recHeader
		if r.Found {
			size += recSum + len(r.Data)
		}
	}
	dst := collectives.NewBuffer(c, size)
	dst = append(dst, replyChunks)
	dst = binary.BigEndian.AppendUint32(dst, id)
	for _, r := range recs {
		if !r.Found {
			dst = append(dst, 0, 0, 0, 0, 0)
			continue
		}
		dst = append(dst, 1)
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(r.Data)))
		dst = binary.BigEndian.AppendUint32(dst, r.Sum)
		dst = append(dst, r.Data...)
	}
	return dst
}

// chunksReplyID checks a reply frame's kind and returns its exchange id.
func chunksReplyID(frame []byte) (uint32, error) {
	if len(frame) < replyHeader {
		return 0, fmt.Errorf("fetch: batched reply of %d bytes has no header", len(frame))
	}
	if frame[0] != replyChunks {
		return 0, fmt.Errorf("fetch: reply kind %d where a batched reply was expected", frame[0])
	}
	return binary.BigEndian.Uint32(frame[1:]), nil
}

// decodeChunksReply decodes the n records of a batched reply frame,
// strictly: a record cut short (in its header or its sum), a length
// running past the frame, a found byte other than 0/1, a not-found record
// with a length, or bytes after the n-th record are all errors. Record
// data aliases frame, so nothing beyond the n-entry slice is allocated.
func decodeChunksReply(frame []byte, n int) ([]Record, error) {
	if _, err := chunksReplyID(frame); err != nil {
		return nil, err
	}
	rest := frame[replyHeader:]
	if n < 0 || n > len(rest)/recHeader {
		return nil, fmt.Errorf("fetch: batched reply truncated: %d bytes cannot hold %d records", len(rest), n)
	}
	recs := make([]Record, n)
	for i := range recs {
		if len(rest) < recHeader {
			return nil, fmt.Errorf("fetch: batched reply truncated at record %d of %d", i, n)
		}
		found, size := rest[0], int64(binary.BigEndian.Uint32(rest[1:]))
		rest = rest[recHeader:]
		switch {
		case found > 1:
			return nil, fmt.Errorf("fetch: record %d: found byte %d", i, found)
		case found == 0 && size != 0:
			return nil, fmt.Errorf("fetch: record %d: not-found with %d bytes", i, size)
		case found == 0:
			continue
		case len(rest) < recSum:
			return nil, fmt.Errorf("fetch: record %d: cut inside its sum (%d bytes left)", i, len(rest))
		}
		sum := binary.BigEndian.Uint32(rest)
		rest = rest[recSum:]
		if size > int64(len(rest)) {
			return nil, fmt.Errorf("fetch: record %d: %d bytes overrun the reply (%d left)", i, size, len(rest))
		}
		recs[i] = Record{Found: true, Sum: sum, Data: rest[:size:size]}
		rest = rest[size:]
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("fetch: %d trailing bytes after %d records", len(rest), n)
	}
	return recs, nil
}

// ReplyBytes is the size of the batched reply that serves chunks of the
// given total payload size in n found records. Requesters keep it within
// collectives.MaxPutBytes per ask (a larger chunk travels alone).
func ReplyBytes(n int, payload int64) int64 {
	return replyHeader + (recHeader+recSum)*int64(n) + payload
}

// Exchange is one completed batched request: its id (a pipeline numbers
// its asks 0, 1, 2, … in the order they were made), what was asked of
// whom, the answers in the same order, and how long the reply took to
// arrive. The records alias the reply frame, which Pipeline.Release gives
// back.
type Exchange struct {
	ID      uint32
	Peer    int
	FPs     []fingerprint.FP
	Records []Record
	Elapsed time.Duration
	frame   []byte
}

// Pipeline is the batched fetch client of one rank. Ask sends a request
// and returns at once; Next receives whichever reply arrives first, so
// requests to several peers — and several to one peer — overlap. It is
// not safe for concurrent use, and must not be mixed with the
// synchronous Chunk/Blob calls while asks are outstanding (they share
// the reply tag).
type Pipeline struct {
	comm    collectives.Comm
	class   Class
	nextID  uint32
	pending map[uint32]ask
}

type ask struct {
	peer int
	fps  []fingerprint.FP
	sent time.Time
}

// NewPipeline creates the batched client of class on c.
func NewPipeline(c collectives.Comm, class Class) *Pipeline {
	return &Pipeline{comm: c, class: class, pending: make(map[uint32]ask)}
}

// Ask requests fps from peer without waiting for the answer. The
// pipeline keeps fps until the reply is handed out by Next.
func (p *Pipeline) Ask(peer int, fps []fingerprint.FP) error {
	id := p.nextID
	p.nextID++
	req := collectives.NewBuffer(p.comm, 9+len(fps)*fingerprint.Size)
	req = append(req, opChunks)
	req = binary.BigEndian.AppendUint32(req, uint32(p.comm.Rank()))
	req = binary.BigEndian.AppendUint32(req, id)
	for i := range fps {
		req = append(req, fps[i][:]...)
	}
	sent := time.Now()
	if err := collectives.Handover(p.comm, peer, p.class.reqTag(), req); err != nil {
		return fmt.Errorf("fetch: batched request to rank %d: %w", peer, err)
	}
	p.pending[id] = ask{peer: peer, fps: fps, sent: sent}
	return nil
}

// Outstanding reports how many asks still await their reply.
func (p *Pipeline) Outstanding() int { return len(p.pending) }

// Next blocks for one reply and returns the exchange it completes. A
// reply that names no outstanding ask or fails the strict decode is an
// error; so is a communicator failure (an aborted restore).
func (p *Pipeline) Next() (Exchange, error) {
	frame, err := p.comm.Recv(collectives.AnyRank, p.class.replyTag(p.comm.Rank()))
	if err != nil {
		return Exchange{}, fmt.Errorf("fetch: batched reply: %w", err)
	}
	id, err := chunksReplyID(frame)
	if err != nil {
		return Exchange{}, err
	}
	a, ok := p.pending[id]
	if !ok {
		return Exchange{}, fmt.Errorf("fetch: batched reply for unknown exchange %d", id)
	}
	delete(p.pending, id)
	recs, err := decodeChunksReply(frame, len(a.fps))
	if err != nil {
		return Exchange{}, fmt.Errorf("%w (rank %d, exchange %d)", err, a.peer, id)
	}
	return Exchange{ID: id, Peer: a.peer, FPs: a.fps, Records: recs, Elapsed: time.Since(a.sent), frame: frame}, nil
}

// Release gives the reply frame of ex back to the communicator's free
// list once its records have been copied: nothing may read them after.
func (p *Pipeline) Release(ex Exchange) { collectives.Release(p.comm, ex.frame) }
