package collectives

import (
	"encoding/binary"
	"fmt"

	"dedupcr/internal/obs"
)

// Causal wire tracing: an optional trace-context header piggybacked on
// TCP frames so receive-side spans link back to the sending rank.
//
// Compatibility is carried by one bit. The frame header's length word is
// bounded by maxFrameSize (1 GiB, bit 30), so bit 31 is guaranteed free:
//
//	legacy frame:   u32 payloadLen           | u32 tag | payload
//	traced frame:   u32 payloadLen | 1<<31   | u32 tag | u8 tcLen | tc | payload
//
// A legacy receiver that meets a traced frame rejects it as oversized
// instead of misparsing the payload (fail-stop, not corruption), and a
// trace-aware receiver decodes legacy frames unchanged — the direction
// FuzzFrameTraceContextDecode locks in. Tracing is therefore only
// enabled job-wide (all ranks run the same binary), never negotiated.

// flagTraceCtx marks a frame carrying a trace-context header. It cannot
// collide with a payload length because maxFrameSize caps lengths at
// bit 30.
const flagTraceCtx = uint32(1) << 31

// traceCtxVersion tags the trace-context layout.
const traceCtxVersion = 1

// traceCtxSize is the encoded size: version u8 | jobID u64 | dumpSeq u32
// | round u32 | sender u32 | spanID u64.
const traceCtxSize = 1 + 8 + 4 + 4 + 4 + 8

// TraceContext is the causal metadata a traced frame carries: which job
// and dump the frame belongs to, the sender's collective-round counter at
// send time, and a sender-unique span id the receiver's flow event links
// back to.
type TraceContext struct {
	JobID   uint64
	DumpSeq uint32
	Round   uint32
	Sender  uint32
	SpanID  uint64
}

// encodeTraceContext serializes tc into a fixed-size header.
func encodeTraceContext(tc *TraceContext) []byte {
	buf := make([]byte, 0, traceCtxSize)
	buf = append(buf, traceCtxVersion)
	buf = binary.BigEndian.AppendUint64(buf, tc.JobID)
	buf = binary.BigEndian.AppendUint32(buf, tc.DumpSeq)
	buf = binary.BigEndian.AppendUint32(buf, tc.Round)
	buf = binary.BigEndian.AppendUint32(buf, tc.Sender)
	buf = binary.BigEndian.AppendUint64(buf, tc.SpanID)
	return buf
}

// decodeTraceContext reverses encodeTraceContext. The header is
// peer-controlled input: length and version are checked before any field
// is read.
func decodeTraceContext(data []byte) (*TraceContext, error) {
	if len(data) != traceCtxSize {
		return nil, fmt.Errorf("collectives: trace context of %d bytes, want %d", len(data), traceCtxSize)
	}
	if data[0] != traceCtxVersion {
		return nil, fmt.Errorf("collectives: trace context version %d, want %d", data[0], traceCtxVersion)
	}
	return &TraceContext{
		JobID:   binary.BigEndian.Uint64(data[1:]),
		DumpSeq: binary.BigEndian.Uint32(data[9:]),
		Round:   binary.BigEndian.Uint32(data[13:]),
		Sender:  binary.BigEndian.Uint32(data[17:]),
		SpanID:  binary.BigEndian.Uint64(data[21:]),
	}, nil
}

// wireTraceState is the per-communicator tracing configuration installed
// by EnableWireTrace, read lock-free on every send/receive.
type wireTraceState struct {
	jobID   uint64
	dumpSeq uint32
	tracer  *obs.Track
}

// EnableWireTrace turns on causal wire tracing for this communicator:
// every outgoing data frame carries a trace-context header, a flow-start
// instant is recorded into tracer on send and a flow-end with the
// sender's span id on receive, so MergeTraces draws an arrow from the
// sending rank's timeline to the receiving rank's. jobID and dumpSeq
// identify the job in the receiver's flow annotations. A nil tracer
// disables tracing again. All ranks of a group must agree (see the
// compatibility note above).
func (c *TCPComm) EnableWireTrace(jobID uint64, dumpSeq uint32, tracer *obs.Track) {
	if tracer == nil {
		c.wtrace.Store(nil)
		return
	}
	c.wtrace.Store(&wireTraceState{jobID: jobID, dumpSeq: dumpSeq, tracer: tracer})
}

// nextSpanID mints a sender-unique flow id: rank in the top bits, a
// monotonic counter below, so ids never collide across ranks of a group.
func (c *TCPComm) nextSpanID() uint64 {
	return uint64(c.rank)<<40 | (c.spanSeq.Add(1) & (1<<40 - 1))
}
