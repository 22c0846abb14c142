package collectives

import (
	"bytes"
	"testing"

	"dedupcr/internal/obs"
)

func TestTraceContextRoundTrip(t *testing.T) {
	tc := &TraceContext{JobID: 0xDEADBEEFCAFE, DumpSeq: 7, Round: 42, Sender: 3, SpanID: 3<<40 | 99}
	dec, err := decodeTraceContext(encodeTraceContext(tc))
	if err != nil {
		t.Fatal(err)
	}
	if *dec != *tc {
		t.Fatalf("round trip: got %+v, want %+v", dec, tc)
	}
}

func TestTraceContextDecodeRejects(t *testing.T) {
	good := encodeTraceContext(&TraceContext{JobID: 1})
	if _, err := decodeTraceContext(good[:len(good)-1]); err == nil {
		t.Fatal("truncated context accepted")
	}
	if _, err := decodeTraceContext(append(good, 0)); err == nil {
		t.Fatal("oversized context accepted")
	}
	bad := append([]byte(nil), good...)
	bad[0] = 99
	if _, err := decodeTraceContext(bad); err == nil {
		t.Fatal("wrong version accepted")
	}
}

func TestFrameTraceContextRoundTrip(t *testing.T) {
	tc := &TraceContext{JobID: 11, DumpSeq: 2, Round: 5, Sender: 1, SpanID: 1<<40 | 7}
	var buf bytes.Buffer
	if err := writeFrameTC(&buf, Tag(33), tc, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	// A legacy frame on the same stream must interleave cleanly.
	if err := writeFrame(&buf, Tag(34), []byte("plain")); err != nil {
		t.Fatal(err)
	}
	tag, payload, gotTC, err := readFrame(&buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tag != Tag(33) || string(payload) != "payload" {
		t.Fatalf("traced frame: tag %v payload %q", tag, payload)
	}
	if gotTC == nil || *gotTC != *tc {
		t.Fatalf("trace context: got %+v, want %+v", gotTC, tc)
	}
	tag, payload, gotTC, err = readFrame(&buf, nil)
	if err != nil || tag != Tag(34) || string(payload) != "plain" || gotTC != nil {
		t.Fatalf("legacy frame after traced: tag %v payload %q tc %+v err %v", tag, payload, gotTC, err)
	}
}

func TestFrameTraceContextEmptyPayload(t *testing.T) {
	tc := &TraceContext{Sender: 2, SpanID: 5}
	var buf bytes.Buffer
	if err := writeFrameTC(&buf, Tag(1), tc, nil); err != nil {
		t.Fatal(err)
	}
	tag, payload, gotTC, err := readFrame(&buf, nil)
	if err != nil || tag != Tag(1) || len(payload) != 0 {
		t.Fatalf("empty traced frame: tag %v payload %q err %v", tag, payload, err)
	}
	if gotTC == nil || gotTC.SpanID != 5 {
		t.Fatalf("trace context lost on empty payload: %+v", gotTC)
	}
}

// TestWireTraceEndToEnd sends over a live TCP pair with wire tracing
// enabled and asserts both flow anchors land in the tracers: a FlowStart
// on the sender and a flow end with the same span id on the receiver.
func TestWireTraceEndToEnd(t *testing.T) {
	comms, err := StartLocalTCP(2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, c := range comms {
			c.Close()
		}
	}()
	tr := obs.New(64)
	recs := []*obs.Track{
		tr.Track(0, 0, "rank 0"),
		tr.Track(0, 1, "rank 1"),
	}
	comms[0].EnableWireTrace(77, 3, recs[0])
	comms[1].EnableWireTrace(77, 3, recs[1])

	if err := comms[0].Send(1, Tag(9), []byte("hello")); err != nil {
		t.Fatal(err)
	}
	got, err := comms[1].Recv(0, Tag(9))
	if err != nil || string(got) != "hello" {
		t.Fatalf("recv: %q, %v", got, err)
	}

	// The receive-side flow anchor is recorded before the frame reaches
	// the mailbox, so once Recv returned both anchors are committed.
	var sendEv, recvEv *obs.Event
	for _, e := range tr.Events() {
		e := e
		switch e.Kind {
		case obs.KindFlowStart:
			sendEv = &e
		case obs.KindFlowEnd:
			recvEv = &e
		}
	}
	if sendEv == nil || recvEv == nil {
		t.Fatalf("flow anchors missing: send %+v recv %+v", sendEv, recvEv)
	}
	if sendEv.Flow != recvEv.Flow {
		t.Fatalf("flow ids differ: send %x recv %x", sendEv.Flow, recvEv.Flow)
	}
	if sendEv.Rank != 0 || recvEv.Rank != 1 {
		t.Fatalf("flow anchors on wrong tracks: send tid %d, recv tid %d", sendEv.Rank, recvEv.Rank)
	}
	if recvEv.Args["from"] != "0" || recvEv.Args["job"] != "77/3" {
		t.Fatalf("receive annotations wrong: %v", recvEv.Args)
	}

	// Self-sends and disabled tracing add no frames on the wire.
	comms[0].EnableWireTrace(0, 0, nil)
	if err := comms[0].Send(0, Tag(10), []byte("self")); err != nil {
		t.Fatal(err)
	}
	if _, err := comms[0].Recv(0, Tag(10)); err != nil {
		t.Fatal(err)
	}
}

// FuzzFrameTraceContextDecode locks in the compatibility argument of the
// extended frame header: legacy frames (bit 31 clear) must decode exactly
// as before with a nil trace context, traced frames must round-trip, and
// arbitrary header bytes must never panic or over-allocate.
func FuzzFrameTraceContextDecode(f *testing.F) {
	f.Add(uint32(17), []byte("payload"), true, uint64(1), uint32(2), uint32(3), uint64(4))
	f.Add(uint32(0), []byte{}, false, uint64(0), uint32(0), uint32(0), uint64(0))
	f.Add(uint32(1<<19), bytes.Repeat([]byte{0x5A}, 1000), true, ^uint64(0), ^uint32(0), ^uint32(0), ^uint64(0))
	f.Fuzz(func(t *testing.T, tag uint32, payload []byte, traced bool, jobID uint64, dumpSeq uint32, round uint32, spanID uint64) {
		var tc *TraceContext
		if traced {
			tc = &TraceContext{JobID: jobID, DumpSeq: dumpSeq, Round: round, Sender: tag % 16, SpanID: spanID}
		}
		var buf bytes.Buffer
		if err := writeFrameTC(&buf, Tag(tag), tc, payload); err != nil {
			t.Fatalf("writeFrameTC: %v", err)
		}
		gotTag, gotPayload, gotTC, err := readFrame(&buf, nil)
		if err != nil {
			t.Fatalf("readFrame: %v", err)
		}
		if gotTag != Tag(tag) || !bytes.Equal(gotPayload, payload) {
			t.Fatalf("frame mismatch: tag %v/%v, %d/%d bytes", gotTag, Tag(tag), len(gotPayload), len(payload))
		}
		if traced {
			if gotTC == nil || *gotTC != *tc {
				t.Fatalf("trace context mismatch: got %+v want %+v", gotTC, tc)
			}
		} else if gotTC != nil {
			t.Fatalf("legacy frame produced a trace context: %+v", gotTC)
		}

		// Arbitrary bytes as a stream: bounded, clean termination.
		r := bytes.NewReader(payload)
		for {
			_, p, _, err := readFrame(r, nil)
			if err != nil {
				break
			}
			if len(p) > maxFrameSize {
				t.Fatalf("readFrame returned %d bytes above limit", len(p))
			}
		}
	})
}
