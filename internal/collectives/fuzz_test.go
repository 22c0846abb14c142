package collectives

import (
	"bytes"
	"testing"
)

// FuzzFrameRoundTrip fuzzes the TCP transport's wire framing: a frame
// written by writeFrame must read back identically through readFrame
// (including back-to-back frames on one stream), and readFrame on
// arbitrary bytes must fail cleanly — no panic, no unbounded allocation —
// since the length prefix arrives from the network.
func FuzzFrameRoundTrip(f *testing.F) {
	f.Add(uint32(17), []byte("payload"))
	f.Add(uint32(0), []byte{})
	f.Add(uint32(1<<24), bytes.Repeat([]byte{0xAB}, 300))
	f.Add(uint32(0xFFFFFFFF), []byte{0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, tag uint32, payload []byte) {
		var buf bytes.Buffer
		if err := writeFrame(&buf, Tag(tag), payload); err != nil {
			t.Fatalf("writeFrame(%d bytes): %v", len(payload), err)
		}
		// A second frame on the same stream must not disturb the first.
		if err := writeFrame(&buf, Tag(tag)+1, []byte("next")); err != nil {
			t.Fatalf("writeFrame second frame: %v", err)
		}
		gotTag, gotPayload, gotTC, err := readFrame(&buf, nil)
		if err != nil {
			t.Fatalf("readFrame: %v", err)
		}
		if gotTag != Tag(tag) || !bytes.Equal(gotPayload, payload) {
			t.Fatalf("frame round-trip mismatch: tag %v/%v, %d/%d bytes",
				gotTag, Tag(tag), len(gotPayload), len(payload))
		}
		if gotTC != nil {
			t.Fatalf("legacy frame decoded with a trace context: %+v", gotTC)
		}
		gotTag, gotPayload, _, err = readFrame(&buf, nil)
		if err != nil || gotTag != Tag(tag)+1 || string(gotPayload) != "next" {
			t.Fatalf("second frame corrupted: tag %v, %q, err %v", gotTag, gotPayload, err)
		}

		// Arbitrary bytes as a stream: must terminate with either a valid
		// bounded frame or an error, never a panic or an over-limit alloc.
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
