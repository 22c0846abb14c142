package telemetry

import (
	"bytes"
	"testing"
)

// FuzzDecodeDump drives the telemetry dump decoder with arbitrary bytes:
// the duration-slice and histogram length prefixes arrive from peers and
// must be bounded, and any input that decodes must survive a re-encode
// cycle.
func FuzzDecodeDump(f *testing.F) {
	valid, err := EncodeDump(fullDump(1))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:9])
	f.Add([]byte{})
	f.Add([]byte{dumpWireVersion})

	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := DecodeDump(data)
		if err != nil {
			return
		}
		enc, err := EncodeDump(d)
		if err != nil {
			t.Fatalf("re-encode of decoded dump failed: %v", err)
		}
		if _, err := DecodeDump(enc); err != nil {
			t.Fatalf("re-decode of re-encoded dump failed: %v", err)
		}
	})
}

// FuzzDecodeStore drives the store-stats decoder with arbitrary bytes.
// The record is a fixed block with no optional parts, so any input that
// decodes must re-encode to exactly the same bytes.
func FuzzDecodeStore(f *testing.F) {
	valid, err := EncodeStoreStats(storeStatsFixture(1))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:9])
	f.Add([]byte{})
	f.Add(append([]byte{storeWireVersion + 1}, valid[1:]...))

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeStoreStats(data)
		if err != nil {
			return
		}
		enc, err := EncodeStoreStats(s)
		if err != nil {
			t.Fatalf("re-encode of decoded store stats failed: %v", err)
		}
		if !bytes.Equal(enc, data) {
			t.Fatalf("re-encode differs:\n got %x\nwant %x", enc, data)
		}
	})
}
