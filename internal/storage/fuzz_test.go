package storage

import (
	"reflect"
	"testing"
)

// FuzzSegmentIndexDecode drives the columnar index decoder with
// arbitrary bytes: the count prefix and every varint column must never
// panic or size an unbounded allocation (the boundedmake contract), and
// any input that decodes must survive a re-encode/re-decode cycle with
// the same entries. (Byte-identity of the canonical encoding is locked
// separately by TestSegIndexEncodingByteIdentical; arbitrary accepted
// inputs may carry non-minimal varints, which re-encode minimally.)
func FuzzSegmentIndexDecode(f *testing.F) {
	entries := make([]segEntry, 9)
	for i := range entries {
		entries[i] = detEntry(i)
	}
	valid := encodeSegIndex(entries)
	f.Add(valid)
	f.Add(encodeSegIndex(nil))
	f.Add(valid[:len(valid)/2])
	f.Add(append(append([]byte(nil), valid...), 0xFF))
	// A checksummed body claiming far more entries than it holds: the
	// bound check must reject it before allocating.
	hostile := []byte(segIndexMagic)
	hostile = append(hostile, segIndexVersion)
	hostile = appendUvarintForTest(hostile, 1<<40)
	f.Add(appendCRC(hostile))
	// Version 2 seeds: the sum column cut short under a valid checksum,
	// extreme sums and a zero-length row, and the same rows in the v1
	// layout, which must be refused.
	f.Add(appendCRC(append([]byte(nil), valid[:len(valid)-4-2]...)))
	edge := []segEntry{detEntry(1), detEntry(2)}
	edge[0].Sum, edge[1].Sum, edge[1].Length = 0, ^uint32(0), 0
	f.Add(encodeSegIndex(edge))
	f.Add(encodeSegIndexV1(entries))

	f.Fuzz(func(t *testing.T, data []byte) {
		dec, err := decodeSegIndex(data)
		if err != nil {
			return
		}
		enc := encodeSegIndex(dec)
		dec2, err := decodeSegIndex(enc)
		if err != nil {
			t.Fatalf("re-decode of re-encoded index failed: %v", err)
		}
		if !reflect.DeepEqual(dec, dec2) {
			t.Fatal("index entries changed across a re-encode cycle")
		}
	})
}

// FuzzManifestDecode drives the manifest decoder with arbitrary bytes:
// same contract as the index fuzzer — no panics, bounded allocations,
// and a stable re-encode/re-decode cycle on anything that decodes.
func FuzzManifestDecode(f *testing.F) {
	valid := (&manifest{Gen: 3, NextSeg: 9, Segs: []manifestSeg{
		{ID: 2, DataLen: 4096, IdxSum: 0x1234},
		{ID: 8, DataLen: 64, IdxSum: 0x5678, Refs: []uint32{1, 0, 3}},
	}, Blobs: []manifestBlob{
		{Name: "ds-000001/gc-rank000000", Version: 3, Sum: 0x9abc},
		{Name: "ftrun/latest", Version: 11},
	}}).encode()
	f.Add(valid)
	f.Add((&manifest{NextSeg: 1}).encode())
	f.Add(valid[:len(valid)/2])
	f.Add(append(append([]byte(nil), valid...), 0x00))
	// A checksummed body claiming a huge segment count.
	hostile := []byte(manifestMagic)
	hostile = append(hostile, manifestVersion)
	hostile = appendUvarintForTest(hostile, 1) // gen
	hostile = appendUvarintForTest(hostile, 1) // nextseg
	hostile = appendUvarintForTest(hostile, 1<<40)
	f.Add(appendCRC(hostile))

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := decodeManifest(data)
		if err != nil {
			return
		}
		enc := m.encode()
		m2, err := decodeManifest(enc)
		if err != nil {
			t.Fatalf("re-decode of re-encoded manifest failed: %v", err)
		}
		if !reflect.DeepEqual(m, m2) {
			t.Fatal("manifest changed across a re-encode cycle")
		}
	})
}
