package storage

import (
	"reflect"
	"testing"

	"dedupcr/internal/fingerprint"
)

// FuzzSegmentIndexDecode drives the columnar index decoder with
// arbitrary bytes: the count prefix and every varint column must never
// panic or size an unbounded allocation, and any input that decodes must
// survive a re-encode/re-decode cycle with the same entries.
// (Byte-identity of the canonical encoding is locked separately by
// TestSegIndexEncodingByteIdentical; arbitrary accepted inputs may carry
// non-minimal varints, which re-encode minimally.)
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
	// Checksummed bodies claiming more refcounts and more blobs than the
	// rest of the input holds.
	refs, blobs := overCountManifests()
	f.Add(refs)
	f.Add(blobs)

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

// FuzzReadRecords drives an engine — the segment store, or the memory
// store when mem is set — through puts, releases, commits, compactions and
// corruption of stored bytes, then reads a batch of records drawn from the
// input: every record must come out of ReadRecords as GetChunk and a
// length compare have it. ops holds one op per byte — the low two bits
// pick put, release or commit-and-compact, the rest a chunk — and batch
// two bytes per record: a chunk, and flags for a wrong length, a
// corruption of that chunk where the engine keeps it (on disk once
// sealed, in its arena) and a gap in dst.
func FuzzReadRecords(f *testing.F) {
	for _, mem := range []bool{false, true} {
		f.Add(mem, []byte{4, 8, 12, 16, 20, 3}, []byte{1, 0, 2, 0, 3, 0, 4, 0, 5, 0})
		f.Add(mem, []byte{4, 5, 8, 9, 12, 3, 4, 6, 3, 7}, []byte{1, 0, 2, 1, 2, 4, 1, 0x10, 3, 0})
		f.Add(mem, []byte{0, 4, 8, 3, 4, 10, 8, 3}, []byte{0, 0, 1, 0, 1, 0, 2, 0x12, 9, 0})
	}
	f.Fuzz(func(t *testing.T, mem bool, ops, batch []byte) {
		if len(ops) > 256 || len(batch) > 512 {
			return
		}
		var s Store = NewMem()
		corrupt := func(fp fingerprint.FP) {
			if sl, ok := s.(*memStore).index[fp]; ok && sl.length > 0 {
				flipStored(t, s, fp)
			}
		}
		if !mem {
			seg, err := NewSegStore(t.TempDir(), SegConfig{SegmentTarget: 2 << 10, GarbageRatio: 0.3})
			if err != nil {
				t.Fatal(err)
			}
			defer seg.Close()
			s = seg
			corrupt = func(fp fingerprint.FP) { corruptOnDisk(t, seg, fp) }
		}
		chunk := func(b byte) []byte {
			if id := int(b >> 2); id > 0 {
				return segChunk(id, 2+id*97%1500)
			}
			return nil
		}
		var err error
		for _, op := range ops {
			fp := fingerprint.Of(chunk(op))
			switch op & 3 {
			case 0, 1:
				err = s.PutChunk(fp, chunk(op))
			case 2:
				if held(s, fp) {
					err = s.ReleaseChunk(fp)
				}
			case 3:
				if err = s.Commit(); err == nil && !mem {
					_, err = s.(*SegStore).Compact()
				}
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		var recs []Record
		off := int32(0)
		for i := 0; i+1 < len(batch); i += 2 {
			data, flags := chunk(batch[i]<<2), batch[i+1]
			fp := fingerprint.Of(data)
			if flags&2 != 0 {
				corrupt(fp)
			}
			n := int32(len(data))
			if flags&1 != 0 {
				n++
			}
			off += int32(flags >> 4)
			recs = append(recs, Record{FP: fp, Off: off, Len: n})
			off += n
		}
		checkBatch(t, "fuzz", s, recs)
	})
}
