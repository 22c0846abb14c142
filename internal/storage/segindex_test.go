package storage

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"reflect"
	"testing"

	"dedupcr/internal/fingerprint"
)

// detEntry builds a distinct deterministic index row for index i.
func detEntry(i int) segEntry {
	var fp fingerprint.FP
	for b := range fp {
		fp[b] = byte(i >> (8 * (b % 4)))
		fp[b] ^= byte(37 * b)
	}
	fp[0] = byte(i)
	fp[1] = byte(i >> 8)
	return segEntry{
		FP:     fp,
		Offset: uint64(i) * 4096,
		Length: uint32(1024 + i%3000),
		Refs:   uint32(1 + i%5),
		Sum:    uint32(i) * 0x9e3779b1,
	}
}

// encodeSegIndexV1 builds an index in the version 1 layout — no sum
// column — the way a store written before the column existed has it.
func encodeSegIndexV1(entries []segEntry) []byte {
	v2 := encodeSegIndex(entries)
	body := v2[:len(v2)-4-len(entries)*sumSize]
	body[len(segIndexMagic)] = 1
	return appendCRC(body)
}

// TestSegIndexEncodingByteIdentical locks in the codec's determinism
// contract, mirroring the fingerprint table's 100-run suite: the same
// entry set fed in 100 different insertion orders must encode to
// byte-identical indexes, or recovery checksums (and the manifest's
// carried-forward idxsum) would disagree across rebuilds.
func TestSegIndexEncodingByteIdentical(t *testing.T) {
	const n = 200
	base := make([]segEntry, n)
	for i := range base {
		base[i] = detEntry(i)
	}
	want := encodeSegIndex(base)
	for run := 2; run <= 101; run++ {
		r := rand.New(rand.NewSource(int64(run)))
		shuffled := make([]segEntry, n)
		copy(shuffled, base)
		r.Shuffle(n, func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		got := encodeSegIndex(shuffled)
		if !bytes.Equal(got, want) {
			t.Fatalf("run %d: shuffled insertion order changed the encoding (%d vs %d bytes)", run, len(got), len(want))
		}
	}
	// The sum column is part of the encoding: one changed sum, other bytes.
	base[n/2].Sum ^= 1
	if bytes.Equal(encodeSegIndex(base), want) {
		t.Fatal("a changed sum left the encoding as it was")
	}
}

func TestSegIndexRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 7, 333} {
		entries := make([]segEntry, n)
		for i := range entries {
			entries[i] = detEntry(i)
		}
		enc := encodeSegIndex(entries)
		dec, err := decodeSegIndex(enc)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if len(dec) != n {
			t.Fatalf("n=%d: decoded %d entries", n, len(dec))
		}
		// Decode returns fp-sorted rows; compare as sets via re-encode.
		if !bytes.Equal(encodeSegIndex(dec), enc) {
			t.Fatalf("n=%d: decode/re-encode not a fixed point", n)
		}
		// Every column, the sums included, comes back on its own row.
		byFP := make(map[fingerprint.FP]segEntry, n)
		for _, e := range entries {
			byFP[e.FP] = e
		}
		for _, e := range dec {
			if e != byFP[e.FP] {
				t.Fatalf("n=%d: row %s decoded as %+v, encoded %+v", n, e.FP.Short(), e, byFP[e.FP])
			}
		}
	}
}

func TestSegIndexDecodeRejectsCorruption(t *testing.T) {
	entries := []segEntry{detEntry(1), detEntry(2), detEntry(3)}
	enc := encodeSegIndex(entries)
	cases := map[string][]byte{
		"empty":     {},
		"magic":     append([]byte("XXXX"), enc[4:]...),
		"version":   append(append([]byte(nil), enc[:4]...), append([]byte{99}, enc[5:]...)...),
		"truncated": enc[:len(enc)-5],
		"flipped":   append([]byte(nil), enc...),
		"trailing":  append(append([]byte(nil), enc...), 0),
	}
	cases["flipped"][len(enc)/2] ^= 0x40
	// A checksummed body whose sum column is cut short.
	cases["sum column truncated"] = appendCRC(append([]byte(nil), enc[:len(enc)-4-1]...))
	for name, data := range cases {
		if _, err := decodeSegIndex(data); err == nil {
			t.Errorf("%s: corrupted index decoded without error", name)
		}
	}
	// A version 1 index — sound, but without sums — is refused with the
	// version error, not migrated.
	if _, err := decodeSegIndex(encodeSegIndexV1(entries)); err == nil || err.Error() != "storage: segment index version 1, want 2" {
		t.Errorf("v1 index: %v, want the version error", err)
	}
	// A hostile count prefix must be rejected by the bound check, not
	// allocate: craft a valid-checksum body claiming 2^40 entries.
	hostile := []byte(segIndexMagic)
	hostile = append(hostile, segIndexVersion)
	hostile = appendUvarintForTest(hostile, 1<<40)
	hostile = appendCRC(hostile)
	if _, err := decodeSegIndex(hostile); err == nil {
		t.Error("hostile count prefix decoded without error")
	}
}

func TestManifestRoundTrip(t *testing.T) {
	cases := []*manifest{
		{Gen: 0, NextSeg: 1},
		{Gen: 7, NextSeg: 12, Segs: []manifestSeg{
			{ID: 3, DataLen: 4096, IdxSum: 0xdeadbeef},
			{ID: 5, DataLen: 1, IdxSum: 1, Refs: []uint32{0, 2, 9}},
			{ID: 11, DataLen: 1 << 30, IdxSum: 0xffffffff},
		}},
		// An override column that is present but empty is not "absent".
		{Gen: 1, NextSeg: 2, Segs: []manifestSeg{{ID: 1, Refs: []uint32{}}}},
		{Gen: 3, NextSeg: 2, Segs: []manifestSeg{{ID: 1, DataLen: 9, IdxSum: 5}}, Blobs: []manifestBlob{
			{Name: "", Version: 4, Sum: 1},
			{Name: "ds-000001/gc-rank000003", Version: 1 << 40, Sum: 0xffffffff},
			{Name: "ftrun/latest", Version: 7},
		}},
	}
	for i, m := range cases {
		enc := m.encode()
		dec, err := decodeManifest(enc)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if len(dec.Segs) > 0 && !reflect.DeepEqual(m.Segs, dec.Segs) {
			t.Fatalf("case %d: segment round trip mismatch:\n  in  %+v\n  out %+v", i, m.Segs, dec.Segs)
		}
		if len(dec.Blobs) > 0 && !reflect.DeepEqual(m.Blobs, dec.Blobs) {
			t.Fatalf("case %d: blob round trip mismatch:\n  in  %+v\n  out %+v", i, m.Blobs, dec.Blobs)
		}
		if dec.Gen != m.Gen || dec.NextSeg != m.NextSeg || len(dec.Segs) != len(m.Segs) || len(dec.Blobs) != len(m.Blobs) {
			t.Fatalf("case %d: header round trip mismatch: %+v vs %+v", i, m, dec)
		}
		if !bytes.Equal(dec.encode(), enc) {
			t.Fatalf("case %d: decode/re-encode not a fixed point", i)
		}
	}
}

func TestManifestDecodeRejectsCorruption(t *testing.T) {
	m := &manifest{Gen: 2, NextSeg: 4, Segs: []manifestSeg{
		{ID: 1, DataLen: 100, IdxSum: 42},
		{ID: 3, DataLen: 200, IdxSum: 43, Refs: []uint32{1, 0}},
	}, Blobs: []manifestBlob{{Name: "a/b", Version: 2, Sum: 9}}}
	enc := m.encode()
	cases := map[string][]byte{
		"empty":     {},
		"magic":     append([]byte("XXXX"), enc[4:]...),
		"truncated": enc[:len(enc)-3],
		"flipped":   append([]byte(nil), enc...),
		"trailing":  append(append([]byte(nil), enc...), 7),
	}
	cases["flipped"][len(enc)-6] ^= 0x01
	for name, data := range cases {
		if _, err := decodeManifest(data); err == nil {
			t.Errorf("%s: corrupted manifest decoded without error", name)
		}
	}
	// Non-ascending IDs and a nextseg at or below the last ID are
	// structural corruption even with a valid checksum.
	bad := &manifest{Gen: 1, NextSeg: 3, Segs: []manifestSeg{{ID: 3, DataLen: 1, IdxSum: 1}}}
	if _, err := decodeManifest(bad.encode()); err == nil {
		t.Error("nextseg <= last segment ID decoded without error")
	}
	// So are blob names out of order or repeated.
	for _, names := range [][2]string{{"b", "a"}, {"a", "a"}} {
		dup := &manifest{NextSeg: 1, Blobs: []manifestBlob{{Name: names[0]}, {Name: names[1]}}}
		if _, err := decodeManifest(dup.encode()); err == nil {
			t.Errorf("blob names %q decoded without error", names)
		}
	}
	// A version 1 manifest — sound, but without the blob list — is
	// refused with the version error, not migrated.
	v1 := (&manifest{Gen: 1, NextSeg: 1}).encode()
	v1 = v1[:len(v1)-4-1] // drop the crc and the empty blob list
	v1[len(manifestMagic)] = 1
	if _, err := decodeManifest(appendCRC(v1)); err == nil || err.Error() != "storage: manifest version 1, want 2" {
		t.Errorf("v1 manifest: %v, want the version error", err)
	}
	// Counts that claim more entries than the bytes left can hold are
	// refused at the count, before they size a slice.
	refs, blobs := overCountManifests()
	for _, c := range []struct {
		data []byte
		want string
	}{
		{refs, "storage: manifest claims 1000 refcounts for 3 bytes"},
		{blobs, "storage: manifest claims 1000 blobs for 7 bytes"},
	} {
		if _, err := decodeManifest(c.data); err == nil || err.Error() != c.want {
			t.Errorf("over-count manifest: %v, want %q", err, c.want)
		}
	}
}

// overCountManifests returns two checksummed manifests: one whose
// segment's override flag claims 1000 refcounts with 3 bytes left, and
// one that claims 1000 blobs with one blob's 7 bytes left.
func overCountManifests() (refs, blobs []byte) {
	head := func(segs uint64) []byte {
		b := append([]byte(manifestMagic), manifestVersion)
		b = appendUvarintForTest(b, 1) // gen
		b = appendUvarintForTest(b, 2) // nextseg
		return appendUvarintForTest(b, segs)
	}
	refs = appendUvarintForTest(head(1), 1)       // segment id
	refs = appendUvarintForTest(refs, 1)          // datalen
	refs = binary.BigEndian.AppendUint32(refs, 0) // idxsum
	refs = appendUvarintForTest(refs, 1+1000)     // override flag
	refs = append(refs, 1, 1, 1)
	blobs = appendUvarintForTest(head(0), 1000)
	blobs = append(blobs, 1, 'a', 1, 0, 0, 0, 0) // name, version, sum
	return appendCRC(refs), appendCRC(blobs)
}

// appendUvarintForTest and appendCRC keep hostile-input construction
// readable in the corruption tests and fuzz seeds.
func appendUvarintForTest(buf []byte, v uint64) []byte {
	for v >= 0x80 {
		buf = append(buf, byte(v)|0x80)
		v >>= 7
	}
	return append(buf, byte(v))
}

func appendCRC(body []byte) []byte {
	return binary.BigEndian.AppendUint32(body, crc32.ChecksumIEEE(body))
}
