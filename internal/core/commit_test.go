package core

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"dedupcr/internal/fingerprint"
	"dedupcr/internal/metrics"
	"dedupcr/internal/storage"
)

// commitReceivedPerRecord is commitReceived as it was before received
// records were fingerprinted in batches — one fingerprint.Of and one
// PutChunk per record, failing at the first malformed one. It stays here
// as the reference the batched walk must reproduce: same references in
// the same order, same counters, same error, on whole and broken windows.
func commitReceivedPerRecord(store storage.Store, recvBuf []byte, m *metrics.Dump) ([]fingerprint.FP, error) {
	var refs []fingerprint.FP
	for cur := 0; cur < len(recvBuf); {
		if cur+4 > len(recvBuf) {
			return refs, fmt.Errorf("window record header truncated at offset %d", cur)
		}
		size := int(binary.BigEndian.Uint32(recvBuf[cur:]))
		cur += 4
		if cur+size > len(recvBuf) {
			return refs, fmt.Errorf("window record of %d bytes overruns window at offset %d", size, cur)
		}
		data := recvBuf[cur : cur+size]
		cur += size
		fp := fingerprint.Of(data)
		if err := store.PutChunk(fp, data); err != nil {
			return refs, err
		}
		refs = append(refs, fp)
		m.RecvChunks++
		m.RecvBytes += int64(size)
	}
	return refs, nil
}

// TestCommitReceivedMatchesPerRecord feeds whole windows (empty, one
// record, exactly one batch, one past it, several batches) and windows
// broken in the middle of a batch — a header cut short, a record
// overrunning the window — to the batched walk and to the per-record
// reference: both must store the same chunks, return exactly the
// references stored so far and report the same error.
func TestCommitReceivedMatchesPerRecord(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	window := func(records int) []byte {
		var w []byte
		for i := 0; i < records; i++ {
			data := make([]byte, rng.Intn(40)) // some empty, some repeated
			rng.Read(data)
			w = append(w, encodeRecord(data)...)
		}
		return w
	}
	cases := map[string][]byte{}
	for _, n := range []int{0, 1, recvBatch - 1, recvBatch, recvBatch + 1, 3*recvBatch + 7} {
		cases[fmt.Sprintf("%d records", n)] = window(n)
	}
	cut := window(recvBatch + 10)
	cases["header truncated mid-batch"] = append(cut, 0, 0)
	cases["header truncated at a batch boundary"] = append(window(recvBatch), 0)
	overrun := append(window(recvBatch+10), encodeRecord(make([]byte, 30))...)
	cases["record overruns mid-batch"] = overrun[:len(overrun)-1]
	cases["first record overruns"] = []byte{0, 0, 1, 0, 7}

	for name, w := range cases {
		got, want := storage.NewMem(), storage.NewMem()
		var gm, wm metrics.Dump
		gotRefs, gotErr := commitReceived(got, w, &gm)
		wantRefs, wantErr := commitReceivedPerRecord(want, w, &wm)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Errorf("%s: error %v, per-record reference %v", name, gotErr, wantErr)
		}
		if !slices.Equal(gotRefs, wantRefs) {
			t.Errorf("%s: %d references returned, reference %d (or another order)", name, len(gotRefs), len(wantRefs))
		}
		if gm.RecvChunks != wm.RecvChunks || gm.RecvBytes != wm.RecvBytes || gm.RecvChunks != len(wantRefs) {
			t.Errorf("%s: counted %d chunks / %d bytes, reference %d / %d", name, gm.RecvChunks, gm.RecvBytes, wm.RecvChunks, wm.RecvBytes)
		}
		for _, fp := range wantRefs {
			g, err1 := got.GetChunk(fp)
			w, err2 := want.GetChunk(fp)
			if err1 != nil || err2 != nil || string(g) != string(w) || fingerprint.Of(g) != fp {
				t.Errorf("%s: chunk %s stored differently (%v, %v)", name, fp.Short(), err1, err2)
			}
		}
		gb, gc := got.Usage()
		if wb, wc := want.Usage(); gb != wb || gc != wc {
			t.Errorf("%s: store holds %d bytes in %d chunks, reference %d in %d", name, gb, gc, wb, wc)
		}
	}
}

// failingPuts is a store whose PutChunk fails from the given call on.
type failingPuts struct {
	storage.Store
	left int
}

func (f *failingPuts) PutChunk(fp fingerprint.FP, data []byte) error {
	if f.left--; f.left < 0 {
		return storage.ErrFailed
	}
	return f.Store.PutChunk(fp, data)
}

// TestCommitReceivedStoreErrorMidBatch: a store that fails in the middle
// of a fingerprinted batch gets nothing after the failing put, and the
// references returned are exactly the puts that succeeded.
func TestCommitReceivedStoreErrorMidBatch(t *testing.T) {
	var w []byte
	for i := 0; i < 2*recvBatch; i++ {
		w = append(w, encodeRecord([]byte{byte(i), 1, 2})...)
	}
	store := &failingPuts{Store: storage.NewMem(), left: recvBatch + 5}
	var m metrics.Dump
	refs, err := commitReceived(store, w, &m)
	if err != storage.ErrFailed || len(refs) != recvBatch+5 || m.RecvChunks != len(refs) {
		t.Fatalf("got %d references, %d counted, error %v", len(refs), m.RecvChunks, err)
	}
	if _, chunks := store.Usage(); chunks != len(refs) {
		t.Fatalf("store holds %d chunks, %d references returned", chunks, len(refs))
	}
}
