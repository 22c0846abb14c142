package core

import (
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"testing"

	"dedupcr/internal/fingerprint"
	"dedupcr/internal/metrics"
	"dedupcr/internal/storage"
)

// commitReceived commits a whole window held in one buffer, as one frame,
// and returns the references stored (on error, those stored before it).
func commitReceived(store storage.Store, recvBuf []byte, m *metrics.Dump) ([]fingerprint.FP, error) {
	c := committer{store: store, m: m, size: int64(len(recvBuf)), p: recvBuf,
		next: func() ([]byte, error) { return nil, io.EOF }}
	err := c.commit()
	return c.refs, err
}

// commitReceivedPerRecord walks a window held in one buffer by offset —
// one fingerprint.Of and one PutChunk per record, failing at the first
// malformed one. It is the reference the committer's frame-by-frame
// walk must reproduce: same references in the same order, same counters,
// same error, on whole and broken windows.
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
// record, 63, 64, 65 and 3×64+7 records) and broken windows — a header
// cut short, a record overrunning the window — to the committer and to
// the per-record reference: both must store the same chunks, return
// exactly the references stored so far and report the same error.
func TestCommitReceivedMatchesPerRecord(t *testing.T) {
	for name, w := range receivedWindows() {
		checkCommitted(t, name, commitWith(commitReceived, w), commitWith(commitReceivedPerRecord, w))
	}
}

// receivedWindows are the whole and broken windows the commit tests
// feed: empty, one record, 63, 64, 65 and 3×64+7 records, and windows
// broken after 64 or 74 whole records.
func receivedWindows() map[string][]byte {
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
	for _, n := range []int{0, 1, 63, 64, 65, 3*64 + 7} {
		cases[fmt.Sprintf("%d records", n)] = window(n)
	}
	cut := window(74)
	cases["header truncated after 74 records"] = append(cut, 0, 0)
	cases["header truncated after 64 records"] = append(window(64), 0)
	overrun := append(window(74), encodeRecord(make([]byte, 30))...)
	cases["record 75 overruns"] = overrun[:len(overrun)-1]
	cases["first record overruns"] = []byte{0, 0, 1, 0, 7}
	return cases
}

// commitRun is one commit of a window: the store it filled, the
// references and error it returned, and its counters.
type commitRun struct {
	store storage.Store
	refs  []fingerprint.FP
	err   error
	m     metrics.Dump
}

// commitWith commits window w into a fresh store through commit.
func commitWith(commit func(storage.Store, []byte, *metrics.Dump) ([]fingerprint.FP, error), w []byte) commitRun {
	r := commitRun{store: storage.NewMem()}
	r.refs, r.err = commit(r.store, w, &r.m)
	return r
}

// checkCommitted compares a commit against its reference: same error,
// same references in the same order, same counters, same store contents.
func checkCommitted(t *testing.T, name string, got, want commitRun) {
	t.Helper()
	if fmt.Sprint(got.err) != fmt.Sprint(want.err) {
		t.Errorf("%s: error %v, reference %v", name, got.err, want.err)
	}
	if !slices.Equal(got.refs, want.refs) {
		t.Errorf("%s: %d references returned, reference %d (or another order)", name, len(got.refs), len(want.refs))
	}
	if got.m.RecvChunks != want.m.RecvChunks || got.m.RecvBytes != want.m.RecvBytes || got.m.RecvChunks != len(want.refs) {
		t.Errorf("%s: counted %d chunks / %d bytes, reference %d / %d", name, got.m.RecvChunks, got.m.RecvBytes, want.m.RecvChunks, want.m.RecvBytes)
	}
	for _, fp := range want.refs {
		g, err1 := got.store.GetChunk(fp)
		w, err2 := want.store.GetChunk(fp)
		if err1 != nil || err2 != nil || string(g) != string(w) || fingerprint.Of(g) != fp {
			t.Errorf("%s: chunk %s stored differently (%v, %v)", name, fp.Short(), err1, err2)
		}
	}
	gb, gc := got.store.Usage()
	if wb, wc := want.store.Usage(); gb != wb || gc != wc {
		t.Errorf("%s: store holds %d bytes in %d chunks, reference %d in %d", name, gb, gc, wb, wc)
	}
}

// TestCommitterCutFramesMatchWholeWindow: a window that arrives as many
// frames — cut at random points, inside headers and payloads alike, in
// pieces down to one byte — commits exactly as the whole window does:
// records cut by a frame boundary are carried across, and a broken
// window fails with the same error after the same records.
func TestCommitterCutFramesMatchWholeWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for name, w := range receivedWindows() {
		for trial := 0; trial < 8; trial++ {
			maxPiece := 1 + rng.Intn(1+len(w)/(1+trial))
			cuts := func(store storage.Store, w []byte, m *metrics.Dump) ([]fingerprint.FP, error) {
				c := committer{store: store, m: m, size: int64(len(w)), next: func() ([]byte, error) {
					if len(w) == 0 {
						return nil, io.EOF
					}
					k := min(1+rng.Intn(maxPiece), len(w))
					piece := w[:k]
					w = w[k:]
					return piece, nil
				}}
				err := c.commit()
				return c.refs, err
			}
			checkCommitted(t, fmt.Sprintf("%s, pieces of at most %d bytes", name, maxPiece), commitWith(cuts, w), commitWith(commitReceived, w))
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

// TestCommitReceivedStoreErrorMidBatch: a store that fails at its 70th
// put gets nothing after the failing put, and the references returned
// are exactly the puts that succeeded.
func TestCommitReceivedStoreErrorMidBatch(t *testing.T) {
	var w []byte
	for i := 0; i < 128; i++ {
		w = append(w, encodeRecord([]byte{byte(i), 1, 2})...)
	}
	store := &failingPuts{Store: storage.NewMem(), left: 69}
	var m metrics.Dump
	refs, err := commitReceived(store, w, &m)
	if err != storage.ErrFailed || len(refs) != 69 || m.RecvChunks != len(refs) {
		t.Fatalf("got %d references, %d counted, error %v", len(refs), m.RecvChunks, err)
	}
	if _, chunks := store.Usage(); chunks != len(refs) {
		t.Fatalf("store holds %d chunks, %d references returned", chunks, len(refs))
	}
}
