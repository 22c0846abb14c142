package fetch

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"dedupcr/internal/collectives"
	"dedupcr/internal/fingerprint"
	"dedupcr/internal/storage"
)

// putAll stores every chunk under its fingerprint and returns those.
func putAll(t *testing.T, store storage.Store, chunks ...[]byte) []fingerprint.FP {
	t.Helper()
	fps := make([]fingerprint.FP, len(chunks))
	for i, data := range chunks {
		fps[i] = fingerprint.Of(data)
		if err := store.PutChunk(fps[i], data); err != nil {
			t.Fatal(err)
		}
	}
	return fps
}

// serving runs body on rank 0 of a group whose ranks all serve their
// store for the body's duration, under a 2 s deadline: the batched
// protocol's contract is that a requester is always answered.
func serving(t *testing.T, stores []storage.Store, body func(c collectives.Comm) error) {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		done <- collectives.Run(len(stores), func(c collectives.Comm) error {
			srv := Serve(c, stores[c.Rank()], 0)
			var err error
			if c.Rank() == 0 {
				err = body(c)
			}
			if berr := collectives.Barrier(c); err == nil {
				err = berr
			}
			srv.Stop()
			return err
		})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("requester still waiting after 2 s")
	}
}

// memStores returns n empty in-memory stores.
func memStores(n int) []storage.Store {
	stores := make([]storage.Store, n)
	for r := range stores {
		stores[r] = storage.NewMem()
	}
	return stores
}

// exchangeWith asks peer for fps and returns the one reply.
func exchangeWith(c collectives.Comm, peer int, fps []fingerprint.FP) (Exchange, error) {
	p := NewPipeline(c, 0)
	if err := p.Ask(peer, fps); err != nil {
		return Exchange{}, err
	}
	ex, err := p.Next()
	if err == nil && p.Outstanding() != 0 {
		err = fmt.Errorf("%d asks outstanding after the only reply", p.Outstanding())
	}
	return ex, err
}

func TestBatchedRoundTrip(t *testing.T) {
	stores := memStores(2)
	a, c := []byte("first chunk"), []byte("third chunk, longer")
	held := putAll(t, stores[1], a, nil, c)
	absent := fingerprint.Of([]byte("nobody stored this"))
	asked := []fingerprint.FP{held[0], absent, held[1], held[2]}
	serving(t, stores, func(comm collectives.Comm) error {
		ex, err := exchangeWith(comm, 1, asked)
		if err != nil {
			return err
		}
		if ex.Peer != 1 || len(ex.Records) != len(asked) || &ex.FPs[0] != &asked[0] {
			return fmt.Errorf("exchange %+v does not echo the ask", ex)
		}
		want := []Record{{Found: true, Data: a}, {}, {Found: true}, {Found: true, Data: c}}
		for i, w := range want {
			got := ex.Records[i]
			// A found, empty chunk is not a miss.
			if got.Found != w.Found || !bytes.Equal(got.Data, w.Data) {
				return fmt.Errorf("record %d = {%v %q}, want {%v %q}", i, got.Found, got.Data, w.Found, w.Data)
			}
			// A found record carries the sum its bytes pass under the
			// fingerprint asked for.
			if got.Found && storage.CheckSum(&asked[i], got.Data, got.Sum) != nil {
				return fmt.Errorf("record %d: sum %08x does not vouch for its bytes", i, got.Sum)
			}
		}
		// Asking for nothing is answered with nothing.
		if ex, err = exchangeWith(comm, 1, nil); err != nil || len(ex.Records) != 0 {
			return fmt.Errorf("empty ask: %d records, %v", len(ex.Records), err)
		}
		return nil
	})
}

// TestBatchedReplyCap pins the server-side cap: the first record always
// goes, however large; once collectives.MaxPutBytes of reply are spoken
// for, the rest are answered not-found even though the store holds them.
func TestBatchedReplyCap(t *testing.T) {
	stores := memStores(2)
	big := bytes.Repeat([]byte{0xAB}, 2<<20) // above the cap on its own
	half := bytes.Repeat([]byte{0xCD}, collectives.MaxPutBytes/2)
	small := []byte("small")
	fps := putAll(t, stores[1], big, half, small)
	fpBig, fpHalf, fpSmall := fps[0], fps[1], fps[2]
	serving(t, stores, func(c collectives.Comm) error {
		for _, tc := range []struct {
			name string
			ask  []fingerprint.FP
			want []bool
		}{
			{"oversize alone", []fingerprint.FP{fpBig}, []bool{true}},
			{"oversize first caps the tail", []fingerprint.FP{fpBig, fpSmall}, []bool{true, false}},
			{"oversize later is cut with all after it", []fingerprint.FP{fpSmall, fpBig, fpSmall}, []bool{true, false, false}},
			{"cap reached mid-request", []fingerprint.FP{fpHalf, fpSmall, fpHalf, fpSmall}, []bool{true, true, false, false}},
		} {
			ex, err := exchangeWith(c, 1, tc.ask)
			if err != nil {
				return fmt.Errorf("%s: %w", tc.name, err)
			}
			for i, want := range tc.want {
				r := ex.Records[i]
				if r.Found != want || (want && fingerprint.Of(r.Data) != tc.ask[i]) {
					return fmt.Errorf("%s: record %d found=%v (%d bytes), want found=%v", tc.name, i, r.Found, len(r.Data), want)
				}
			}
		}
		if got := ReplyBytes(2, int64(len(half)+len(small))); got > collectives.MaxPutBytes {
			return fmt.Errorf("test premise: two-record reply is %d bytes", got)
		}
		return nil
	})
}

// TestBatchedMalformedRequest: a request whose payload is not 4 + 20·n
// bytes is still answered, and the answer is an error at the requester —
// never silence.
func TestBatchedMalformedRequest(t *testing.T) {
	stores := memStores(2)
	fp := putAll(t, stores[1], []byte("held"))[0]
	request := func(c collectives.Comm, payload []byte) error {
		req := append([]byte{opChunks, 0, 0, 0, 0}, payload...)
		return c.Send(1, Class(0).reqTag(), req)
	}
	serving(t, stores, func(c collectives.Comm) error {
		// Three stray bytes after the fingerprint: the id is readable, so
		// the reply names the exchange but carries no record.
		p := NewPipeline(c, 0)
		p.pending[7] = ask{peer: 1, fps: []fingerprint.FP{fp}, sent: time.Now()}
		payload := binary.BigEndian.AppendUint32(nil, 7)
		payload = append(append(payload, fp[:]...), 1, 2, 3)
		if err := request(c, payload); err != nil {
			return err
		}
		if _, err := p.Next(); err == nil || !strings.Contains(err.Error(), "truncated") {
			return fmt.Errorf("trailing request bytes: got %v, want a truncated-reply error", err)
		}
		// Not even an id: the reply comes back under id ^0.
		p = NewPipeline(c, 0)
		p.pending[0] = ask{peer: 1, fps: []fingerprint.FP{fp}, sent: time.Now()}
		if err := request(c, []byte{9, 9}); err != nil {
			return err
		}
		if _, err := p.Next(); err == nil || !strings.Contains(err.Error(), "unknown exchange") {
			return fmt.Errorf("id-less request: got %v, want an unknown-exchange error", err)
		}
		return nil
	})
}

// gatedStore blocks every chunk read its fetch server makes until
// released.
type gatedStore struct {
	storage.Store
	gate chan struct{}
}

func (g gatedStore) GetChunkSum(fp fingerprint.FP) ([]byte, uint32, error) {
	<-g.gate
	return g.Store.GetChunkSum(fp)
}

// TestBatchedRepliesOutOfOrder: replies are matched to asks by id, not by
// arrival order — the peer asked first may answer last.
func TestBatchedRepliesOutOfOrder(t *testing.T) {
	stores := memStores(3)
	one, two := []byte("held by rank 1"), []byte("held by rank 2")
	fp1 := putAll(t, stores[1], one)[0]
	fp2 := putAll(t, stores[2], two)[0]
	gate := make(chan struct{})
	stores[1] = gatedStore{stores[1], gate}
	serving(t, stores, func(c collectives.Comm) error {
		defer close(gate) // whatever happens, let rank 1's server go
		p := NewPipeline(c, 0)
		if err := p.Ask(1, []fingerprint.FP{fp1}); err != nil {
			return err
		}
		if err := p.Ask(2, []fingerprint.FP{fp2, fp1}); err != nil {
			return err
		}
		// Exchange ids number the asks from 0.
		ex, err := p.Next()
		if err != nil {
			return err
		}
		if ex.ID != 1 || ex.Peer != 2 || !bytes.Equal(ex.Records[0].Data, two) || ex.Records[1].Found {
			return fmt.Errorf("first reply %+v, want rank 2's", ex)
		}
		gate <- struct{}{}
		if ex, err = p.Next(); err != nil {
			return err
		}
		if ex.ID != 0 || ex.Peer != 1 || !bytes.Equal(ex.Records[0].Data, one) || p.Outstanding() != 0 {
			return fmt.Errorf("second reply %+v, want rank 1's", ex)
		}
		return nil
	})
}

// sampleRecords is a reply's worth of answers: found with bytes, not
// found, found and empty, each found one under its own sum.
func sampleRecords() []Record {
	return []Record{{Found: true, Sum: 0xA1B2C3D4, Data: []byte("abc")}, {}, {Found: true, Sum: 0x01020304}}
}

// TestChunksReplyRoundTrip: any mix of found and not-found records
// decodes to what was encoded, sums included, and the frame is exactly
// ReplyBytes of the found records plus a bare header per miss.
func TestChunksReplyRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	for trial := 0; trial < 200; trial++ {
		recs := make([]Record, rng.Intn(12))
		found, payload := 0, int64(0)
		for i := range recs {
			if rng.Intn(3) == 0 {
				continue
			}
			data := make([]byte, rng.Intn(40))
			rng.Read(data)
			recs[i] = Record{Found: true, Sum: rng.Uint32(), Data: data}
			found++
			payload += int64(len(data))
		}
		id := rng.Uint32()
		frame := encodeChunksReply(nil, id, recs)
		if want := ReplyBytes(found, payload) + recHeader*int64(len(recs)-found); int64(len(frame)) != want {
			t.Fatalf("trial %d: %d-byte frame, want %d", trial, len(frame), want)
		}
		if found == len(recs) && int64(len(frame)) != ReplyBytes(found, payload) {
			t.Fatalf("trial %d: all found, %d-byte frame, ReplyBytes %d", trial, len(frame), ReplyBytes(found, payload))
		}
		got, err := decodeChunksReply(frame, len(recs))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if gotID, _ := chunksReplyID(frame); gotID != id {
			t.Fatalf("trial %d: id %d, want %d", trial, gotID, id)
		}
		for i, w := range recs {
			if g := got[i]; g.Found != w.Found || g.Sum != w.Sum || !bytes.Equal(g.Data, w.Data) {
				t.Fatalf("trial %d record %d: %+v, want %+v", trial, i, g, w)
			}
		}
	}
}

// TestChunksReplyStrictDecode feeds the decoder each way a frame can lie.
func TestChunksReplyStrictDecode(t *testing.T) {
	good := encodeChunksReply(nil, 3, sampleRecords())
	if recs, err := decodeChunksReply(good, 3); err != nil || len(recs) != 3 || string(recs[0].Data) != "abc" || recs[2].Sum != 0x01020304 {
		t.Fatalf("well-formed frame: %v %v", recs, err)
	}
	patch := func(at int, b byte) []byte {
		f := append([]byte(nil), good...)
		f[at] = b
		return f
	}
	// The last record is found and empty: 1 | 0 | sum, 9 bytes.
	for name, tc := range map[string]struct {
		frame []byte
		n     int
		want  string
	}{
		"no header":            {good[:4], 0, "no header"},
		"single-call reply":    {patch(0, 1), 3, "reply kind"},
		"fewer records":        {good, 4, "truncated"},
		"trailing bytes":       {good, 2, "trailing"},
		"record header cut":    {good[:len(good)-6], 3, "truncated at record 2"},
		"cut inside its sum":   {good[:len(good)-2], 3, "record 2: cut inside its sum"},
		"payload overrun":      {patch(9, 200), 3, "overrun"},
		"found byte 2":         {patch(5, 2), 3, "found byte"},
		"not-found with bytes": {patch(5, 0), 3, "record 0: not-found with 3 bytes"},
		"negative count":       {good, -1, "cannot hold"},
	} {
		if _, err := decodeChunksReply(tc.frame, tc.n); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want an error containing %q", name, err, tc.want)
		}
	}
	// A count the frame cannot hold is refused before it sizes anything.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := decodeChunksReply(good[:5], 1<<20); err == nil {
		t.Fatal("accepted 1Mi records in a header-only frame")
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("refusing an impossible count allocated %d bytes", grew)
	}
}

// FuzzChunksReply drives the strict decoder with arbitrary frames and
// counts: it must not panic, must not allocate beyond the frame (records
// alias it, and their number is bounded by its length), and whatever it
// accepts must re-encode to exactly the bytes it was given.
func FuzzChunksReply(f *testing.F) {
	good := encodeChunksReply(nil, 3, sampleRecords())
	f.Add(good, uint16(3))
	f.Add(good, uint16(2))
	f.Add(good[:7], uint16(1))
	f.Add(good[:12], uint16(1))          // cut inside the first record's sum
	f.Add(good[:len(good)-2], uint16(3)) // cut inside the last one's
	f.Add(encodeChunksReply(nil, 9, []Record{{Found: true, Sum: ^uint32(0), Data: []byte{0}}}), uint16(1))
	f.Add([]byte{replyChunks, 0, 0, 0, 1}, uint16(0))
	f.Add([]byte{replyChunks, 0, 0, 0, 1, 1, 0xFF, 0xFF, 0xFF, 0xFF}, uint16(1))
	f.Fuzz(func(t *testing.T, frame []byte, n uint16) {
		recs, err := decodeChunksReply(frame, int(n))
		if err != nil {
			return
		}
		if len(recs) != int(n) || len(recs) > len(frame)/recHeader {
			t.Fatalf("%d records from a %d-byte frame (asked %d)", len(recs), len(frame), n)
		}
		id, err := chunksReplyID(frame)
		if err != nil {
			t.Fatalf("decoded a frame whose header is bad: %v", err)
		}
		if again := encodeChunksReply(nil, id, recs); !bytes.Equal(again, frame) {
			t.Fatalf("re-encoding differs:\n got %x\nwant %x", again, frame)
		}
	})
}
