package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"testing"
	"time"

	"dedupcr/internal/chunk"
	"dedupcr/internal/collectives"
	"dedupcr/internal/fingerprint"
	"dedupcr/internal/metrics"
	"dedupcr/internal/storage"
)

// encodeRecord is the per-record encoder the put path used before puts
// were gathered — one freshly allocated `u32 position | payload` message
// per chunk. It stays here as the reference the gathered windows must
// reproduce byte for byte.
func encodeRecord(pos int32, data []byte) []byte {
	rec := make([]byte, 4+len(data))
	binary.BigEndian.PutUint32(rec, uint32(pos))
	copy(rec[4:], data)
	return rec
}

// numberItems gives every rank's items ascending recipe positions, as
// classify does.
func numberItems(items [][]item) {
	for r := range items {
		for i := range items[r] {
			items[r][i].pos = int32(i)
		}
	}
}

// testChunk is data as one chunk, fingerprinted and summed as at ingest.
func testChunk(data []byte) chunk.Chunk {
	return chunk.FromCuts(data, []int{len(data)})[0]
}

// referenceWindows lays out, for every rank, the window a per-record put
// path fills: each sender's records, one encodeRecord at a time, from its
// planned offset on. It lists every window's records too, in window order.
func referenceWindows(plan *Plan, items [][]item) ([][]byte, [][]sentRecord) {
	n := len(items)
	wins := make([][]byte, n)
	recs := make([][]sentRecord, n)
	for r := range wins {
		wins[r] = make([]byte, plan.WindowSize(r))
	}
	for s := 0; s < n; s++ {
		offs := plan.Offsets(s)
		for d := 1; d < plan.K; d++ {
			off, to := offs[d], plan.Partner(s, d)
			for _, it := range items[s] {
				if slices.Contains(it.partners, d) {
					off += int64(copy(wins[to][off:], encodeRecord(it.pos, it.ch.Data)))
					recs[to] = append(recs[to], sentRecord{int(off), uint32(it.pos), it.ch.Sum})
				}
			}
		}
	}
	for r := range recs {
		slices.SortFunc(recs[r], func(a, b sentRecord) int { return a.end - b.end })
	}
	return wins, recs
}

// putAndDrain runs the put phase of every rank over a fresh in-proc group
// with the given worker bound — one: the partner streams one after the
// other; K: one goroutine per partner — and returns the bytes each
// rank's window delivered plus its window and dump counters. Every
// frame's checksum must be the one an honest sender of recs stamps.
func putAndDrain(t *testing.T, plan *Plan, items [][]item, recs [][]sentRecord, workers int) ([][]byte, []collectives.WindowStats, []metrics.Dump) {
	t.Helper()
	n := len(items)
	got := make([][]byte, n)
	stats := make([]collectives.WindowStats, n)
	dumps := make([]metrics.Dump, n)
	err := collectives.Run(n, func(c collectives.Comm) error {
		me := c.Rank()
		win := collectives.OpenWindow(c, plan.WindowSize(me), c.NextSeq())
		o := Options{K: plan.K, Parallelism: workers}
		if err := put(win, plan, items[me], plan.Offsets(me), o, me, &dumps[me]); err != nil {
			return err
		}
		var pieces [][]byte
		var sums []uint32
		for {
			p, sum, err := win.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return err
			}
			got[me] = append(got[me], p...)
			pieces, sums = append(pieces, p), append(sums, sum)
		}
		stats[me] = win.Stats()
		if !slices.Equal(sums, frameSumsOf(pieces, recs[me])) {
			return fmt.Errorf("rank %d: a frame's checksum is not the one its records' sums give", me)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return got, stats, dumps
}

// checkGathered asserts the gathered put path fills every window exactly
// as the per-record reference does, with one worker and with one per
// partner, and returns the window statistics of the one-worker run.
func checkGathered(t *testing.T, k int, shuffle []int, items [][]item) []collectives.WindowStats {
	t.Helper()
	n := len(items)
	numberItems(items)
	plan := planFor(t, k, shuffle, items)
	want, recs := referenceWindows(plan, items)
	var serial []collectives.WindowStats
	for _, workers := range []int{1, k} {
		got, stats, dumps := putAndDrain(t, plan, items, recs, workers)
		if workers == 1 {
			serial = stats
		}
		for r := 0; r < n; r++ {
			if !bytes.Equal(got[r], want[r]) {
				t.Fatalf("%d workers, rank %d: gathered window (%d bytes) differs from the per-record layout (%d bytes)",
					workers, r, len(got[r]), len(want[r]))
			}
			var chunks int
			var payload int64
			for _, it := range items[r] {
				chunks += len(it.partners)
				payload += int64(len(it.partners)) * int64(len(it.ch.Data))
			}
			if dumps[r].SentChunks != chunks || dumps[r].SentBytes != payload {
				t.Errorf("%d workers, rank %d: sent %d chunks / %d bytes, want %d / %d",
					workers, r, dumps[r].SentChunks, dumps[r].SentBytes, chunks, payload)
			}
			if stats[r].PutBytes != plan.TotalSend(r) {
				t.Errorf("%d workers, rank %d: put %d bytes, plan says %d", workers, r, stats[r].PutBytes, plan.TotalSend(r))
			}
		}
	}
	return serial
}

// randomItem draws a chunk of size bytes and an ascending partner subset
// of 1..k-1 (possibly empty: store-only).
func randomItem(rng *rand.Rand, size, k int) item {
	data := make([]byte, size)
	rng.Read(data)
	var partners []int
	for d := 1; d < k; d++ {
		if rng.Intn(3) > 0 {
			partners = append(partners, d)
		}
	}
	return item{ch: testChunk(data), partners: partners}
}

// TestGatheredWindowsMatchPerRecord is the window-equivalence property:
// over random group sizes, K, shuffles, item sets and partner sets — with
// records small, slab-sized and larger than collectives.MaxPutBytes mixed
// into one stream — every rank drains exactly the bytes the per-record
// path would have put.
func TestGatheredWindowsMatchPerRecord(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(4)
		k := 2 + rng.Intn(n-1)
		items := make([][]item, n)
		for r := range items {
			for i, cnt := 0, rng.Intn(40); i < cnt; i++ {
				var size int
				switch p := rng.Intn(100); {
				case p < 70:
					size = rng.Intn(4 << 10) // includes empty chunks
				case p < 97:
					size = rng.Intn(300 << 10)
				default:
					size = collectives.MaxPutBytes/2 + rng.Intn(collectives.MaxPutBytes)
				}
				items[r] = append(items[r], randomItem(rng, size, k))
			}
		}
		t.Run(fmt.Sprintf("seed=%d/n=%d/k=%d", seed, n, k), func(t *testing.T) {
			checkGathered(t, k, rng.Perm(n), items)
		})
	}
}

// TestGatheredWindowEdges pins the slab boundaries: a record larger than
// the cap in the middle of a stream travels alone, a region that is an
// exact multiple of the cap needs exactly that many puts, and an empty
// region needs none.
func TestGatheredWindowEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	mk := func(size int, partners ...int) item {
		data := make([]byte, size)
		rng.Read(data)
		return item{ch: testChunk(data), partners: partners}
	}

	t.Run("oversize-record", func(t *testing.T) {
		// small | 2 MiB | small to partner 1: three puts, the middle one
		// a single record above the cap.
		items := [][]item{
			{mk(100, 1), mk(2<<20, 1), mk(200, 1)},
			{mk(50, 1)},
			{},
		}
		stats := checkGathered(t, 2, IdentityShuffle(3), items)
		if stats[0].Puts != 3 {
			t.Errorf("rank 0 issued %d puts, want 3 (the oversize record alone between two slabs)", stats[0].Puts)
		}
	})

	t.Run("exact-multiple", func(t *testing.T) {
		// Eight records of a quarter cap each: the region is exactly two
		// caps and the slab fills to the last byte twice.
		quarter := collectives.MaxPutBytes/4 - 4
		if (quarter+4)*4 != collectives.MaxPutBytes {
			t.Fatalf("MaxPutBytes %d is not divisible by 4; pick another split", collectives.MaxPutBytes)
		}
		var stream []item
		for i := 0; i < 8; i++ {
			stream = append(stream, mk(quarter, 1))
		}
		stats := checkGathered(t, 2, IdentityShuffle(2), [][]item{stream, {}})
		if stats[0].Puts != 2 {
			t.Errorf("rank 0 issued %d puts for a region of exactly 2 caps, want 2", stats[0].Puts)
		}
		if stats[1].Puts != 0 {
			t.Errorf("rank 1 issued %d puts for an empty region, want 0", stats[1].Puts)
		}
	})

	t.Run("empty-region", func(t *testing.T) {
		// K=3, but nothing goes to partner 2 of rank 0, and rank 2 sends
		// nothing at all.
		items := [][]item{
			{mk(300, 1), mk(0, 1), mk(700, 1)},
			{mk(10, 1, 2), mk(20, 2)},
			{mk(999)},
		}
		stats := checkGathered(t, 3, IdentityShuffle(3), items)
		for r, want := range []int{1, 2, 0} {
			if stats[r].Puts != want {
				t.Errorf("rank %d issued %d puts, want %d (one per non-empty region)", r, stats[r].Puts, want)
			}
		}
	})
}

// planFor plans the windows of the given per-rank items.
func planFor(t *testing.T, k int, shuffle []int, items [][]item) *Plan {
	t.Helper()
	sendLoad := make([][]int64, len(items))
	for r := range sendLoad {
		sendLoad[r] = sendLoads(items[r], k)
	}
	plan, err := NewPlan(shuffle, sendLoad, k)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// TestPutHandsFramesOver is the ownership property of the put path: every
// rank drains its window frame by frame and scribbles over each payload
// as soon as it has checked it against the per-record layout, serial
// puts and one goroutine per partner alike. A sender that touched a
// frame after handing it over would race with the scribbling (reported
// under -race) or corrupt a later frame.
func TestPutHandsFramesOver(t *testing.T) {
	const n, k = 4, 3
	rng := rand.New(rand.NewSource(27))
	items := make([][]item, n)
	for r := range items {
		for i := 0; i < 40; i++ {
			items[r] = append(items[r], randomItem(rng, rng.Intn(200<<10), k))
		}
	}
	numberItems(items)
	plan := planFor(t, k, rng.Perm(n), items)
	want, recs := referenceWindows(plan, items)
	for _, workers := range []int{1, k} {
		err := collectives.Run(n, func(c collectives.Comm) error {
			me := c.Rank()
			win := collectives.OpenWindow(c, plan.WindowSize(me), c.NextSeq())
			if err := put(win, plan, items[me], plan.Offsets(me), Options{K: k, Parallelism: workers}, me, &metrics.Dump{}); err != nil {
				return err
			}
			off := 0
			var pieces [][]byte
			var sums []uint32
			for {
				p, sum, err := win.Next()
				if err == io.EOF {
					break
				}
				if err != nil {
					return err
				}
				if !bytes.Equal(p, want[me][off:off+len(p)]) {
					return fmt.Errorf("rank %d: frame at window offset %d differs from the per-record layout", me, off)
				}
				off += len(p)
				pieces, sums = append(pieces, p), append(sums, sum)
				for i := range p {
					p[i] = 0xff
				}
			}
			if !slices.Equal(sums, frameSumsOf(pieces, recs[me])) { // the sums cover records' sums, not the bytes scribbled over
				return fmt.Errorf("rank %d: a frame's checksum is not the one its records' sums give", me)
			}
			return collectives.Barrier(c)
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestDrainCommitsCutRecords: a hand-built sender puts its record stream
// — a lone record above collectives.MaxPutBytes among small ones — last
// frame first, in frames cut after the first record and then inside the
// third, in its header or its payload. The owner, committing its window
// frame by frame as it drains, stores the first frame's record and
// rejects the second frame as a record crossing its end: nothing of that
// frame is stored, not even the record wholly inside it, exactly as the
// per-record reference does.
func TestDrainCommitsCutRecords(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	var stream []byte
	var rec chunk.Recipe
	for i, size := range []int{10, 0, collectives.MaxPutBytes + 100, 3, 70 << 10, 1} {
		data := make([]byte, size)
		rng.Read(data)
		rec.FPs, rec.Sizes = append(rec.FPs, fingerprint.Of(data)), append(rec.Sizes, int32(size))
		stream = append(stream, encodeRecord(int32(i), data)...)
	}
	meta, err := (&RestoreMeta{Recipe: rec}).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	w := testWindow{regions: []region{{size: int64(len(stream)), meta: meta}}, bytes: stream}
	big := 4 + 10 + 4 // where the big record starts
	for name, inBig := range map[string]int{"header": 2, "payload": 1000} {
		cuts := []int{4 + 10, big + inBig, big + 4 + collectives.MaxPutBytes + 100, len(stream) - 5}
		cutW, bounds := w, slices.Concat([]int{0}, cuts, []int{len(stream)})
		for i := 1; i < len(bounds); i++ {
			cutW.pieces = append(cutW.pieces, stream[bounds[i-1]:bounds[i]])
		}
		sums := frameSums(cutW)
		got := commitRun{store: storage.NewMem()}
		err = collectives.Run(2, func(c collectives.Comm) error {
			size := int64(len(stream))
			if c.Rank() == 1 {
				size = 0
			}
			win := collectives.OpenWindow(c, size, c.NextSeq())
			if c.Rank() == 1 {
				for i := len(cutW.pieces) - 1; i >= 0; i-- {
					frame := append(win.NewFrame(len(cutW.pieces[i])), cutW.pieces[i]...)
					if err := win.PutFrame(0, int64(bounds[i]), frame, sums[i]); err != nil {
						return err
					}
				}
				return nil
			}
			cm := committer{store: got.store, m: &got.m, regions: w.regions, next: win.Next}
			got.err = cm.commit()
			got.refs = stored(&cm)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if !errors.Is(got.err, errCrossesFrame) || !slices.Equal(got.refs, rec.FPs[:1]) {
			t.Errorf("cut in the big record's %s: %d records stored (%v), want the first one and a record crossing its frame", name, len(got.refs), got.err)
		}
		checkCommitted(t, "cut in the big record's "+name, got, commitWith(commitReceivedPerRecord, cutW))
	}
}

// TestOversizeChunkDumpRestore dumps 2 MiB chunks — every record larger
// than a slab — on 4 ranks over both transports, wipes K-1 stores and
// restores byte-identically.
func TestOversizeChunkDumpRestore(t *testing.T) {
	const n, k, chunkSize = 4, 3, 2 << 20
	for _, transport := range []string{"inproc", "tcp"} {
		t.Run(transport, func(t *testing.T) {
			comms := startComms(t, transport, n)
			cluster := storage.NewCluster(n)
			buffers := make([][]byte, n)
			for r := range buffers {
				// One full oversize chunk plus a short tail chunk.
				buffers[r] = make([]byte, chunkSize+1000)
				rand.New(rand.NewSource(int64(100 + r))).Read(buffers[r])
			}
			o := Options{K: k, Approach: CollDedup, Chunker: chunk.Spec{Size: chunkSize}, Name: "big"}
			runComms(t, comms, func(c collectives.Comm) error {
				res, err := DumpOutput(c, cluster.Node(c.Rank()), buffers[c.Rank()], o)
				if err != nil {
					return err
				}
				if res.Metrics.SentChunks != 2*(k-1) {
					return fmt.Errorf("sent %d chunks, want %d", res.Metrics.SentChunks, 2*(k-1))
				}
				return nil
			})
			cluster.FailNodes(0, 1)
			cluster.Replace(0)
			cluster.Replace(1)
			runComms(t, comms, func(c collectives.Comm) error {
				got, err := Restore(c, cluster.Node(c.Rank()), "big")
				if err != nil {
					return err
				}
				if !bytes.Equal(got, buffers[c.Rank()]) {
					return fmt.Errorf("restore mismatch after wiping %d stores", k-1)
				}
				return nil
			})
		})
	}
}

// slabChunk is the chunk size of the slab-granularity fault tests.
const slabChunk = 64 << 10

// slabStreamBuffer is rank-private data whose K=2 partner region spans
// exactly slabs puts. The put phase sends the metadata to the one partner
// first, so a fault injected on the third send of the phase (After: 2)
// lands on the second put, in the middle of the stream.
func slabStreamBuffer(rank, slabs int) []byte {
	buf := make([]byte, (slabs-1)*collectives.MaxPutBytes+slabChunk)
	rand.New(rand.NewSource(int64(500 + rank))).Read(buf)
	return buf
}

// failedPuts records the window offset of every put its fault injector
// failed; the metadata sends of the put phase are not window puts.
type failedPuts struct {
	*collectives.FaultyComm
	offsets []int64
}

func (f *failedPuts) Send(to int, tag collectives.Tag, data []byte) error {
	err := f.FaultyComm.Send(to, tag, data)
	if err != nil && tag >= collectives.TagUserLimit<<1 {
		f.offsets = append(f.offsets, int64(binary.BigEndian.Uint64(data))) // put header: u64 offset first
	}
	return err
}

// TestSlabFinalFailureAbortsInPut: a failed put — a killed rank, or a
// send that fails — on a slab in the middle of a stream aborts the whole
// group, the rank that hit it blames the put phase, and every store rolls
// back.
func TestSlabFinalFailureAbortsInPut(t *testing.T) {
	const n, victim, slabs = 3, 1, 3
	for _, tc := range []struct {
		name string
		kind collectives.FaultKind
	}{
		{"kill", collectives.FaultKill},
		{"send-error", collectives.FaultError},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cluster := storage.NewCluster(n)
			plan := collectives.FaultPlan{Faults: []collectives.Fault{
				{Kind: tc.kind, Rank: victim, Phase: "put", Peer: collectives.AnyRank, After: 2},
			}}
			var failed *failedPuts
			errs := runRanks(t, n, 20*time.Second, func(c collectives.Comm) error {
				me := c.Rank()
				o := Options{K: 2, Approach: LocalDedup, Chunker: chunk.Spec{Size: slabChunk}, Name: "slab-fail"}
				fc := &failedPuts{FaultyComm: collectives.InjectFaults(c, plan)}
				if me == victim {
					failed = fc
				}
				_, err := DumpOutputCtx(context.Background(), fc, cluster.Node(me), slabStreamBuffer(me, slabs), o)
				return err
			})
			if len(failed.offsets) == 0 || failed.offsets[0] == 0 {
				t.Errorf("failed puts at window offsets %v, want the first past the first slab", failed.offsets)
			}
			for r, err := range errs {
				var ce *collectives.CollectiveError
				if !errors.As(err, &ce) {
					t.Fatalf("rank %d returned %v, want a CollectiveError", r, err)
				}
				if r == victim && ce.Phase != "put" {
					t.Errorf("rank %d blames phase %q, want \"put\": %v", r, ce.Phase, err)
				}
				if !errors.Is(err, collectives.ErrAborted) || !errors.Is(err, collectives.ErrInjected) {
					t.Errorf("rank %d: %v, want an abort carrying the injected cause", r, err)
				}
				if ranks := collectives.FailedRanks(err); len(ranks) != 1 || ranks[0] != victim {
					t.Errorf("rank %d blames ranks %v, want [%d]", r, ranks, victim)
				}
			}
			if bytes, chunks := cluster.TotalUsage(); bytes != 0 || chunks != 0 {
				t.Errorf("aborted dump left %d bytes / %d chunks behind", bytes, chunks)
			}
		})
	}
}
