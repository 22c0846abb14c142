package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dedupcr/internal/chunk"
	"dedupcr/internal/collectives"
	"dedupcr/internal/fingerprint"
	"dedupcr/internal/storage"
)

// keyedStore remembers every fingerprint put into it, so a test can check
// that each chunk the store holds still hashes to its key — the check the
// receiver's own SHA-1 used to make before records named recipe
// positions.
type keyedStore struct {
	storage.Store
	mu  sync.Mutex
	fps []fingerprint.FP
}

func (s *keyedStore) PutChunkSum(fp fingerprint.FP, data []byte, sum uint32) error {
	s.mu.Lock()
	s.fps = append(s.fps, fp)
	s.mu.Unlock()
	return s.Store.PutChunkSum(fp, data, sum)
}

func (s *keyedStore) PutRecords(payload []byte, recs []storage.Record) (int, bool, error) {
	s.mu.Lock()
	for _, r := range recs {
		s.fps = append(s.fps, r.FP)
	}
	s.mu.Unlock()
	return s.Store.PutRecords(payload, recs)
}

// checkKeys fails unless every chunk the store still holds was put
// through it and SHA-1s to the fingerprint it is stored under.
func (s *keyedStore) checkKeys(t *testing.T, label string) {
	t.Helper()
	put := make(map[fingerprint.FP]bool)
	for _, fp := range s.fps {
		put[fp] = true
		data, err := s.GetChunk(fp)
		if errors.Is(err, storage.ErrNotFound) {
			continue
		}
		if err != nil || fingerprint.Of(data) != fp {
			t.Fatalf("%s: chunk %s does not hash to its key (%v)", label, fp.Short(), err)
		}
	}
	if _, chunks := s.Usage(); chunks > len(put) {
		t.Fatalf("%s: the store holds %d chunks, %d were put through it", label, chunks, len(put))
	}
}

// TestStoredChunksHashToTheirKeys is the receive-side integrity property:
// over random group sizes N ∈ [2, 12], K ∈ [1, min(4, N)], all three
// approaches, F unbounded or below the shared set, fixed and gear
// chunkers, Shuffle on and off, Parallelism 1 and 0, in process and over
// TCP, every chunk in every store hashes to its key after the dump, and
// wiping K-1 stores still restores every rank byte-identically.
func TestStoredChunksHashToTheirKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	for trial := 0; trial < 48; trial++ {
		n := 2 + rng.Intn(11)
		k := 1 + rng.Intn(min(4, n))
		const shared = 4
		o := Options{
			K:           k,
			Approach:    Approach(rng.Intn(3)),
			F:           []int{0, shared / 2}[rng.Intn(2)],
			Chunker:     chunk.Spec{Algo: []chunk.Algo{chunk.AlgoFixed, chunk.AlgoGear}[rng.Intn(2)], Size: testPage},
			Shuffle:     Bool(rng.Intn(2) == 0),
			Parallelism: rng.Intn(2),
			Name:        "prop",
		}
		transport := []string{"inproc", "inproc", "tcp"}[trial%3]
		label := fmt.Sprintf("trial %d: %s n=%d k=%d %v F=%d %v shuffle=%v par=%d", trial, transport, n, k, o.Approach, o.F, o.Chunker, *o.Shuffle, o.Parallelism)
		cluster := storage.NewCluster(n)
		stores := make([]*keyedStore, n)
		buffers := make([][]byte, n)
		for r := range stores {
			stores[r] = &keyedStore{Store: cluster.Node(r)}
			buffers[r] = testBuffer(r, shared, 2, 1+rng.Intn(2), 1+rng.Intn(3))
		}
		comms := startComms(t, transport, n)
		runComms(t, comms, func(c collectives.Comm) error {
			_, err := DumpOutput(c, stores[c.Rank()], buffers[c.Rank()], o)
			return err
		})
		for r, s := range stores {
			s.checkKeys(t, fmt.Sprintf("%s, rank %d", label, r))
		}
		wiped := rng.Perm(n)[:k-1]
		cluster.FailNodes(wiped...)
		for _, r := range wiped {
			cluster.Replace(r)
		}
		runComms(t, comms, func(c collectives.Comm) error {
			got, err := Restore(c, cluster.Node(c.Rank()), "prop")
			if err != nil {
				return fmt.Errorf("%s, wiped %v: %w", label, wiped, err)
			}
			if !bytes.Equal(got, buffers[c.Rank()]) {
				return fmt.Errorf("%s, wiped %v: rank %d restored other bytes", label, wiped, c.Rank())
			}
			return nil
		})
	}
}

// corruptingComm flips one payload byte of the first window frame its
// rank sends; everything else passes through. As a wrapper it gets the
// copying Send for its puts (see collectives.Handover), so the flip lands
// in the bytes on the wire, after the sender summed them. Partner puts
// may send concurrently: one of them wins the flip.
type corruptingComm struct {
	collectives.Comm
	flipped atomic.Bool
}

func (c *corruptingComm) Base() collectives.Comm { return c.Comm }

func (c *corruptingComm) Send(to int, tag collectives.Tag, data []byte) error {
	const header = 12 // window put header: offset, checksum
	if tag >= collectives.TagUserLimit<<1 && len(data) > header && c.flipped.CompareAndSwap(false, true) {
		data = slices.Clone(data)
		data[header+(len(data)-header)/2] ^= 0x10
	}
	return c.Comm.Send(to, tag, data)
}

// chunkSwappingComm puts one chunk's bytes at another chunk's position:
// in the first window frame its rank sends that holds two records — each
// u32 position | one testPage chunk — the first record's payload becomes
// the second's, and the checksum is restamped as a sender that believed in
// the bytes it sent would stamp it. That is the payload's CRC-32C when the
// frame carried one, else the CRC-32C over u32 position ‖ u32 sum of each
// record, every sum a CRC-32C over fingerprint ‖ bytes, taken under the
// fingerprint of the bytes the record carries. Partner puts may send
// concurrently: one of them wins the swap.
type chunkSwappingComm struct {
	collectives.Comm
	swapped atomic.Bool
}

func (c *chunkSwappingComm) Base() collectives.Comm { return c.Comm }

func (c *chunkSwappingComm) Send(to int, tag collectives.Tag, data []byte) error {
	const header, rec = 12, 4 + testPage // window put header: offset, checksum
	if tag < collectives.TagUserLimit<<1 || len(data) < header+2*rec || !c.swapped.CompareAndSwap(false, true) {
		return c.Comm.Send(to, tag, data)
	}
	data = slices.Clone(data)
	payload := data[header:]
	payloadSum := binary.BigEndian.Uint32(data[8:]) == collectives.Checksum(0, payload)
	copy(payload[4:rec], payload[rec+4:2*rec])
	sum := collectives.Checksum(0, payload)
	if !payloadSum {
		castagnoli := crc32.MakeTable(crc32.Castagnoli)
		var sums []byte
		for r := payload; len(r) >= rec; r = r[rec:] {
			fp := fingerprint.Of(r[4:rec])
			sums = binary.BigEndian.AppendUint32(append(sums, r[:4]...), crc32.Checksum(append(fp[:], r[4:rec]...), castagnoli))
		}
		sum = collectives.Checksum(0, sums)
	}
	binary.BigEndian.PutUint32(data[8:], sum)
	return c.Comm.Send(to, tag, data)
}

// frameCuttingComm cuts the first window frame its rank sends that holds
// two records — each u32 position | one testPage chunk — in two at byte at
// of its payload, inside the second record, and stamps each piece with
// the checksum over the records that end in it: the CRC-32C over u32
// position ‖ u32 sum of each, every sum taken under the fingerprint of the
// bytes the record carries. As a wrapper it gets the copying Send for its
// puts (see collectives.Handover). Partner puts may send concurrently: one
// of them wins the cut.
type frameCuttingComm struct {
	collectives.Comm
	at  int
	cut atomic.Bool
}

func (c *frameCuttingComm) Base() collectives.Comm { return c.Comm }

func (c *frameCuttingComm) Send(to int, tag collectives.Tag, data []byte) error {
	const header, rec = 12, 4 + testPage // window put header: offset, checksum
	if tag < collectives.TagUserLimit<<1 || len(data) < header+2*rec || !c.cut.CompareAndSwap(false, true) {
		return c.Comm.Send(to, tag, data)
	}
	off, payload := binary.BigEndian.Uint64(data), data[header:]
	var sums [2]recordSums
	for r := 0; r+rec <= len(payload); r += rec {
		fp := fingerprint.Of(payload[r+4 : r+rec])
		piece := 0
		if r+rec > c.at {
			piece = 1
		}
		sums[piece].add(binary.BigEndian.Uint32(payload[r:]), fingerprint.ChunkSum(&fp, payload[r+4:r+rec]))
	}
	for i, p := range [][]byte{payload[:c.at], payload[c.at:]} {
		start := uint64(i * c.at)
		frame := binary.BigEndian.AppendUint32(binary.BigEndian.AppendUint64(nil, off+start), sums[i].crc)
		if err := c.Comm.Send(to, tag, append(frame, p...)); err != nil {
			return err
		}
	}
	return nil
}

// blobState is what a store holds under every blob name of the given
// datasets on n ranks; an absent blob and a tombstone both read as nil.
func blobState(s storage.Store, n int, names ...string) map[string][]byte {
	out := map[string][]byte{}
	for _, name := range names {
		for r := 0; r < n; r++ {
			for _, b := range []string{metaName(name, r), gcName(name, r)} {
				if blob, err := s.GetBlob(b); err == nil && len(blob) > 0 {
					out[b] = blob
				}
			}
		}
	}
	return out
}

// TestCorruptFrameFailsDump: one byte of one window frame flipped in
// flight fails every rank's dump with a *CollectiveError before anything
// commits. Every store's usage and blobs are what they were before the
// dump, and the earlier checkpoint still restores byte-identically.
func TestCorruptFrameFailsDump(t *testing.T) {
	checkFrameFailsDump(t, func(c collectives.Comm) collectives.Comm { return &corruptingComm{Comm: c} }, collectives.ErrChecksum)
}

// TestWrongChunkFailsDump: a sender that puts another chunk's bytes at a
// valid position and stamps an honest checksum over what it sent fails
// the dump as a flipped byte does. The receiver sums each record under the
// fingerprint the sender's recipe names for its position, so the frame's
// checksum binds the bytes to that fingerprint; a CRC-32C over the payload
// alone would let the wrong chunk be stored under it.
func TestWrongChunkFailsDump(t *testing.T) {
	checkFrameFailsDump(t, func(c collectives.Comm) collectives.Comm { return &chunkSwappingComm{Comm: c} }, collectives.ErrChecksum)
}

// TestCutFrameFailsDump: a sender whose put frame ends inside a record —
// inside its header or inside its payload — fails every rank's dump with
// a *CollectiveError, one of them naming the record that crosses its
// frame, even though each piece carries the checksum of the records that
// end in it. The receiver stores nothing of that frame, and the rollback
// leaves every store as it was before the dump.
func TestCutFrameFailsDump(t *testing.T) {
	const rec = 4 + testPage
	for name, at := range map[string]int{"header": rec + 2, "payload": rec + 4 + testPage/2} {
		t.Run(name, func(t *testing.T) {
			checkFrameFailsDump(t, func(c collectives.Comm) collectives.Comm { return &frameCuttingComm{Comm: c, at: at} }, errCrossesFrame)
		})
	}
}

// checkFrameFailsDump dumps a second checkpoint on four ranks, rank 1's
// communicator wrapped by wrap, and asserts that the dump fails on every
// rank with a *CollectiveError, one of them matching cause, before
// anything commits: every store's usage and blobs are what they
// were before the dump, and the first checkpoint still restores
// byte-identically. It does so at K = 2, where a rank puts to its one
// partner, and at K = 3 with default parallelism, where a rank's puts to
// its two partners run concurrently.
func checkFrameFailsDump(t *testing.T, wrap func(collectives.Comm) collectives.Comm, cause error) {
	for _, k := range []int{2, 3} {
		t.Run(fmt.Sprintf("K=%d", k), func(t *testing.T) { frameFailsDump(t, k, wrap, cause) })
	}
}

func frameFailsDump(t *testing.T, k int, wrap func(collectives.Comm) collectives.Comm, cause error) {
	t.Helper()
	const n, corrupter = 4, 1
	cluster := storage.NewCluster(n)
	buffers := cleanDump(t, n, cluster, "ckpt-0")
	before := storeStates(cluster.Node, n)
	errs := runRanks(t, n, 5*time.Second, func(c collectives.Comm) error {
		if c.Rank() == corrupter {
			c = wrap(c)
		}
		buf := append(testBuffer(c.Rank(), 6, 4, 3, 5), page(fmt.Sprintf("corrupt-%d", c.Rank()))...)
		o := faultOpts("ckpt-1")
		o.K = k
		_, err := DumpOutputCtx(context.Background(), c, cluster.Node(c.Rank()), buf, o)
		return err
	})
	for r, err := range errs {
		var ce *collectives.CollectiveError
		if !errors.As(err, &ce) {
			t.Fatalf("rank %d returned %v, want a CollectiveError", r, err)
		}
	}
	if !slices.ContainsFunc(errs, func(err error) bool { return errors.Is(err, cause) }) {
		t.Errorf("no rank reports %v: %v", cause, errs)
	}
	checkRolledBack(t, cluster.Node, before, buffers)
}

// storeState is a store's usage and its ckpt-0 and ckpt-1 blobs, which a
// failed dump of ckpt-1 must leave as it found them.
type storeState struct {
	bytes  int64
	chunks int
	blobs  map[string][]byte
}

// storeStates snapshots the stores of ranks 0..n-1.
func storeStates(node func(rank int) storage.Store, n int) []storeState {
	states := make([]storeState, n)
	for r := range states {
		s := node(r)
		states[r].bytes, states[r].chunks = s.Usage()
		states[r].blobs = blobState(s, n, "ckpt-0", "ckpt-1")
	}
	return states
}

// checkRolledBack asserts that a failed dump of ckpt-1 left every store
// as it was before (storeStates), and that ckpt-0 still restores
// byte-identically to buffers over a fresh in-process group.
func checkRolledBack(t *testing.T, node func(rank int) storage.Store, before []storeState, buffers [][]byte) {
	t.Helper()
	n := len(before)
	for r, after := range storeStates(node, n) {
		if after.bytes != before[r].bytes || after.chunks != before[r].chunks {
			t.Errorf("rank %d holds %d bytes in %d chunks after the failed dump, %d in %d before", r, after.bytes, after.chunks, before[r].bytes, before[r].chunks)
		}
		if !mapsEqual(after.blobs, before[r].blobs) {
			t.Errorf("rank %d blobs changed: %d non-empty after, %d before", r, len(after.blobs), len(before[r].blobs))
		}
	}
	err := collectives.Run(n, func(c collectives.Comm) error {
		got, err := Restore(c, node(c.Rank()), "ckpt-0")
		if err == nil && !bytes.Equal(got, buffers[c.Rank()]) {
			err = fmt.Errorf("rank %d: ckpt-0 changed by the failed dump", c.Rank())
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

func mapsEqual(a, b map[string][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || !bytes.Equal(v, w) {
			return false
		}
	}
	return true
}

// ringBuffers gives rank r 1+r private pages, or n-r when descending, on
// top of pages every rank shares: the send loads, and with them the
// shuffled ring, differ between the two orders.
func ringBuffers(n int, descending bool, epoch int) [][]byte {
	out := make([][]byte, n)
	for r := range out {
		pages := 1 + r
		if descending {
			pages = n - r
		}
		out[r] = testBuffer(r, 2, 0, 0, 0)
		for i := 0; i < pages; i++ {
			out[r] = append(out[r], page(fmt.Sprintf("ring-%d-%d-%d", epoch, r, i))...)
		}
	}
	return out
}

// dumpAll dumps buffers[r] on every rank of a fresh in-proc group and
// returns the plan.
func dumpAll(t *testing.T, cluster *storage.Cluster, buffers [][]byte, o Options) *Plan {
	t.Helper()
	plans := make([]*Plan, len(buffers))
	err := collectives.Run(len(buffers), func(c collectives.Comm) error {
		res, err := DumpOutput(c, cluster.Node(c.Rank()), buffers[c.Rank()], o)
		if err == nil {
			plans[c.Rank()] = res.Plan
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return plans[0]
}

// checkReplicaPlacement fails unless the metadata blobs of name sit
// exactly where plan puts them: rank r's on r and its K-1 partners, all
// byte-identical, and nowhere else.
func checkReplicaPlacement(t *testing.T, cluster *storage.Cluster, plan *Plan, name string) {
	t.Helper()
	n := cluster.Size()
	for r := 0; r < n; r++ {
		own, err := cluster.Node(r).GetBlob(metaName(name, r))
		if err != nil || len(own) == 0 {
			t.Fatalf("rank %d lacks its own metadata (%v)", r, err)
		}
		holders := append([]int{r}, plan.Partners(r)...)
		for q := 0; q < n; q++ {
			blob, _ := cluster.Node(q).GetBlob(metaName(name, r))
			switch holds := len(blob) > 0; {
			case holds != slices.Contains(holders, q):
				t.Errorf("rank %d holds a replica of rank %d's metadata: %v, want %v (partners %v)", q, r, holds, !holds, plan.Partners(r))
			case holds && !bytes.Equal(blob, own):
				t.Errorf("rank %d's replica of rank %d's metadata differs from the original", q, r)
			}
		}
	}
}

// TestRedumpUnderNewRingLeavesNoStaleMeta: dump X, then dump X again with
// loads that reshuffle the ring, so ranks gain and lose senders. No
// metadata replica of the first dump may survive anywhere, and a restore
// after wiping K-1 ranks — one of them a rank whose sweep (me+1, me+2, …)
// meets a holder of its first-dump metadata before a holder of its
// second — returns the second dump's bytes.
func TestRedumpUnderNewRingLeavesNoStaleMeta(t *testing.T) {
	const n, k = 7, 3
	o := Options{K: k, Approach: CollDedup, Chunker: chunk.Spec{Size: testPage}, Shuffle: Bool(true), Name: "X"}
	cluster := storage.NewCluster(n)
	first := dumpAll(t, cluster, ringBuffers(n, false, 0), o)
	checkReplicaPlacement(t, cluster, first, "X")
	second := ringBuffers(n, true, 1)
	plan := dumpAll(t, cluster, second, o)
	checkReplicaPlacement(t, cluster, plan, "X")

	victim := -1
	for r := 0; r < n && victim < 0; r++ {
		for d := 1; d < n; d++ {
			q := (r + d) % n
			if slices.Contains(plan.Partners(r), q) {
				break
			}
			if slices.Contains(first.Partners(r), q) {
				victim = r
				break
			}
		}
	}
	if victim < 0 {
		t.Fatalf("no rank's sweep meets a first-dump holder first: rings %v and %v", first.Shuffle, plan.Shuffle)
	}
	wiped := []int{victim, (victim + n - 1) % n}
	cluster.FailNodes(wiped...)
	for _, r := range wiped {
		cluster.Replace(r)
	}
	err := collectives.Run(n, func(c collectives.Comm) error {
		got, err := Restore(c, cluster.Node(c.Rank()), "X")
		if err == nil && !bytes.Equal(got, second[c.Rank()]) {
			err = fmt.Errorf("rank %d restored other bytes than the second dump's", c.Rank())
		}
		return err
	})
	if err != nil {
		t.Fatalf("wiped %v: %v", wiped, err)
	}
}

// TestForgetTombstonesEveryReplica: after a dump, a K-1 wipe and a
// restore that rewrote gc lists — the wiped ranks' and those of
// survivors that re-fetched discarded chunks — forgetting the dataset on
// every rank leaves no non-empty blob of it in any store.
func TestForgetTombstonesEveryReplica(t *testing.T) {
	const n, k = 6, 3
	o := Options{K: k, Approach: CollDedup, Chunker: chunk.Spec{Size: testPage}, Shuffle: Bool(true), Name: "X"}
	cluster := storage.NewCluster(n)
	buffers := ringBuffers(n, false, 0)
	dumpAll(t, cluster, buffers, o)
	cluster.FailNodes(1, 4)
	cluster.Replace(1)
	cluster.Replace(4)
	var rewritten atomic.Int32
	err := collectives.Run(n, func(c collectives.Comm) error {
		res, err := RestoreOutputCtx(context.Background(), c, cluster.Node(c.Rank()), "X", nil)
		if err == nil && res.Metrics.FetchedChunks > 0 && c.Rank() != 1 && c.Rank() != 4 {
			rewritten.Add(1)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if rewritten.Load() == 0 {
		t.Fatal("no survivor re-fetched a chunk: no gc list of a holder was rewritten")
	}
	for r := 0; r < n; r++ {
		if err := Forget(cluster.Node(r), "X", r); err != nil {
			t.Fatalf("rank %d forget: %v", r, err)
		}
	}
	for r := 0; r < n; r++ {
		if left := blobState(cluster.Node(r), n, "X"); len(left) > 0 {
			t.Errorf("rank %d still holds %d non-empty blobs of the forgotten dataset", r, len(left))
		}
	}
}

// TestEarlierFormatGCListFailsStop: a reclamation record in either earlier
// format — u32 count | fingerprints, or that followed by u32 count | held
// ranks — is not a holdings record, so it must not pass for one naming
// nothing. A re-dump of the name fails on every rank before storing
// anything, and a restore that re-fetched chunks fails rather than
// overwrite the record.
func TestEarlierFormatGCListFailsStop(t *testing.T) {
	for _, format := range []string{"refs", "refs-held"} {
		t.Run(format, func(t *testing.T) { checkEarlierFormatFailsStop(t, format == "refs-held") })
	}
}

func checkEarlierFormatFailsStop(t *testing.T, withHeld bool) {
	const n, k = 6, 3
	o := Options{K: k, Approach: CollDedup, Chunker: chunk.Spec{Size: testPage}, Shuffle: Bool(true), Name: "X"}
	cluster := storage.NewCluster(n)
	dumpAll(t, cluster, ringBuffers(n, false, 0), o)
	type state struct {
		bytes  int64
		chunks int
		blobs  map[string][]byte
	}
	before := make([]state, n)
	for r := range before {
		s := cluster.Node(r)
		blob, _ := s.GetBlob(gcName("X", r))
		h, refs, err := storedRefs(s, "X", blob)
		if err != nil {
			t.Fatal(err)
		}
		earlier := gcList{refs: refs}.marshal()
		if earlier = earlier[:len(earlier)-4]; withHeld {
			earlier = gcList{refs: refs, held: h.ranks()[1:]}.marshal()
		}
		if err := s.PutBlob(gcName("X", r), earlier); err != nil {
			t.Fatal(err)
		}
		before[r].bytes, before[r].chunks = s.Usage()
		before[r].blobs = blobState(s, n, "X")
	}
	second := ringBuffers(n, true, 1)
	errs := runRanks(t, n, 5*time.Second, func(c collectives.Comm) error {
		_, err := DumpOutputCtx(context.Background(), c, cluster.Node(c.Rank()), second[c.Rank()], o)
		return err
	})
	for r, err := range errs {
		var ce *collectives.CollectiveError
		if !errors.As(err, &ce) {
			t.Fatalf("rank %d re-dump returned %v, want a CollectiveError", r, err)
		}
		s := cluster.Node(r)
		if bytes, chunks := s.Usage(); bytes != before[r].bytes || chunks != before[r].chunks {
			t.Errorf("rank %d holds %d bytes in %d chunks after the failed re-dump, %d in %d before", r, bytes, chunks, before[r].bytes, before[r].chunks)
		}
		if after := blobState(s, n, "X"); !mapsEqual(after, before[r].blobs) {
			t.Errorf("rank %d blobs changed by the failed re-dump", r)
		}
	}
	if err := Forget(cluster.Node(0), "X", 0); err == nil {
		t.Error("Forget released an earlier-format record")
	}

	cluster.FailNodes(1, 4)
	cluster.Replace(1)
	cluster.Replace(4)
	errs = runRanks(t, n, 5*time.Second, func(c collectives.Comm) error {
		_, err := RestoreOutputCtx(context.Background(), c, cluster.Node(c.Rank()), "X", nil)
		return err
	})
	if !slices.ContainsFunc(errs, func(err error) bool { return err != nil && strings.Contains(err.Error(), "holdings record of") }) {
		t.Fatalf("no restore refused the earlier-format record: %v", errs)
	}
	for _, r := range []int{0, 2, 3, 5} {
		if blob, _ := cluster.Node(r).GetBlob(gcName("X", r)); !bytes.Equal(blob, before[r].blobs[gcName("X", r)]) {
			t.Errorf("rank %d's record was rewritten", r)
		}
	}
}
