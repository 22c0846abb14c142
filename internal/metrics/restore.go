package metrics

import (
	"fmt"
	"io"
	"time"
)

// Restore is the instrumentation of one rank for one collective restore —
// the read-side twin of Dump. Dedup trades write volume for read
// fragmentation: a restore of a heavily dedup'd checkpoint chases chunks
// scattered across designated ranks, and these counters make that cost
// measurable. Everything is measured, never estimated.
type Restore struct {
	Rank int
	// LogicalBytes is the byte size of the reassembled image — the
	// denominator of the read-amplification ratios.
	LogicalBytes int64
	// TotalChunks is the recipe length (duplicate occurrences included);
	// UniqueChunks counts distinct fingerprints in the recipe.
	TotalChunks  int
	UniqueChunks int
	// LocalChunks / LocalBytes count recipe positions served by the local
	// store, one per occurrence: duplicates are re-read per position, so
	// these already include the dedup-induced re-read amplification. The
	// second and later positions of a fetched chunk count here too — the
	// fetched (and re-provisioned) bytes are copied to them.
	LocalChunks int
	LocalBytes  int64
	// FetchedChunks / FetchedBytes count chunks pulled from peers over
	// the fetch service (the network component of read amplification).
	FetchedChunks int
	FetchedBytes  int64
	// FetchRequests counts chunks and blobs asked of a peer, misses
	// included — one per fingerprint of a batched request, not one per
	// request; FetchMisses counts the asks answered not-found or whose
	// bytes failed verification (a miss means the fingerprint went on to
	// its next candidate peer).
	FetchRequests int64
	FetchMisses   int64
	// MetaFetches counts restore-metadata blobs that had to come from a
	// peer replica because the local copy was lost.
	MetaFetches int
	// SourceRanks is the number of distinct peer ranks that served at
	// least one chunk — the rank-level scatter of this rank's image.
	SourceRanks int
	// ObjectsTouched counts distinct local store objects read: unique
	// chunks served locally plus metadata/GC blobs.
	ObjectsTouched int
	// PeerFetchChunks / PeerFetchBytes are this rank's row of the
	// per-peer fetch traffic matrix, indexed by peer rank (own slot 0).
	PeerFetchChunks []int64
	PeerFetchBytes  []int64
	// RunLengths is the sequential-locality histogram: walking the recipe
	// in order, a run is a maximal stretch of consecutive chunks served
	// by the same source (local store, or one particular peer). One
	// sample per run, in chunks. Heavily fragmented restores show many
	// short runs; LargestRun is the longest observed.
	RunLengths *Histogram
	LargestRun int64
	// Phases is the measured wall-clock decomposition of the restore.
	Phases RestorePhases
	// BarrierExit is the wall-clock instant this rank left the restore's
	// completion barrier (same clock-offset anchor as Dump.BarrierExit).
	BarrierExit time.Time
	// FetchLatency is the remote fetch latency histogram (nanoseconds),
	// one sample per exchange: a batched chunk request (request sent to
	// reply received, however many chunks it carried) or a single blob or
	// chunk call. Exchanges overlap, so its sum can exceed Phases.Fetch.
	// Nil when nothing was fetched.
	FetchLatency *Histogram
	// StoreReadLatency is the local store read latency histogram
	// (nanoseconds) recorded through the read-side storage.Timed path:
	// one sample per blob read and per batch of the walk's chunk reads
	// (one Store.ReadRecords call), not per chunk.
	StoreReadLatency *Histogram
}

// ReadBytes is the total bytes read to reassemble the image: local store
// reads plus network fetches.
func (r Restore) ReadBytes() int64 { return r.LocalBytes + r.FetchedBytes }

// ReadAmplificationBytes is bytes fetched from peers / logical image
// bytes: the share of the image that had to travel over the network
// because dedup designated its chunks to other ranks. 0 is a fully local
// restore; 1.0 means every byte was fetched.
func (r Restore) ReadAmplificationBytes() float64 {
	if r.LogicalBytes == 0 {
		return 0
	}
	return float64(r.FetchedBytes) / float64(r.LogicalBytes)
}

// ReadAmplificationChunks is chunks fetched from peers / unique chunks
// in the recipe — the chunk-granular twin of ReadAmplificationBytes.
// It can exceed 1.0 when duplicate occurrences of a chunk are fetched
// before the re-provisioned copy lands locally.
func (r Restore) ReadAmplificationChunks() float64 {
	if r.UniqueChunks == 0 {
		return 0
	}
	return float64(r.FetchedChunks) / float64(r.UniqueChunks)
}

// RestorePhases is the wall-clock decomposition of one collective restore
// on one rank. Meta, Assemble, Commit and Barrier are disjoint
// and sum to (almost) Total; Fetch is the wall time of the remote-fetch
// stage and lies INSIDE Meta and Assemble, so it is excluded from Sum.
type RestorePhases struct {
	// Meta is the restore-metadata load (local read or peer fetch).
	Meta time.Duration
	// Assemble is the recipe walk: local reads, remote fetches and
	// re-provisioning writes.
	Assemble time.Duration
	// Fetch is the wall time of remote fetching: the batched chunk fetch
	// stage of assembly (first request sent to last reply placed — its
	// exchanges overlap, so this is not a sum of latencies; contained in
	// Assemble) plus the metadata blob fetches (contained in Meta).
	Fetch time.Duration
	// Commit covers post-assembly persistence: the reclamation-list
	// update and metadata re-replication.
	Commit time.Duration
	// Barrier is the completion barrier (all ranks keep serving fetches
	// until everyone assembled).
	Barrier time.Duration
	// Total is the end-to-end restore duration on this rank.
	Total time.Duration
}

// restorePhases is the restore pipeline's phase table. Fetch is no phase
// of its own on the transport: it lies inside restore-meta and assemble.
var restorePhases = phaseTable[RestorePhases]{
	{"restore-meta", func(p *RestorePhases) *time.Duration { return &p.Meta }},
	{"assemble", func(p *RestorePhases) *time.Duration { return &p.Assemble }},
	{"fetch", func(p *RestorePhases) *time.Duration { return &p.Fetch }},
	{"restore-commit", func(p *RestorePhases) *time.Duration { return &p.Commit }},
	{"restore-barrier", func(p *RestorePhases) *time.Duration { return &p.Barrier }},
}

// RestorePhaseNames lists the restore phase labels in pipeline order,
// matching the span names recorded by internal/core.
var RestorePhaseNames = restorePhases.names()

// Slot returns the duration field of the named phase (one of
// RestorePhaseNames), nil for any other name.
func (p *RestorePhases) Slot(name string) *time.Duration { return restorePhases.slot(p, name) }

// ByName returns the duration of the named phase, 0 for an unknown name.
func (p RestorePhases) ByName(name string) time.Duration { return restorePhases.byName(&p, name) }

// Sum adds the disjoint phases (excluding Fetch, which Meta and Assemble
// already contain, and Total).
func (p RestorePhases) Sum() time.Duration { return restorePhases.sum(&p) - p.Fetch }

// Other returns the unattributed remainder Total - Sum (clamped at 0).
func (p RestorePhases) Other() time.Duration {
	if o := p.Total - p.Sum(); o > 0 {
		return o
	}
	return 0
}

// Add accumulates q's durations into p field-wise.
func (p *RestorePhases) Add(q RestorePhases) {
	restorePhases.add(p, &q)
	p.Total += q.Total
}

// RunLengthBuckets is the explicit bucket ladder (run length in chunks)
// of the sequential-locality histogram exposition: powers of two up to
// 64Ki chunks. Fixed buckets keep the family aggregable across ranks.
var RunLengthBuckets = []int64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096, 16384, 65536}

// WritePrometheus emits the restore's counters, ratios, phase timings and
// latency/locality histograms as the dedupcr_restore_* families, labelled
// with the rank.
func (r Restore) WritePrometheus(w io.Writer) {
	p := RankWriter(w, r.Rank)
	p.Counter("dedupcr_restore_logical_bytes_total", "Bytes of the reassembled image.", r.LogicalBytes)
	p.Counter("dedupcr_restore_chunks_total", "Recipe chunk occurrences assembled.", r.TotalChunks)
	p.Counter("dedupcr_restore_unique_chunks_total", "Distinct fingerprints in the recipe.", r.UniqueChunks)
	p.Counter("dedupcr_restore_local_chunks_total", "Chunk reads served by the local store.", r.LocalChunks)
	p.Counter("dedupcr_restore_local_bytes_total", "Bytes served by the local store.", r.LocalBytes)
	p.Counter("dedupcr_restore_fetched_chunks_total", "Chunks pulled from peers.", r.FetchedChunks)
	p.Counter("dedupcr_restore_fetched_bytes_total", "Bytes pulled from peers.", r.FetchedBytes)
	p.Counter("dedupcr_restore_fetch_requests_total", "Chunks and blobs asked of a peer, misses included.", r.FetchRequests)
	p.Counter("dedupcr_restore_fetch_misses_total", "Asks answered not-found or rejected on verification.", r.FetchMisses)
	p.Counter("dedupcr_restore_meta_fetches_total", "Restore-metadata blobs recovered from peer replicas.", r.MetaFetches)
	p.Counter("dedupcr_restore_source_ranks", "Distinct peer ranks that served at least one chunk.", r.SourceRanks)
	p.Counter("dedupcr_restore_objects_touched", "Distinct local store objects read (chunks + blobs).", r.ObjectsTouched)
	p.Counter("dedupcr_restore_largest_run_chunks", "Longest same-source sequential run in the recipe walk.", r.LargestRun)

	p.Gauge("dedupcr_restore_read_amplification_bytes",
		"Bytes fetched from peers over logical image bytes.", r.ReadAmplificationBytes())
	p.Gauge("dedupcr_restore_read_amplification_chunks",
		"Chunks fetched from peers over unique chunks.", r.ReadAmplificationChunks())

	p.phases("dedupcr_restore_phase_seconds", "Wall-clock time of one restore pipeline phase.",
		RestorePhaseNames, r.Phases.ByName, r.Phases.Total)

	if nonZero(r.PeerFetchBytes) {
		const name = "dedupcr_restore_peer_fetched_bytes_total"
		p.Family(name, "counter", "Bytes this rank fetched from one peer.")
		for peer, b := range r.PeerFetchBytes {
			if b != 0 {
				p.Sample(name, fmt.Sprintf(`peer="%d"`, peer), b)
			}
		}
	}

	p.Histogram("dedupcr_restore_run_length_chunks",
		"Length (chunks) of maximal same-source sequential runs in the recipe walk.",
		r.RunLengths, RunLengthBuckets)
	p.Latency("dedupcr_restore_fetch_latency_seconds",
		"Remote fetch latency, one sample per exchange (batched chunk request or blob call).",
		r.FetchLatency)
	p.Latency("dedupcr_restore_store_read_latency_seconds",
		"Local store read latency during the restore.", r.StoreReadLatency)
}

func nonZero(v []int64) bool {
	for _, x := range v {
		if x != 0 {
			return true
		}
	}
	return false
}
