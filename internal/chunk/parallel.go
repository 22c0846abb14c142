package chunk

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// hashShardChunks is how many consecutive chunks one worker hashes per
// shard claim. Large enough that the per-shard bookkeeping (one atomic
// add, one channel send) vanishes against the SHA cost of the shard,
// small enough that a dump's chunks spread over all workers and the
// in-order consumer never starves behind one giant shard.
const hashShardChunks = 64

// Workers normalizes a worker-count option: values <= 0 select
// GOMAXPROCS (use every core the runtime will schedule on).
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// FromCutsStream hashes the chunks delimited by cuts with up to `workers`
// goroutines and, when emit is non-nil, delivers the finished chunks to
// it as consecutive in-dataset-order spans on the caller's goroutine —
// while later spans are still being hashed. This is what lets a consumer
// (the dump's local-dedup table build) overlap with hashing instead of
// waiting for the full slice.
//
// It returns the complete chunk slice (identical to FromCuts) and the
// per-worker busy durations (index = worker id, length = workers actually
// started), which instrumented callers attribute to worker spans.
func FromCutsStream(buf []byte, cuts []int, workers int, emit func(span []Chunk)) ([]Chunk, []time.Duration) {
	workers = Workers(workers)
	if workers <= 1 || len(cuts) <= hashShardChunks {
		out := FromCuts(buf, cuts)
		if emit != nil && len(out) > 0 {
			emit(out)
		}
		return out, nil
	}

	out := make([]Chunk, len(cuts))
	nShards := (len(cuts) + hashShardChunks - 1) / hashShardChunks
	if workers > nShards {
		workers = nShards
	}
	var next atomic.Int64
	completed := make(chan int, nShards)
	busy := make([]time.Duration, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			start := time.Now()
			for {
				s := int(next.Add(1) - 1)
				if s >= nShards {
					break
				}
				lo := s * hashShardChunks
				hi := min(lo+hashShardChunks, len(cuts))
				prev := 0
				if lo > 0 {
					prev = cuts[lo-1]
				}
				fill(out[lo:hi], buf, prev, cuts[lo:hi])
				completed <- s
			}
			busy[w] = time.Since(start)
		}(w)
	}

	// Drain completions in shard order so emit sees the dataset
	// front-to-back, exactly as the serial path would produce it.
	ready := make([]bool, nShards)
	nextEmit := 0
	for done := 0; done < nShards; done++ {
		s := <-completed
		ready[s] = true
		for nextEmit < nShards && ready[nextEmit] {
			if emit != nil {
				lo := nextEmit * hashShardChunks
				emit(out[lo:min(lo+hashShardChunks, len(cuts))])
			}
			nextEmit++
		}
	}
	wg.Wait()
	return out, busy
}
