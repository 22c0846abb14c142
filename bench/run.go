package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"time"

	"dedupcr"
)

const (
	// warmups are the only untimed dumps; they are part of setup_s.
	warmups = 3
	// setups is how often the whole set-up is repeated so that setup_s is
	// a median, not a single sample.
	setups = 3
	// rankTimeout bounds one collective phase. It only exists so a
	// deadlocked group ends the process instead of hanging the caller.
	rankTimeout = 150 * time.Second
)

// cluster is one workload's communicator group plus the node-local stores
// of the current iteration. The group lives for the whole run; stores are
// opened fresh for every iteration and closed and removed after it.
type cluster struct {
	w     workload
	opts  dedupcr.Options
	bufs  [][]byte
	comms []dedupcr.Comm
	dir   string // parent of the segment stores' directories

	stores []dedupcr.Store
	dirs   []string // per rank; "" for in-memory stores
}

// newCluster generates the inputs, creates the group and opens its full
// mesh (the socket transport dials lazily; dialling during a timed dump
// would charge connection set-up to whichever iteration met a new peer).
func newCluster(w workload, seed int64, dir string) (*cluster, error) {
	opts, err := w.options(dedupcr.CollDedup)
	if err != nil {
		return nil, err
	}
	bufs, err := generate(w, seed)
	if err != nil {
		return nil, err
	}
	c := &cluster{w: w, opts: opts, bufs: bufs, dir: dir,
		comms: make([]dedupcr.Comm, w.N), stores: make([]dedupcr.Store, w.N), dirs: make([]string, w.N)}
	if w.TCP {
		tcp, err := dedupcr.StartLocalTCP(w.N)
		if err != nil {
			return nil, err
		}
		for r, t := range tcp {
			c.comms[r] = t
		}
	} else {
		g, err := dedupcr.NewGroup(w.N)
		if err != nil {
			return nil, err
		}
		for r := range c.comms {
			if c.comms[r], err = g.Comm(r); err != nil {
				return nil, err
			}
		}
	}
	const tagMesh = 1 // a user tag; nothing else in the benchmark sends on it
	_, errs := runRanks(w.N, func(r int) error {
		for p := 0; p < w.N; p++ {
			if err := c.comms[r].Send(p, tagMesh, nil); err != nil {
				return err
			}
		}
		for p := 0; p < w.N; p++ {
			if _, err := c.comms[r].Recv(p, tagMesh); err != nil {
				return err
			}
		}
		return nil
	})
	if err := firstError(errs); err != nil {
		c.close()
		return nil, fmt.Errorf("open mesh: %w", err)
	}
	return c, nil
}

// close releases the group. Closing one in-process endpoint closes the
// whole group; closing the rest is harmless.
func (c *cluster) close() {
	for _, cm := range c.comms {
		if cm != nil {
			cm.Close()
		}
	}
}

// openStore gives rank r a fresh, empty store.
func (c *cluster) openStore(r int) error {
	if !c.w.Seg {
		c.stores[r] = dedupcr.NewMemStore()
		return nil
	}
	dir, err := os.MkdirTemp(c.dir, fmt.Sprintf("seg-rank%d-", r))
	if err != nil {
		return err
	}
	s, err := dedupcr.NewSegStore(dir)
	if err != nil {
		os.RemoveAll(dir)
		return err
	}
	c.stores[r], c.dirs[r] = s, dir
	return nil
}

// closeStore closes rank r's store (stopping a segment store's compactor)
// and removes its directory.
func (c *cluster) closeStore(r int) error {
	var err error
	if cl, ok := c.stores[r].(io.Closer); ok {
		err = cl.Close()
	}
	if c.dirs[r] != "" {
		if rerr := os.RemoveAll(c.dirs[r]); err == nil {
			err = rerr
		}
	}
	c.stores[r], c.dirs[r] = nil, ""
	return err
}

func (c *cluster) openStores() error {
	for r := range c.stores {
		if err := c.openStore(r); err != nil {
			return err
		}
	}
	return nil
}

func (c *cluster) closeStores() error {
	var first error
	for r := range c.stores {
		if c.stores[r] == nil {
			continue
		}
		if err := c.closeStore(r); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// wipe loses rank r's node: its store fails and a blank one replaces it.
func (c *cluster) wipe(r int) error {
	c.stores[r].Fail()
	if err := c.closeStore(r); err != nil {
		return err
	}
	return c.openStore(r)
}

// runRanks is the closed loop's coordinator: n rank goroutines are parked
// on a gate and released at once; the returned duration is the makespan
// from the release to the last rank's return.
func runRanks(n int, body func(rank int) error) (time.Duration, []error) {
	errs := make([]error, n)
	gate := make(chan struct{})
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			<-gate
			errs[r] = body(r)
		}(r)
	}
	go func() { wg.Wait(); close(done) }()
	watchdog := time.NewTimer(rankTimeout)
	defer watchdog.Stop()
	start := time.Now()
	close(gate)
	select {
	case <-done:
	case <-watchdog.C:
		fmt.Fprintf(os.Stderr, "bench: ranks still blocked after %v; giving up\n", rankTimeout)
		os.Exit(3)
	}
	return time.Since(start), errs
}

func firstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// traffic is the group's transport counters, summed or per rank.
type traffic struct {
	sent   int64   // payload bytes sent, all ranks
	msgs   int64   // messages sent, all ranks
	recv   []int64 // payload bytes received, per rank
	rounds int64   // collective rounds, all ranks
	coll   time.Duration
}

func (c *cluster) traffic() traffic {
	t := traffic{recv: make([]int64, len(c.comms))}
	for r, cm := range c.comms {
		st := cm.Stats()
		t.sent += st.BytesSent
		t.msgs += st.MsgsSent
		t.recv[r] = st.BytesRecv
		t.rounds += st.CollRounds
		t.coll += st.CollTime
	}
	return t
}

// since returns the counters accumulated after the earlier snapshot.
func (t traffic) since(before traffic) traffic {
	d := traffic{sent: t.sent - before.sent, msgs: t.msgs - before.msgs,
		rounds: t.rounds - before.rounds, coll: t.coll - before.coll, recv: make([]int64, len(t.recv))}
	for r := range d.recv {
		d.recv[r] = t.recv[r] - before.recv[r]
	}
	return d
}

// imbalance is max over ranks of received bytes over their mean.
func (t traffic) imbalance() float64 {
	var sum, max int64
	for _, b := range t.recv {
		sum += b
		if b > max {
			max = b
		}
	}
	if sum == 0 {
		return 0
	}
	return float64(max) * float64(len(t.recv)) / float64(sum)
}

// dumpSample is what one collective dump yields.
type dumpSample struct {
	makespan time.Duration
	net      traffic
	stored   int64  // sum over ranks of Store.Usage bytes after the dump
	alloc    uint64 // runtime TotalAlloc over the dump, all ranks
	// plan is the schedule the dump executed (identical on every rank).
	// The rest of each rank's Result is dropped at once: it holds the
	// global fingerprint view, and forty of those kept alive would grow
	// the heap the collector marks during every later dump.
	plan   *planT
	failed int // rank-level calls that errored
}

// dump opens fresh stores and runs one collective dump on them. The
// stores stay open for the caller (restore, replay) and must be closed
// with closeStores. Garbage of earlier iterations is collected first so
// it is not charged to this one.
func (c *cluster) dump(opts dedupcr.Options) (dumpSample, error) {
	var s dumpSample
	if err := c.openStores(); err != nil {
		return s, err
	}
	plans := make([]*planT, c.w.N)
	runtime.GC()
	var m0, m1 runtime.MemStats
	before := c.traffic()
	runtime.ReadMemStats(&m0)
	var errs []error
	s.makespan, errs = runRanks(c.w.N, func(r int) error {
		res, err := dedupcr.DumpOutput(c.comms[r], c.stores[r], c.bufs[r], opts)
		if err == nil {
			plans[r] = res.Plan
		}
		return err
	})
	s.plan = plans[0]
	runtime.ReadMemStats(&m1)
	s.net = c.traffic().since(before)
	s.alloc = m1.TotalAlloc - m0.TotalAlloc
	for _, st := range c.stores {
		b, _ := st.Usage()
		s.stored += b
	}
	for _, err := range errs {
		if err != nil {
			s.failed++
		}
	}
	if err := firstError(errs); err != nil {
		return s, fmt.Errorf("dump: %w", err)
	}
	return s, nil
}

// restoreSample is what one collective restore yields.
type restoreSample struct {
	makespan time.Duration
	net      traffic
	failed   int // rank-level calls that errored or returned wrong bytes
}

// restore wipes the first `wipe` ranks, restores collectively on every
// rank and compares every restored buffer byte for byte.
func (c *cluster) restore(wipe int) (restoreSample, error) {
	var s restoreSample
	for r := 0; r < wipe; r++ {
		if err := c.wipe(r); err != nil {
			return s, err
		}
	}
	out := make([][]byte, c.w.N)
	runtime.GC() // as before a dump: start from a collected heap, not mid-cycle
	before := c.traffic()
	var errs []error
	s.makespan, errs = runRanks(c.w.N, func(r int) error {
		var err error
		out[r], err = dedupcr.Restore(c.comms[r], c.stores[r], c.opts.Name)
		return err
	})
	s.net = c.traffic().since(before)
	for r := range errs {
		if errs[r] == nil && !bytes.Equal(out[r], c.bufs[r]) {
			errs[r] = fmt.Errorf("rank %d: restored %d bytes differ from the %d dumped", r, len(out[r]), len(c.bufs[r]))
		}
		if errs[r] != nil {
			s.failed++
		}
	}
	if err := firstError(errs); err != nil {
		return s, fmt.Errorf("restore: %w", err)
	}
	return s, nil
}

// hygiene runs one iteration body and then checks that it gave back what
// it took: every store closed and removed, and the goroutine count back
// at its pre-iteration value (an un-closed segment store leaves its
// compactor running, which turns later timings bimodal).
func (c *cluster) hygiene(body func() error) error {
	before := runtime.NumGoroutine()
	err := body()
	if cerr := c.closeStores(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			return fmt.Errorf("goroutine leak: %d before the iteration, %d after it", before, runtime.NumGoroutine())
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// iteration is one timed (or warm-up, or verification) round: dump, wipe,
// collective restore, byte compare, clean up.
type iteration struct {
	dump    dumpSample
	restore restoreSample
}

func (c *cluster) iterate(wipe int) (iteration, error) {
	var it iteration
	err := c.hygiene(func() error {
		var err error
		if it.dump, err = c.dump(c.opts); err != nil {
			return err
		}
		it.restore, err = c.restore(wipe)
		return err
	})
	return it, err
}

// setUp builds the cluster and runs the warm-ups; its duration in seconds
// is one setup_s sample.
func setUp(w workload, seed int64, dir string) (*cluster, float64, error) {
	start := time.Now()
	c, err := newCluster(w, seed, dir)
	if err != nil {
		return nil, 0, err
	}
	for i := 0; i < warmups; i++ {
		if _, err := c.iterate(w.W); err != nil {
			c.close()
			return nil, 0, fmt.Errorf("warm-up %d: %w", i, err)
		}
	}
	return c, time.Since(start).Seconds(), nil
}

// budget says how long a run measures: at least minIters iterations, and
// further ones until `seconds` have passed.
type budget struct {
	minIters int
	seconds  float64
}

func (b budget) more(done int, start time.Time) bool {
	return done < b.minIters || time.Since(start).Seconds() < b.seconds
}

// runEndToEnd measures one workload with nothing extra switched on and
// returns its end-to-end metrics. An error means an operation failed; the
// returned result still carries the attempted and failed counts.
func runEndToEnd(w workload, seed int64, dir string, b budget) (workloadResult, error) {
	res := workloadResult{Workload: w}
	var setupSeconds []float64
	var c *cluster
	for i := 0; i < setups; i++ {
		if c != nil {
			c.close()
		}
		var s float64
		var err error
		if c, s, err = setUp(w, seed, dir); err != nil {
			res.Attempted, res.Failed = 1, 1
			return res, err
		}
		setupSeconds = append(setupSeconds, s)
	}
	defer c.close()

	var its []iteration
	count := func(it iteration) {
		res.Attempted += 2 * w.N
		res.Failed += it.dump.failed + it.restore.failed
	}
	var runErr error
	start := time.Now()
	for b.more(len(its), start) {
		it, err := c.iterate(w.W)
		count(it)
		if err != nil {
			runErr = fmt.Errorf("iteration %d: %w", len(its), err)
			break
		}
		its = append(its, it)
	}
	if runErr == nil {
		// Untimed verification at the guarantee's edge: K-1 nodes lost.
		it, err := c.iterate(w.K - 1)
		count(it)
		if err != nil {
			runErr = fmt.Errorf("verification with %d ranks wiped: %w", w.K-1, err)
		}
	}
	if runErr != nil && res.Failed == 0 {
		res.Failed = 1 // hygiene or store errors fail the run too
	}
	res.Samples = len(its)
	if len(its) > 0 {
		res.EndToEnd = endToEndMetrics(w, setupSeconds, its, res.Attempted, res.Failed)
	}
	return res, runErr
}

// endToEndMetrics reduces the timed iterations to the end-to-end metrics,
// in the order of endToEndDefs.
func endToEndMetrics(w workload, setupSeconds []float64, its []iteration, attempted, failed int) []metricValue {
	logical := w.logicalBytes()
	var dumpMs, restoreMs, alloc, net, stored, imbalance, restoreNet []float64
	for _, it := range its {
		dumpMs = append(dumpMs, float64(it.dump.makespan)/float64(time.Millisecond))
		restoreMs = append(restoreMs, float64(it.restore.makespan)/float64(time.Millisecond))
		alloc = append(alloc, float64(it.dump.alloc)/float64(logical))
		net = append(net, float64(it.dump.net.sent)/float64(logical))
		stored = append(stored, float64(it.dump.stored)/float64(logical))
		imbalance = append(imbalance, it.dump.net.imbalance())
		restoreNet = append(restoreNet, float64(it.restore.net.sent)/float64(logical))
	}
	rate := func(xs []float64) float64 { return mbps(logical, median(xs)) }
	failedShare := 0.0
	if attempted > 0 {
		failedShare = float64(failed) / float64(attempted)
	}
	values := map[string][2]float64{ // value, split-half spread
		"setup_s":                            {median(setupSeconds), 0},
		"dump_mbps":                          {rate(dumpMs), splitHalfSpread(dumpMs, rate)},
		"dump_ms_p75":                        {p75(dumpMs), splitHalfSpread(dumpMs, p75)},
		"restore_mbps":                       {rate(restoreMs), splitHalfSpread(restoreMs, rate)},
		"restore_ms_p75":                     {p75(restoreMs), splitHalfSpread(restoreMs, p75)},
		"net_bytes_per_logical_byte":         {median(net), splitHalfSpread(net, median)},
		"stored_bytes_per_logical_byte":      {median(stored), splitHalfSpread(stored, median)},
		"recv_imbalance":                     {median(imbalance), splitHalfSpread(imbalance, median)},
		"restore_net_bytes_per_logical_byte": {median(restoreNet), splitHalfSpread(restoreNet, median)},
		"dump_alloc_bytes_per_logical_byte":  {median(alloc), splitHalfSpread(alloc, median)},
		"failed_op_share":                    {failedShare, 0},
	}
	out := make([]metricValue, 0, len(endToEndDefs))
	for _, d := range endToEndDefs {
		v := values[d.Name]
		out = append(out, d.value(v[0], v[1]))
	}
	return out
}
