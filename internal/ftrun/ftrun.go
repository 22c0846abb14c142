// Package ftrun is the fault-tolerance runtime the paper integrates its
// I/O library with (AC-FTE): it tracks the application's checkpointable
// memory, drives the collective DUMP_OUTPUT primitive at checkpoint time,
// and restores the newest surviving checkpoint after failures.
//
// Two usage modes mirror AC-FTE's:
//
//   - transparent mode: the application allocates its state through
//     Register, the runtime's tracking allocator (the jemalloc-capture
//     substitute); Checkpoint serializes every registered region.
//   - application mode: the application implements Checkpointable and
//     hands the runtime a serialized image per checkpoint.
package ftrun

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"dedupcr/internal/collectives"
	"dedupcr/internal/core"
	"dedupcr/internal/metrics"
	"dedupcr/internal/storage"
)

// Checkpointable is the application-level checkpoint interface.
type Checkpointable interface {
	// CheckpointImage serializes the application state.
	CheckpointImage() []byte
	// RestoreImage loads a previously serialized state.
	RestoreImage([]byte) error
}

// Region is a tracked memory region. The runtime owns the backing slice;
// the application computes directly in it, so a checkpoint captures the
// live state with no extra copy — the transparent-mode property AC-FTE
// gets from interposing on the allocator.
type Region struct {
	Name string
	Data []byte
}

// Runtime drives checkpoint-restart for one rank.
type Runtime struct {
	comm  collectives.Comm
	store storage.Store
	opts  core.Options

	regions []*Region
	epoch   int
	// oldest is the lowest epoch not yet reclaimed by Truncate.
	oldest int

	// initErr records an invalid configuration detected at construction;
	// every operation returns it, keeping New's signature error-free.
	initErr error

	// LastDump holds the metrics of the most recent checkpoint.
	LastDump *metrics.Dump
}

// ErrNoCheckpoint is returned by Restart when no rank has any checkpoint.
var ErrNoCheckpoint = errors.New("ftrun: no surviving checkpoint")

// latestBlob names the blob recording the newest checkpoint epoch.
const latestBlob = "ftrun/latest"

// New creates a runtime for this rank. opts.Name is used as the
// checkpoint name prefix (default "ckpt"). An invalid replication factor
// (K < 1, or K exceeding the group size) is rejected consistently with
// core's option validation: New still returns a runtime, but every
// operation on it fails with the configuration error.
func New(comm collectives.Comm, store storage.Store, opts core.Options) *Runtime {
	if opts.Name == "" || opts.Name == "dataset" {
		opts.Name = "ckpt"
	}
	rt := &Runtime{comm: comm, store: store, opts: opts, epoch: -1}
	if opts.K < 1 {
		rt.initErr = fmt.Errorf("ftrun: replication factor K=%d must be >= 1", opts.K)
	} else if opts.K > comm.Size() {
		rt.initErr = fmt.Errorf("ftrun: replication factor K=%d exceeds group size %d", opts.K, comm.Size())
	}
	return rt
}

// Register allocates a tracked region of the given size and returns its
// backing slice for the application to compute in.
func (rt *Runtime) Register(name string, size int) []byte {
	r := &Region{Name: name, Data: make([]byte, size)}
	rt.regions = append(rt.regions, r)
	return r.Data
}

// Adopt places an existing buffer under runtime tracking. The runtime
// captures whatever the slice holds at checkpoint time.
func (rt *Runtime) Adopt(name string, data []byte) {
	rt.regions = append(rt.regions, &Region{Name: name, Data: data})
}

// Regions returns the tracked regions in registration order.
func (rt *Runtime) Regions() []*Region { return rt.regions }

// Epoch returns the epoch of the last checkpoint taken or restored, or
// -1 if none.
func (rt *Runtime) Epoch() int { return rt.epoch }

// ckptName returns the dataset name of an epoch.
func (rt *Runtime) ckptName(epoch int) string {
	return fmt.Sprintf("%s-%06d", rt.opts.Name, epoch)
}

// image serializes the region directory followed by the region contents:
//
//	u32 nRegions | per region: u16 nameLen | name | u64 size
//	then each region's bytes, in order.
func (rt *Runtime) image() ([]byte, error) {
	var total int
	for _, r := range rt.regions {
		total += len(r.Data)
	}
	buf := make([]byte, 0, 4+len(rt.regions)*32+total)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(rt.regions)))
	for _, r := range rt.regions {
		if len(r.Name) > 0xFFFF {
			return nil, fmt.Errorf("ftrun: region name %q too long", r.Name[:32])
		}
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(r.Name)))
		buf = append(buf, r.Name...)
		buf = binary.BigEndian.AppendUint64(buf, uint64(len(r.Data)))
	}
	for _, r := range rt.regions {
		buf = append(buf, r.Data...)
	}
	return buf, nil
}

// loadImage splits a checkpoint image back into the registered regions.
// The region layout (names, sizes, order) must match registration —
// restart re-runs the same program, so it does.
func (rt *Runtime) loadImage(buf []byte) error {
	if len(buf) < 4 {
		return fmt.Errorf("ftrun: image truncated")
	}
	n := int(binary.BigEndian.Uint32(buf))
	buf = buf[4:]
	if n != len(rt.regions) {
		return fmt.Errorf("ftrun: image has %d regions, runtime tracks %d", n, len(rt.regions))
	}
	type hdr struct {
		name string
		size uint64
	}
	hdrs := make([]hdr, n)
	for i := 0; i < n; i++ {
		if len(buf) < 2 {
			return fmt.Errorf("ftrun: region header %d truncated", i)
		}
		nameLen := int(binary.BigEndian.Uint16(buf))
		buf = buf[2:]
		if len(buf) < nameLen+8 {
			return fmt.Errorf("ftrun: region header %d truncated", i)
		}
		hdrs[i].name = string(buf[:nameLen])
		hdrs[i].size = binary.BigEndian.Uint64(buf[nameLen:])
		buf = buf[nameLen+8:]
	}
	for i, h := range hdrs {
		r := rt.regions[i]
		if h.name != r.Name || h.size != uint64(len(r.Data)) {
			return fmt.Errorf("ftrun: region %d is %q/%d in image but %q/%d registered",
				i, h.name, h.size, r.Name, len(r.Data))
		}
		if uint64(len(buf)) < h.size {
			return fmt.Errorf("ftrun: region %q content truncated", h.name)
		}
		copy(r.Data, buf[:h.size])
		buf = buf[h.size:]
	}
	if len(buf) != 0 {
		return fmt.Errorf("ftrun: %d trailing bytes in image", len(buf))
	}
	return nil
}

// Checkpoint takes a collective checkpoint of all registered regions.
// All ranks must call it together.
func (rt *Runtime) Checkpoint() (*core.Result, error) {
	return rt.CheckpointCtx(context.Background())
}

// CheckpointCtx is Checkpoint under a context: cancellation aborts the
// collective dump on every rank (see core.DumpOutputCtx).
func (rt *Runtime) CheckpointCtx(ctx context.Context) (*core.Result, error) {
	img, err := rt.image()
	if err != nil {
		return nil, err
	}
	return rt.checkpointImage(ctx, img)
}

// CheckpointApp takes a collective checkpoint of an application-mode app.
func (rt *Runtime) CheckpointApp(app Checkpointable) (*core.Result, error) {
	return rt.CheckpointAppCtx(context.Background(), app)
}

// CheckpointAppCtx is CheckpointApp under a context.
func (rt *Runtime) CheckpointAppCtx(ctx context.Context, app Checkpointable) (*core.Result, error) {
	return rt.checkpointImage(ctx, app.CheckpointImage())
}

func (rt *Runtime) checkpointImage(ctx context.Context, img []byte) (*core.Result, error) {
	if rt.initErr != nil {
		return nil, rt.initErr
	}
	epoch := rt.epoch + 1
	o := rt.opts
	o.Name = rt.ckptName(epoch)
	res, err := core.DumpOutputCtx(ctx, rt.comm, rt.store, img, o)
	if err != nil {
		return nil, fmt.Errorf("ftrun: checkpoint %d: %w", epoch, err)
	}
	var rec [8]byte
	binary.BigEndian.PutUint64(rec[:], uint64(epoch))
	if err := rt.store.PutBlob(latestBlob, rec[:]); err != nil && !errors.Is(err, storage.ErrFailed) {
		return nil, err
	}
	if err := rt.store.Commit(); err != nil && !errors.Is(err, storage.ErrFailed) {
		return nil, fmt.Errorf("ftrun: checkpoint %d: %w", epoch, err)
	}
	rt.epoch = epoch
	rt.LastDump = &res.Metrics
	return res, nil
}

// newestEpoch agrees collectively on the newest epoch any surviving rank
// knows about (-1 if none).
func (rt *Runtime) newestEpoch() (int, error) {
	local := int64(-1)
	if blob, err := rt.store.GetBlob(latestBlob); err == nil && len(blob) == 8 {
		local = int64(binary.BigEndian.Uint64(blob))
	}
	buf := make([]byte, 8)
	binary.BigEndian.PutUint64(buf, uint64(local))
	out, err := collectives.Allreduce(rt.comm, buf, maxInt64Merge)
	if err != nil {
		return -1, err
	}
	v := int64(binary.BigEndian.Uint64(out))
	if v > math.MaxInt32 {
		return -1, fmt.Errorf("ftrun: implausible epoch %d", v)
	}
	return int(v), nil
}

func maxInt64Merge(acc, other []byte) ([]byte, error) {
	a := int64(binary.BigEndian.Uint64(acc))
	b := int64(binary.BigEndian.Uint64(other))
	if b > a {
		a = b
	}
	out := make([]byte, 8)
	binary.BigEndian.PutUint64(out, uint64(a))
	return out, nil
}

// Truncate reclaims local storage of old checkpoints, keeping the newest
// keepLast epochs. Chunks shared with retained checkpoints survive via
// reference counting (consecutive checkpoints typically overlap heavily,
// so truncation mostly releases the delta). Local and non-collective.
func (rt *Runtime) Truncate(keepLast int) error {
	if rt.initErr != nil {
		return rt.initErr
	}
	if keepLast < 1 {
		return fmt.Errorf("ftrun: must keep at least one checkpoint, got %d", keepLast)
	}
	for ; rt.oldest <= rt.epoch-keepLast; rt.oldest++ {
		err := core.Forget(rt.store, rt.ckptName(rt.oldest), rt.comm.Rank())
		if err != nil && !errors.Is(err, storage.ErrNotFound) && !errors.Is(err, storage.ErrFailed) {
			return fmt.Errorf("ftrun: truncate epoch %d: %w", rt.oldest, err)
		}
	}
	return nil
}

// Restart restores the newest surviving checkpoint into the registered
// regions (transparent mode). Collective.
func (rt *Runtime) Restart() (int, error) {
	return rt.RestartCtx(context.Background())
}

// RestartCtx is Restart under a context: cancellation aborts both the
// epoch agreement and the collective restore on every rank.
func (rt *Runtime) RestartCtx(ctx context.Context) (int, error) {
	img, epoch, err := rt.restartImage(ctx)
	if err != nil {
		return -1, err
	}
	if err := rt.loadImage(img); err != nil {
		return -1, err
	}
	return epoch, nil
}

// RestartApp restores the newest surviving checkpoint into an
// application-mode app. Collective.
func (rt *Runtime) RestartApp(app Checkpointable) (int, error) {
	return rt.RestartAppCtx(context.Background(), app)
}

// RestartAppCtx is RestartApp under a context.
func (rt *Runtime) RestartAppCtx(ctx context.Context, app Checkpointable) (int, error) {
	img, epoch, err := rt.restartImage(ctx)
	if err != nil {
		return -1, err
	}
	if err := app.RestoreImage(img); err != nil {
		return -1, err
	}
	return epoch, nil
}

func (rt *Runtime) restartImage(ctx context.Context) ([]byte, int, error) {
	if rt.initErr != nil {
		return nil, -1, rt.initErr
	}
	// The epoch agreement is itself collective: run it under the context
	// watcher so a cancellation arriving before (or during) the restore
	// proper still unblocks the Allreduce on every rank.
	stop := collectives.WatchContext(ctx, rt.comm)
	epoch, err := rt.newestEpoch()
	stop()
	if err != nil {
		return nil, -1, err
	}
	if epoch < 0 {
		return nil, -1, ErrNoCheckpoint
	}
	img, err := core.RestoreCtx(ctx, rt.comm, rt.store, rt.ckptName(epoch))
	if err != nil {
		return nil, -1, fmt.Errorf("ftrun: restart from epoch %d: %w", epoch, err)
	}
	rt.epoch = epoch
	return img, epoch, nil
}
