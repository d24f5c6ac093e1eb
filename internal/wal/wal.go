// Package wal is the durability substrate shared by the document store
// and the MQTT broker's session state: an append-only segment log with
// CRC-framed records, fsync-batched group commit, segment rotation and
// periodic compacting snapshots.
//
// The write path is designed so hot callers never block on disk: Append
// frames the record into an in-memory batch under a short mutex and
// returns; a single syncer goroutine drains batches to the active segment
// and issues one fsync per batch (group commit). Sync waits until every
// record appended so far is durable; Close flushes and shuts down cleanly;
// Crash abandons un-flushed appends and closes abruptly, simulating
// SIGKILL-style process death for the crash-recovery tests.
//
// On disk a log directory holds segment files (wal-<firstLSN>.seg,
// consecutive CRC-framed records) and snapshot files (snap-<lastLSN>.snap,
// one CRC-framed consumer-defined blob covering every record up to and
// including lastLSN). Open recovers by loading the newest readable
// snapshot and replaying the segment tail after it, stopping at the first
// torn or corrupt record (see Recovery); Checkpoint writes a new snapshot
// and deletes segments and snapshots the retention policy no longer
// needs. The recovery contract is written out in docs/DURABILITY.md.
package wal

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/vclock"
)

// ErrClosed is returned by operations on a closed (or crashed) log.
var ErrClosed = errors.New("wal: log closed")

// Options tunes a Log.
type Options struct {
	// Clock supplies time for the recovery-duration metric (defaults to
	// the real clock; simulations inject their virtual clock so durable
	// runs stay deterministic).
	Clock vclock.Clock
	// SegmentBytes rotates the active segment once it exceeds this size
	// (default 1 MiB). A batch is never split across segments, so segments
	// may exceed the bound by one batch.
	SegmentBytes int
	// RetainSnapshots is how many snapshots Checkpoint keeps (default 2:
	// the new one plus one predecessor, so a torn newest snapshot still
	// leaves a recoverable older one). Segments are deleted only once no
	// retained snapshot needs their records.
	RetainSnapshots int
	// Metrics receives the log's counters; nil creates a private set.
	// Share one Metrics across the deployment's logs so the
	// sensocial_wal_* families aggregate on /metrics.
	Metrics *Metrics
}

func (o Options) withDefaults() Options {
	if o.Clock == nil {
		o.Clock = vclock.NewReal()
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 1 << 20
	}
	if o.RetainSnapshots <= 0 {
		o.RetainSnapshots = 2
	}
	if o.Metrics == nil {
		o.Metrics = NewMetrics(nil)
	}
	return o
}

// Log is one append-only segment log with snapshots. All methods are safe
// for concurrent use; Checkpoint additionally requires that the caller
// quiesce its own appenders (hold its state lock) so the snapshot matches
// the captured LSN — see Checkpoint.
type Log struct {
	dir  string
	opts Options

	// ioMu serializes file-system work: the syncer's batch writes and
	// Checkpoint's snapshot+retention pass. Never held while waiting on mu
	// holders; the order is always ioMu before mu.
	ioMu sync.Mutex
	seg  *os.File // active segment (nil until the first flush)
	segN int      // bytes written to the active segment
	segs []uint64 // first-LSNs of live segments, ascending (active last)

	mu      sync.Mutex
	cond    *sync.Cond // signaled when durable advances or the log dies
	pending []byte     // framed records awaiting the syncer
	spare   []byte     // recycled batch buffer (owned by the syncer)
	lsn     uint64     // last assigned LSN
	durable uint64     // last LSN persisted and fsynced
	written uint64     // last LSN physically written (syncer only, under ioMu)
	err     error      // first write/fsync error; sticky
	closed  bool

	kick chan struct{} // 1-buffered doorbell for the syncer
	done chan struct{}
	wg   sync.WaitGroup
}

// Recovery reports what Open reconstructed.
type Recovery struct {
	// Snapshot is the newest readable snapshot blob, nil if none survived.
	Snapshot []byte
	// SnapshotLSN is the last record the snapshot covers (0 with no
	// snapshot). Replay starts at SnapshotLSN+1.
	SnapshotLSN uint64
	// Records are the tail records after the snapshot, in LSN order.
	Records [][]byte
	// LastLSN is the LSN of the last recovered record (or SnapshotLSN).
	LastLSN uint64
	// TruncatedTail reports that a torn or corrupt record was found and
	// everything at and after it was discarded.
	TruncatedTail bool
	// SkippedSnapshots counts unreadable snapshots that were passed over
	// before one validated (or none did).
	SkippedSnapshots int
}

// Open recovers the log in dir (created if missing) and readies it for
// appends. The returned Recovery carries the reconstructed state; the log
// continues at Recovery.LastLSN+1.
func Open(dir string, opts Options) (*Log, *Recovery, error) {
	opts = opts.withDefaults()
	start := opts.Clock.Now()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("wal: open %s: %w", dir, err)
	}
	l := &Log{
		dir:  dir,
		opts: opts,
		kick: make(chan struct{}, 1),
		done: make(chan struct{}),
	}
	l.cond = sync.NewCond(&l.mu)
	rec, err := l.recover()
	if err != nil {
		return nil, nil, err
	}
	l.lsn = rec.LastLSN
	l.durable = rec.LastLSN
	l.written = rec.LastLSN
	m := opts.Metrics
	m.segments.Add(float64(len(l.segs)))
	m.replayed.Add(uint64(len(rec.Records)))
	if rec.TruncatedTail {
		m.tornTails.Inc()
	}
	m.recoverySeconds.Observe(opts.Clock.Now().Sub(start).Seconds())
	l.wg.Add(1)
	go l.syncer()
	return l, rec, nil
}

// LSN returns the last assigned record sequence number.
func (l *Log) LSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lsn
}

// Append frames payload into the pending batch and returns without
// touching disk; the syncer goroutine persists it. Use Sync to wait for
// durability.
func (l *Log) Append(payload []byte) error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	if l.err != nil {
		err := l.err
		l.mu.Unlock()
		return err
	}
	l.lsn++
	l.pending = appendFrame(l.pending, payload)
	l.mu.Unlock()
	l.opts.Metrics.records.Inc()
	select {
	case l.kick <- struct{}{}:
	default:
	}
	return nil
}

// Sync blocks until every record appended before the call is persisted
// and fsynced (or the log dies).
func (l *Log) Sync() error {
	select {
	case l.kick <- struct{}{}:
	default:
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	target := l.lsn
	for l.durable < target && l.err == nil && !l.closed {
		//lint:ignore mutexhold sync.Cond.Wait atomically releases l.mu while parked and reacquires it on wake; nothing is held across the wait
		l.cond.Wait()
	}
	if l.err != nil {
		return l.err
	}
	if l.durable < target {
		return ErrClosed
	}
	return nil
}

// Close flushes pending appends, fsyncs, and shuts the log down. Safe to
// call more than once and after Crash.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	l.cond.Broadcast()
	l.mu.Unlock()
	close(l.done)
	l.wg.Wait()
	// The syncer is gone; drain whatever it had not picked up yet.
	l.flushOnce()
	l.ioMu.Lock()
	defer l.ioMu.Unlock()
	if l.seg != nil {
		err := l.seg.Close()
		l.seg = nil
		if err != nil {
			return fmt.Errorf("wal: close: %w", err)
		}
	}
	l.mu.Lock()
	err := l.err
	l.mu.Unlock()
	return err
}

// Crash abandons pending (un-flushed) appends and closes the log
// abruptly, without a final flush or fsync: the on-disk state is whatever
// the group-commit syncer had already persisted, exactly as after a
// SIGKILL. The crash-recovery tests and shard.RestartBroker use it; real
// deployments use Close.
func (l *Log) Crash() {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return
	}
	l.closed = true
	l.pending = nil
	l.cond.Broadcast()
	l.mu.Unlock()
	close(l.done)
	l.wg.Wait()
	l.ioMu.Lock()
	defer l.ioMu.Unlock()
	if l.seg != nil {
		_ = l.seg.Close()
		l.seg = nil
	}
}

// syncer is the group-commit loop: each doorbell drains the whole pending
// batch with one write and one fsync, so concurrent appenders share a
// single disk round trip.
func (l *Log) syncer() {
	defer l.wg.Done()
	for {
		select {
		case <-l.kick:
			l.flushOnce()
		case <-l.done:
			return
		}
	}
}

// flushOnce persists the current pending batch, if any.
func (l *Log) flushOnce() {
	l.ioMu.Lock()
	defer l.ioMu.Unlock()

	l.mu.Lock()
	if len(l.pending) == 0 || l.err != nil {
		l.mu.Unlock()
		return
	}
	batch := l.pending
	target := l.lsn
	l.pending = l.spare[:0]
	l.spare = nil
	l.mu.Unlock()

	err := l.writeBatch(batch, target)

	l.mu.Lock()
	if err != nil {
		if l.err == nil {
			l.err = err
		}
	} else {
		l.durable = target
	}
	if l.spare == nil && cap(batch) <= maxRecycledBatch {
		l.spare = batch[:0]
	}
	l.cond.Broadcast()
	l.mu.Unlock()
}

// maxRecycledBatch caps the batch buffer kept across flushes; rare huge
// batches should be collected, not pinned.
const maxRecycledBatch = 1 << 20

// writeBatch appends one framed batch to the active segment (rotating
// first if it is full) and fsyncs. Runs under ioMu only.
func (l *Log) writeBatch(batch []byte, target uint64) error {
	if l.seg != nil && l.segN >= l.opts.SegmentBytes {
		if err := l.seg.Close(); err != nil {
			return fmt.Errorf("wal: rotate: %w", err)
		}
		l.seg = nil
	}
	if l.seg == nil {
		first := l.written + 1
		f, err := os.OpenFile(filepath.Join(l.dir, segmentName(first)),
			os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("wal: segment: %w", err)
		}
		st, err := f.Stat()
		if err != nil {
			_ = f.Close()
			return fmt.Errorf("wal: segment: %w", err)
		}
		if st.Size() == 0 {
			// Fresh file: make its directory entry durable too.
			syncDir(l.dir)
			l.opts.Metrics.segments.Add(1)
			l.segs = append(l.segs, first)
		}
		l.seg = f
		l.segN = int(st.Size())
	}
	if _, err := l.seg.Write(batch); err != nil {
		return fmt.Errorf("wal: write: %w", err)
	}
	l.segN += len(batch)
	if err := l.seg.Sync(); err != nil {
		return fmt.Errorf("wal: fsync: %w", err)
	}
	l.written = target
	l.opts.Metrics.bytes.Add(uint64(len(batch)))
	l.opts.Metrics.fsyncs.Inc()
	return nil
}

// Checkpoint writes a compacting snapshot covering every record appended
// so far, then applies the retention policy (keep RetainSnapshots
// snapshots; delete segments no retained snapshot needs). The caller must
// guarantee no Append runs concurrently — consumers hold their own
// exclusive state lock across Checkpoint so the serialized state matches
// the captured LSN exactly.
func (l *Log) Checkpoint(write func(w io.Writer) error) error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	lsn := l.lsn
	l.mu.Unlock()

	l.ioMu.Lock()
	defer l.ioMu.Unlock()
	if err := writeSnapshotFile(l.dir, lsn, write); err != nil {
		return err
	}
	l.opts.Metrics.snapshots.Inc()
	l.retainLocked(lsn)
	return nil
}

// retainLocked deletes snapshots beyond RetainSnapshots and segments
// whose every record is covered by the oldest retained snapshot. Runs
// under ioMu.
func (l *Log) retainLocked(newest uint64) {
	snaps, _ := listFiles(l.dir, snapPrefix, snapSuffix)
	for len(snaps) > l.opts.RetainSnapshots {
		if os.Remove(filepath.Join(l.dir, snapshotName(snaps[0]))) != nil {
			break
		}
		snaps = snaps[1:]
	}
	// Records at or below cutoff are covered by every retained snapshot.
	cutoff := newest
	if len(snaps) > 0 && snaps[0] < cutoff {
		cutoff = snaps[0]
	}
	// A segment is removable when it is not the active one and the next
	// segment starts at or below cutoff+1 (so this one holds nothing
	// after cutoff).
	for len(l.segs) > 1 && l.segs[1] <= cutoff+1 {
		if err := os.Remove(filepath.Join(l.dir, segmentName(l.segs[0]))); err != nil {
			break
		}
		l.opts.Metrics.segments.Add(-1)
		l.segs = l.segs[1:]
	}
}
