package log

import (
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"time"
)

// SyncPolicy selects when appended batches are made durable (fsynced). The
// broker maps producer acks onto the configured policy: under SyncGroup,
// produces with acks>=1 are not acknowledged until their offsets are covered
// by a group fdatasync.
type SyncPolicy int8

const (
	// SyncNone leaves flushing to the OS page cache (plus the legacy
	// FlushMessages counter and segment-roll syncs). Acks never wait for
	// durability. This is the zero value and the paper's default (§4.1).
	SyncNone SyncPolicy = iota
	// SyncInterval fsyncs from a background goroutine every Interval.
	// Acks do not wait; a crash loses at most one interval of appends.
	SyncInterval
	// SyncBatch fsyncs inline after every appended batch — maximum
	// durability, one fdatasync per batch.
	SyncBatch
	// SyncGroup batches many in-flight appends behind one fdatasync: the
	// first append after a sync opens a commit window (GroupWindow long,
	// cut short when GroupBytes accumulate); everything appended inside it
	// is covered by a single fdatasync, and SyncWait lets producers defer
	// their acks until that sync lands.
	SyncGroup
)

// String names the policy for tables and logs.
func (p SyncPolicy) String() string {
	switch p {
	case SyncNone:
		return "none"
	case SyncInterval:
		return "interval"
	case SyncBatch:
		return "batch"
	case SyncGroup:
		return "group"
	default:
		return fmt.Sprintf("SyncPolicy(%d)", int8(p))
	}
}

// Durability defaults used when fields are zero.
const (
	DefaultSyncInterval = 50 * time.Millisecond
	DefaultGroupWindow  = 2 * time.Millisecond
	DefaultGroupBytes   = 4 << 20 // 4 MiB
)

// Durability is the log's WAL discipline: when appends are fsynced, and how
// recovery uses the persisted checkpoint to avoid rescanning synced data.
type Durability struct {
	// Policy selects the sync discipline; see SyncPolicy.
	Policy SyncPolicy
	// Interval is the background sync period for SyncInterval (default
	// DefaultSyncInterval). SyncGroup also runs no timer beyond its
	// window, so Interval is ignored there.
	Interval time.Duration
	// GroupWindow is how long a group commit waits for more appends to
	// pile in behind the pending fdatasync (default DefaultGroupWindow).
	GroupWindow time.Duration
	// GroupBytes cuts a commit window short once this many unsynced bytes
	// accumulate (default DefaultGroupBytes).
	GroupBytes int64
	// Syncer overrides how a segment file is synced (default fdatasync on
	// Linux, Sync elsewhere). Tests inject counting or failing syncers to
	// assert the observable sync behaviour of each policy; benchmarks
	// inject a modeled disk barrier.
	Syncer func(*os.File) error
	// CheckpointHook, when set, runs before each recovery-point write (the
	// checkpoint file plus the producer snapshot); a non-nil error skips the
	// write. Crash tests use it to simulate dying between the fdatasync and
	// the checkpoint update, and to count recovery-point writes.
	CheckpointHook func() error
}

func (d Durability) withDefaults() Durability {
	if d.Interval == 0 {
		d.Interval = DefaultSyncInterval
	}
	if d.GroupWindow == 0 {
		d.GroupWindow = DefaultGroupWindow
	}
	if d.GroupBytes == 0 {
		d.GroupBytes = DefaultGroupBytes
	}
	return d
}

// errSyncTruncated resolves sync waiters whose awaited offsets were removed
// by a truncation (leader change reconciliation) before becoming durable.
var errSyncTruncated = errors.New("log: truncated below awaited offset")

// syncWaiter parks a producer ack behind the durability frontier: ch
// receives nil once offsets below next are fsynced.
type syncWaiter struct {
	next int64
	ch   chan error
}

// syncFile syncs one segment file under the configured syncer, feeding the
// fsync count and latency series when metrics are wired.
func (l *Log) syncFile(f *os.File) error {
	var start time.Time
	if l.met != nil {
		start = time.Now()
	}
	var err error
	if s := l.cfg.Durability.Syncer; s != nil {
		err = s(f)
	} else {
		err = fdatasync(f)
	}
	if l.met != nil {
		l.met.fsyncs.Inc()
		l.met.fsyncNs.ObserveSince(start)
	}
	return err
}

// SyncedNext returns the durability frontier: every offset below it has been
// fsynced (or was recovered from disk at open, which proves it survived).
func (l *Log) SyncedNext() int64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.syncedNext
}

// SyncWait returns a channel that receives nil once every offset below next
// is durable under the log's sync policy, or an error if the log closes or
// truncates first. It returns nil when no wait is needed — the offsets are
// already durable, or the policy acknowledges without waiting (everything
// except SyncGroup; SyncBatch syncs inline before the append returns).
func (l *Log) SyncWait(next int64) <-chan error {
	if l.cfg.Durability.Policy != SyncGroup {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		ch := make(chan error, 1)
		ch <- ErrClosed
		return ch
	}
	if next <= l.syncedNext {
		return nil
	}
	ch := make(chan error, 1)
	l.syncWaiters = append(l.syncWaiters, syncWaiter{next: next, ch: ch})
	return ch
}

// noteDirtyLocked records n freshly appended unsynced bytes and, under
// SyncGroup, kicks the committer (urgently once GroupBytes accumulate).
func (l *Log) noteDirtyLocked(n int64) {
	if !l.dirty {
		// Clean→dirty transition: start the durability-lag clock health
		// checks read (how long the oldest unsynced append has waited).
		l.dirtySinceNano.Store(time.Now().UnixNano())
	}
	l.dirty = true
	l.unsyncedBytes += n
	if l.cfg.Durability.Policy == SyncGroup {
		select {
		case l.syncKick <- struct{}{}:
		default:
		}
		if l.unsyncedBytes >= l.cfg.Durability.GroupBytes {
			select {
			case l.syncUrgent <- struct{}{}:
			default:
			}
		}
	}
}

// advanceSyncedLocked raises the durability frontier and resolves every
// waiter it now covers.
func (l *Log) advanceSyncedLocked(next int64) {
	if next > l.syncedNext {
		l.syncedNext = next
	}
	if len(l.syncWaiters) == 0 {
		return
	}
	kept := l.syncWaiters[:0]
	for _, w := range l.syncWaiters {
		if w.next <= l.syncedNext {
			w.ch <- nil
		} else {
			kept = append(kept, w)
		}
	}
	l.syncWaiters = kept
}

// failSyncWaitersLocked resolves every pending waiter with err.
func (l *Log) failSyncWaitersLocked(err error) {
	for _, w := range l.syncWaiters {
		w.ch <- err
	}
	l.syncWaiters = nil
}

// startCommitter launches the background sync goroutine the policy needs.
func (l *Log) startCommitter() {
	switch l.cfg.Durability.Policy {
	case SyncGroup:
		l.syncWG.Add(1)
		go l.groupLoop()
	case SyncInterval:
		l.syncWG.Add(1)
		go l.intervalLoop()
	}
}

// stopCommitter stops the background sync goroutine and waits for it.
func (l *Log) stopCommitter() {
	l.stopOnce.Do(func() { close(l.stopSync) })
	l.syncWG.Wait()
}

// groupLoop is the SyncGroup committer: each kick (first unsynced append)
// opens a commit window; the window closes after GroupWindow or as soon as
// GroupBytes accumulate, and one fdatasync then covers every append that
// landed inside it.
func (l *Log) groupLoop() {
	defer l.syncWG.Done()
	window := l.cfg.Durability.GroupWindow
	for {
		select {
		case <-l.stopSync:
			return
		case <-l.syncKick:
		}
		t := time.NewTimer(window)
		select {
		case <-l.stopSync:
			t.Stop()
			return
		case <-l.syncUrgent:
			t.Stop()
		case <-t.C:
		}
		l.commit(false)
	}
}

// intervalLoop is the SyncInterval committer.
func (l *Log) intervalLoop() {
	defer l.syncWG.Done()
	t := time.NewTicker(l.cfg.Durability.Interval)
	defer t.Stop()
	for {
		select {
		case <-l.stopSync:
			return
		case <-t.C:
			l.commit(false)
		}
	}
}

// Flush fsyncs the active segment, advances the durability frontier, and
// persists a recovery point (see recoveryPoint).
func (l *Log) Flush() error { return l.commit(true) }

// commit is one group commit (or, with flush, an explicit Flush): a single
// fdatasync of the active segment covers every batch appended since the last
// sync (rolled segments are synced at roll time), and the acks parked behind
// it are released as soon as it lands. A recovery point rides on the sync
// only when it changes what recovery may trust: on the first sync after a
// roll or a truncate (cpDue), or on an explicit Flush. Other group commits
// are the fdatasync alone. Acks never wait for the recovery point: the
// frontier advances before it is written. The fsync itself runs outside l.mu
// — appends proceed concurrently; anything they add is simply not covered
// until the next sync.
func (l *Log) commit(flush bool) error {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	if !l.dirty && !flush {
		l.mu.Unlock()
		return nil
	}
	a := l.active()
	f, next, gen := a.file, a.nextOffset, l.truncGen
	var rp *recoveryPoint
	if l.recoveryPoints && (flush || l.cpDue) {
		p := l.recoveryPointLocked()
		rp = &p
		l.cpDue = false
	}
	batched := l.unsyncedBytes
	l.dirty = false
	l.dirtySinceNano.Store(0)
	l.unsyncedBytes = 0
	l.mu.Unlock()
	if l.met != nil && batched > 0 {
		// One fdatasync covers this many appended bytes: the group-commit
		// batch size distribution.
		l.met.groupBytes.Observe(batched)
	}

	if err := l.syncFile(f); err != nil {
		l.mu.Lock()
		if l.truncGen == gen {
			// A sync raced by segment surgery (truncate closed the file
			// under us) is stale, not failed; otherwise surface the error
			// to every parked ack and retry on the next kick.
			l.dirty = true
			l.dirtySinceNano.CompareAndSwap(0, time.Now().UnixNano())
			l.cpDue = l.cpDue || rp != nil
			l.failSyncWaitersLocked(err)
		}
		l.mu.Unlock()
		return err
	}
	l.mu.Lock()
	if l.truncGen == gen {
		l.advanceSyncedLocked(next)
	}
	l.mu.Unlock()
	l.lastSyncNano.Store(time.Now().UnixNano())
	if rp != nil {
		l.persistRecoveryPoint(*rp, gen)
	}
	return nil
}

// LastSyncTime returns when the log last made its contents durable (a sync,
// or recovery at open). The zero time means never.
func (l *Log) LastSyncTime() time.Time {
	n := l.lastSyncNano.Load()
	if n == 0 {
		return time.Time{}
	}
	return time.Unix(0, n)
}

// DurabilityLag reports how long the oldest unsynced append has been waiting
// for an fsync: 0 when everything appended is durable. Health checks alarm
// on this exceeding the configured sync cadence by a wide margin.
func (l *Log) DurabilityLag(now time.Time) time.Duration {
	n := l.dirtySinceNano.Load()
	if n == 0 {
		return 0
	}
	d := now.Sub(time.Unix(0, n))
	if d < 0 {
		return 0
	}
	return d
}

// Checkpoint file: the persisted durability frontier. Format is a single
// line "liquidcp v1 <segmentBase> <syncedBytes> <nextOffset> <crc32>"; the
// CRC self-guards the checkpoint against its own torn write (an invalid
// checkpoint just degrades recovery to a full scan, never to data loss).
const checkpointFile = "checkpoint"

type checkpoint struct {
	base int64 // active segment base offset at sync time
	pos  int64 // bytes of that segment covered by the sync
	next int64 // log end offset covered by the sync
}

func checkpointCRC(cp checkpoint) uint32 {
	return crc32.ChecksumIEEE([]byte(fmt.Sprintf("%d %d %d", cp.base, cp.pos, cp.next)))
}

func readCheckpointFile(dir string) (checkpoint, bool) {
	b, err := os.ReadFile(filepath.Join(dir, checkpointFile))
	if err != nil {
		return checkpoint{}, false
	}
	var cp checkpoint
	var crc uint32
	if _, err := fmt.Sscanf(string(b), "liquidcp v1 %d %d %d %d", &cp.base, &cp.pos, &cp.next, &crc); err != nil {
		return checkpoint{}, false
	}
	if crc != checkpointCRC(cp) || cp.base < 0 || cp.pos < 0 || cp.next < cp.base {
		return checkpoint{}, false
	}
	return cp, true
}

// recoveryPoint is what a restart may trust without rescanning: the
// checkpointed durability frontier plus the producer table as of it. Both
// are advisory — recovery trusts bytes below the checkpoint and CRC-scans
// and header-walks everything beyond it — so a stale recovery point only
// lengthens the scan. It is persisted on the first sync after a segment
// roll (which vouches for every sealed segment, so the scan after a crash
// stays within about one segment), after a truncate, on Flush, Close and
// Open; never for compacted logs, whose Open ignores both files.
type recoveryPoint struct {
	cp        checkpoint
	producers []byte // encoded producer snapshot covering cp.next
}

// recoveryPointLocked captures the recovery point of the current log end.
// The caller must make the active segment durable before persisting it.
func (l *Log) recoveryPointLocked() recoveryPoint {
	a := l.active()
	return recoveryPoint{
		cp:        checkpoint{base: a.baseOffset, pos: a.size, next: a.nextOffset},
		producers: encodeProducerSnapshot(l.producers, a.nextOffset),
	}
}

// persistRecoveryPoint writes rp unless a truncation (or compaction) has
// invalidated it since it was captured at gen — a stale checkpoint would let
// recovery trust bytes the surgery has since rewritten. A failed write
// re-arms cpDue so the next sync retries it. Never call while holding l.mu
// (cpMu is acquired before l.mu here).
func (l *Log) persistRecoveryPoint(rp recoveryPoint, gen uint64) (err error) {
	defer func() { // runs after cpMu is released
		if err != nil {
			l.mu.Lock()
			if l.truncGen == gen {
				l.cpDue = true
			}
			l.mu.Unlock()
		}
	}()
	if hook := l.cfg.Durability.CheckpointHook; hook != nil {
		if err := hook(); err != nil {
			return err
		}
	}
	l.cpMu.Lock()
	defer l.cpMu.Unlock()
	l.mu.RLock()
	stale := l.truncGen != gen
	l.mu.RUnlock()
	if stale {
		return nil
	}
	cp := rp.cp
	line := fmt.Sprintf("liquidcp v1 %d %d %d %d\n", cp.base, cp.pos, cp.next, checkpointCRC(cp))
	if err := commitFile(l.dir, checkpointFile, []byte(line)); err != nil {
		return err
	}
	return commitFile(l.dir, producerSnapshotFile, rp.producers)
}

// commitFile replaces dir/name with data crash-atomically: write a tmp file,
// fsync it, rename it over name, then fsync dir so the rename itself is
// durable.
func commitFile(dir, name string, data []byte) error {
	tmp := filepath.Join(dir, name+".tmp")
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, filepath.Join(dir, name)); err != nil {
		return err
	}
	return syncDir(dir)
}

// CheckpointInfo is the persisted durability frontier of a log directory.
type CheckpointInfo struct {
	SegmentBase int64 // active segment base at the recorded sync
	SyncedBytes int64 // bytes of that segment covered
	SyncedNext  int64 // log end offset covered
}

// ReadCheckpoint reads dir's durability checkpoint, reporting ok=false when
// absent or invalid (recovery then falls back to a full CRC scan).
func ReadCheckpoint(dir string) (CheckpointInfo, bool) {
	cp, ok := readCheckpointFile(dir)
	if !ok {
		return CheckpointInfo{}, false
	}
	return CheckpointInfo{SegmentBase: cp.base, SyncedBytes: cp.pos, SyncedNext: cp.next}, true
}

// CrashClose closes the log's file descriptors without flushing anything —
// the shutdown a power loss or SIGKILL produces, for recovery tests. Buffers
// the OS holds are NOT discarded (Go cannot drop the page cache), so tests
// pair this with file surgery that truncates back to the synced frontier.
// The instance is unusable afterwards.
func (l *Log) CrashClose() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	l.mu.Unlock()
	l.stopCommitter()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.failSyncWaitersLocked(ErrClosed)
	var first error
	for _, s := range l.segments {
		if err := s.close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
