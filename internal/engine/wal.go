package engine

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tip/internal/blade"
	"tip/internal/sql/ast"
	"tip/internal/temporal"
	"tip/internal/types"
)

// Commit-unit write-ahead logging. Between snapshots, every committed
// unit is appended to the log as one frame: an autocommit statement
// (DDL or DML) is a unit of one, an explicit transaction is every
// statement that succeeded between its BEGIN and COMMIT. Each statement
// carries the NOW it executed under, so a restart can replay it with
// identical temporal semantics. BEGIN and ROLLBACK are never logged:
// uncommitted work never reaches the log, so there is nothing to undo
// at recovery. Checkpoint writes a snapshot and truncates the log.
//
// The log is a redo log of statements, not of row changes: replay
// re-executes the SQL, a multi-statement unit as one transaction.
//
// Frame layout (length-prefixed, checksummed, epoch-stamped):
//
//	uvarint bodyLen
//	uint32  CRC32C of the rest of the body (little-endian)
//	uvarint epoch   — durability epoch; frames older than the
//	                  snapshot's epoch are skipped at replay
//	uvarint seq     — frame sequence number, consecutive within a log
//	payload: uvarint nStmts, then per statement:
//	         int64 now, str sql, uvarint nParams,
//	         (str name, str typeName, value)*  — names sorted, so
//	         identical runs produce byte-identical logs
//
// The checksum makes corruption anywhere in a frame detectable: replay
// applies every frame up to the first damaged one and surfaces ErrWAL
// instead of executing damaged SQL. A frame cut short by a crash (torn
// tail) ends replay cleanly. The epoch closes the checkpoint crash
// window: Checkpoint stamps the new snapshot with epoch+1 before
// truncating the log, so if the truncate never happens the stale frames
// are skipped rather than double-applied on top of the snapshot.
//
// Durability is a policy (SetDurability): SyncOnCheckpoint flushes to
// the OS on every append and fsyncs only at Checkpoint (an OS crash can
// lose the tail); SyncEveryAppend fsyncs before the commit returns,
// with concurrent appenders sharing one fsync (group commit);
// SyncGrouped bounds the loss window to an interval by fsyncing from a
// background syncer.

// walMaxFrame bounds a frame's decoded length. A corrupt length prefix
// must not turn into an unbounded allocation at replay; no legitimate
// statement payload approaches this.
const walMaxFrame = 64 << 20

// walCRC is the Castagnoli polynomial table (hardware-accelerated on
// most platforms).
var walCRC = crc32.MakeTable(crc32.Castagnoli)

// SyncPolicy selects when WAL appends are fsynced; see SetDurability.
type SyncPolicy int32

const (
	// SyncOnCheckpoint (the default) flushes appends to the OS but
	// fsyncs only at Checkpoint: commits survive a process crash, not
	// necessarily an OS crash or power loss.
	SyncOnCheckpoint SyncPolicy = iota
	// SyncEveryAppend fsyncs before a statement's Exec returns.
	// Concurrent appenders are batched into one fsync (group commit).
	SyncEveryAppend
	// SyncGrouped fsyncs from a background syncer at a fixed interval:
	// a power loss can take back at most the last interval's commits.
	SyncGrouped
)

// walSink is the file behind the log: an *os.File in production, a
// fault-injection wrapper (internal/iofault) in crash tests.
type walSink interface {
	io.Writer
	Sync() error
	Truncate(size int64) error
	Seek(offset int64, whence int) (int64, error)
	Close() error
}

// wal is the open log file.
type wal struct {
	mu sync.Mutex
	f  walSink
	w  *bufio.Writer
	// failed is the first append error, sticky: once an append fails
	// the log may end in a torn record, so no further records are
	// written — the file stays a consistent (replayable) prefix of the
	// in-memory history until Checkpoint truncates and heals it.
	failed error
	epoch  uint64 // stamped on new frames; bumped by Checkpoint (guarded by mu)
	seq    uint64 // last assigned frame seq (guarded by mu)

	// Group commit: appenders record the highest seq flushed to the
	// file; fsyncs are serialized on syncMu, and one fsync covers every
	// frame flushed before it started, so concurrent SyncEveryAppend
	// committers behind the same fsync all return without a second one.
	flushedSeq atomic.Uint64 // highest seq written through to f
	syncedSeq  atomic.Uint64 // highest seq known durable (fsynced)
	syncMu     sync.Mutex    // serializes fsyncs

	// subs are live replication subscribers (see SubscribeWAL). Guarded
	// by mu; frames are published in append order while the lock is held,
	// so every subscriber sees a gap-free suffix of the stream until its
	// buffer overruns (the sub is then closed and must re-catch-up from
	// the file).
	subs map[*WALSub]struct{}

	stop chan struct{} // closed by DisableWAL to end the group syncer
	done chan struct{} // closed when the syncer goroutine exits
}

// ErrWAL reports a malformed log: a frame whose checksum does not match
// its bytes, an impossible length, or a sequence gap. Replay applies
// everything before the damaged frame and stops.
var ErrWAL = errors.New("engine: corrupt WAL")

// ErrWALFailed reports that a unit committed in memory but could not
// be appended to the WAL (or, under SyncEveryAppend, not fsynced). The
// statement's result is still returned to the caller; the log stops
// growing so it remains a consistent prefix. Checkpoint clears the
// condition (the snapshot captures the state the log no longer covers).
var ErrWALFailed = errors.New("engine: WAL append failed; statement applied but not logged")

// SetDurability selects the WAL fsync policy. groupInterval is the
// background fsync cadence for SyncGrouped (ignored by the other
// policies; <=0 keeps the current interval, default 2ms). Safe to call
// before or after EnableWAL.
func (db *Database) SetDurability(p SyncPolicy, groupInterval time.Duration) {
	if groupInterval > 0 {
		db.syncInterval.Store(int64(groupInterval))
	}
	db.syncPolicy.Store(int32(p))
}

// Durability returns the current sync policy.
func (db *Database) Durability() SyncPolicy {
	return SyncPolicy(db.syncPolicy.Load())
}

// EnableWAL starts appending state-changing statements to path,
// creating the file if needed. Call Load and ReplayWAL first when
// recovering: they establish the durability epoch and the next frame
// sequence number that new appends continue from.
func (db *Database) EnableWAL(path string) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("engine: wal: %w", err)
	}
	if err := db.enableWALSink(f); err != nil {
		_ = f.Close()
		return err
	}
	return nil
}

// enableWALSink installs an already-open sink as the log. Split from
// EnableWAL so crash tests can inject a fault layer.
func (db *Database) enableWALSink(f walSink) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.wal != nil {
		return fmt.Errorf("engine: WAL already enabled")
	}
	w := &wal{
		f:     f,
		w:     bufio.NewWriter(f),
		epoch: db.epoch,
		seq:   db.walSeq,
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	w.flushedSeq.Store(w.seq)
	w.syncedSeq.Store(w.seq)
	db.wal = w
	go db.walSyncer(w)
	return nil
}

// DisableWAL stops logging, fsyncs what was appended and closes the
// file.
func (db *Database) DisableWAL() error {
	db.mu.Lock()
	w := db.wal
	db.wal = nil
	db.mu.Unlock()
	if w == nil {
		return nil
	}
	close(w.stop)
	<-w.done
	w.mu.Lock()
	defer w.mu.Unlock()
	for sub := range w.subs {
		delete(w.subs, sub)
		close(sub.ch)
	}
	flushErr := w.failed
	if flushErr == nil {
		flushErr = w.w.Flush()
	}
	if flushErr == nil {
		flushErr = w.f.Sync()
	}
	closeErr := w.f.Close()
	if flushErr != nil {
		return flushErr
	}
	return closeErr
}

// walSyncer is the background group-commit loop: under SyncGrouped it
// fsyncs any frames flushed since the last sync, bounding the loss
// window to the configured interval. It runs for every enabled WAL
// (the off-policy tick is a couple of atomic loads) so switching
// policies at runtime needs no goroutine management.
func (db *Database) walSyncer(w *wal) {
	defer close(w.done)
	for {
		d := time.Duration(db.syncInterval.Load())
		timer := time.NewTimer(d)
		select {
		case <-w.stop:
			timer.Stop()
			return
		case <-timer.C:
		}
		if SyncPolicy(db.syncPolicy.Load()) != SyncGrouped {
			continue
		}
		if target := w.flushedSeq.Load(); target > w.syncedSeq.Load() {
			w.mu.Lock()
			broken := w.failed != nil
			w.mu.Unlock()
			if !broken {
				_ = db.walSyncTo(w, target) // a failed fsync is caught by the next strict append or Checkpoint
			}
		}
	}
}

// walSyncTo makes frame seq durable: it fsyncs unless a concurrent
// fsync already covered it. One fsync covers every frame flushed before
// it started, which is what batches concurrent committers.
func (db *Database) walSyncTo(w *wal, seq uint64) error {
	if w.syncedSeq.Load() >= seq {
		return nil
	}
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	if w.syncedSeq.Load() >= seq {
		return nil
	}
	target := w.flushedSeq.Load()
	start := time.Now()
	err := w.f.Sync()
	if o := db.obs; o.enabled() {
		o.walFsyncs.Inc()
		o.walFsyncLat.Observe(time.Since(start).Nanoseconds())
	}
	if err != nil {
		return err
	}
	w.syncedSeq.Store(target)
	return nil
}

// Checkpoint writes a snapshot under the next durability epoch, then
// truncates the log: recovery needs only the snapshot plus the (empty)
// log. The epoch ordering closes the crash window between the two
// steps — a snapshot at epoch e+1 makes replay skip every frame still
// stamped e, so a crash before the truncate cannot double-apply them.
// Writers are quiesced (db.ckpt held exclusively) so no statement
// straddles the snapshot with its WAL frame.
func (db *Database) Checkpoint(snapshotPath string) error {
	db.ckpt.Lock()
	defer db.ckpt.Unlock()
	db.mu.RLock()
	w := db.wal
	epoch := db.epoch
	db.mu.RUnlock()
	if w == nil {
		// No log to truncate: a plain consistent snapshot at the
		// current epoch.
		return db.save(snapshotPath, epoch)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	newEpoch := w.epoch + 1
	if err := db.save(snapshotPath, newEpoch); err != nil {
		return err
	}
	// The snapshot at newEpoch is on disk: commit the epoch so frames
	// appended from here on replay on top of it, even if the truncate
	// below fails — stale frames stay skippable either way.
	w.epoch = newEpoch
	db.mu.Lock()
	db.epoch = newEpoch
	db.mu.Unlock()
	// A failed WAL may hold a poisoned buffered writer and a torn tail
	// on disk; the snapshot supersedes both, so drop the buffer and let
	// the truncate heal the log.
	w.w.Reset(w.f)
	if err := w.f.Truncate(0); err != nil {
		return fmt.Errorf("engine: checkpoint: %w", err)
	}
	if _, err := w.f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("engine: checkpoint: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("engine: checkpoint: %w", err)
	}
	w.failed = nil
	// Everything logged so far is inside the snapshot: nothing awaits
	// an fsync.
	w.flushedSeq.Store(w.seq)
	w.syncedSeq.Store(w.seq)
	// The truncate discarded every frame up to w.seq: replication
	// catch-up below that point must go through a snapshot (WALBase).
	db.mu.Lock()
	db.walBase = w.seq
	db.mu.Unlock()
	return nil
}

// walStmt is one logged statement of a unit.
type walStmt struct {
	now    temporal.Chronon
	sql    string
	params map[string]types.Value
}

// appendWALStmt serializes one statement onto a unit payload.
// Parameter names are sorted so identical runs produce byte-identical
// logs (map iteration order must not leak into the file).
func appendWALStmt(buf []byte, now temporal.Chronon, sql string, params map[string]types.Value) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, uint64(now))
	buf = appendString(buf, sql)
	buf = binary.AppendUvarint(buf, uint64(len(params)))
	names := make([]string, 0, len(params))
	for name := range params {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := params[name]
		buf = appendString(buf, name)
		tname := ""
		if v.T != nil && v.T.Kind != types.KindNull {
			tname = v.T.Name
		}
		buf = appendString(buf, tname)
		buf = v.AppendBinary(buf)
	}
	return buf
}

// encodeWALFrameBody builds a frame body — everything after the length
// prefix: {CRC32C, epoch, seq, payload}. The body is the unit shipped
// verbatim to replication subscribers (MsgWALFrame), so a replica
// verifies the same checksum the local replay would.
func encodeWALFrameBody(epoch, seq uint64, payload []byte) []byte {
	var inner []byte
	inner = binary.AppendUvarint(inner, epoch)
	inner = binary.AppendUvarint(inner, seq)
	inner = append(inner, payload...)
	body := make([]byte, 0, len(inner)+4)
	body = binary.LittleEndian.AppendUint32(body, crc32.Checksum(inner, walCRC))
	return append(body, inner...)
}

// appendWALFrame wraps a payload into a length-prefixed checksummed
// frame under the given epoch and seq.
func appendWALFrame(dst []byte, epoch, seq uint64, payload []byte) []byte {
	body := encodeWALFrameBody(epoch, seq, payload)
	dst = binary.AppendUvarint(dst, uint64(len(body)))
	return append(dst, body...)
}

// walFrame is one decoded log frame.
type walFrame struct {
	epoch   uint64
	seq     uint64
	payload []byte
}

// decodeWALFrame validates and splits a frame body (everything after
// the length prefix). The payload aliases body.
func decodeWALFrame(body []byte) (walFrame, error) {
	if len(body) < 4 {
		return walFrame{}, fmt.Errorf("%w: short frame", ErrWAL)
	}
	sum := binary.LittleEndian.Uint32(body)
	rest := body[4:]
	if crc32.Checksum(rest, walCRC) != sum {
		return walFrame{}, fmt.Errorf("%w: bad checksum", ErrWAL)
	}
	epoch, n := binary.Uvarint(rest)
	if n <= 0 {
		return walFrame{}, fmt.Errorf("%w: epoch", ErrWAL)
	}
	rest = rest[n:]
	seq, n := binary.Uvarint(rest)
	if n <= 0 {
		return walFrame{}, fmt.Errorf("%w: seq", ErrWAL)
	}
	return walFrame{epoch: epoch, seq: seq, payload: rest[n:]}, nil
}

// appendFrame appends one committed unit's payload to w as the next
// frame and publishes it to the replication subscribers. It returns
// the frame's seq for syncFrame; nil w (no WAL) logs nothing.
func (db *Database) appendFrame(w *wal, payload []byte) (uint64, error) {
	if w == nil {
		return 0, nil
	}
	obsOn := db.obs.enabled()
	seq, size, err := func() (uint64, int, error) {
		w.mu.Lock()
		defer w.mu.Unlock()
		if w.failed != nil {
			return 0, 0, fmt.Errorf("%w (first failure: %v)", ErrWALFailed, w.failed)
		}
		body := encodeWALFrameBody(w.epoch, w.seq+1, payload)
		var hdr [binary.MaxVarintLen64]byte
		hn := binary.PutUvarint(hdr[:], uint64(len(body)))
		if _, err := w.w.Write(hdr[:hn]); err != nil {
			w.failed = err
			return 0, 0, fmt.Errorf("%w: %v", ErrWALFailed, err)
		}
		if _, err := w.w.Write(body); err != nil {
			w.failed = err
			return 0, 0, fmt.Errorf("%w: %v", ErrWALFailed, err)
		}
		if err := w.w.Flush(); err != nil {
			w.failed = err
			return 0, 0, fmt.Errorf("%w: %v", ErrWALFailed, err)
		}
		w.seq++
		w.flushedSeq.Store(w.seq)
		w.publishLocked(ReplFrame{Epoch: w.epoch, Seq: w.seq, Body: body})
		return w.seq, hn + len(body), nil
	}()
	if err != nil {
		if obsOn {
			db.obs.walFailures.Inc()
		}
		return 0, err
	}
	if obsOn {
		db.obs.walAppends.Inc()
		db.obs.walBytes.Add(uint64(size))
	}
	return seq, nil
}

// syncFrame makes frame seq durable before the commit returns when the
// policy is SyncEveryAppend.
func (db *Database) syncFrame(w *wal, seq uint64) error {
	if seq == 0 || SyncPolicy(db.syncPolicy.Load()) != SyncEveryAppend {
		return nil
	}
	if err := db.walSyncTo(w, seq); err != nil {
		w.mu.Lock()
		if w.failed == nil {
			w.failed = err
		}
		w.mu.Unlock()
		if db.obs.enabled() {
			db.obs.walFailures.Inc()
		}
		return fmt.Errorf("%w: fsync: %v", ErrWALFailed, err)
	}
	return nil
}

// ReplayWAL re-executes the units logged in path against this database
// (typically right after loading the matching snapshot). Frames are
// streamed through a bounded buffer, so recovery memory scales with the
// largest record, not the log size. Each statement runs under the NOW
// it originally executed with; frames from an epoch older than the
// loaded snapshot's are skipped (they are already inside the snapshot).
// A truncated trailing record (torn write at crash) ends replay
// cleanly; a checksum mismatch or sequence gap stops replay at the last
// valid frame and surfaces ErrWAL.
func (db *Database) ReplayWAL(path string) error {
	return db.ReplayWALRange(path, 0, ^uint64(0))
}

// ReplayWALRange replays only the frames with afterSeq < seq ≤ upToSeq.
// Every frame up to upToSeq is still scanned, checksummed and
// gap-checked — the bounds select which statements re-execute, not how
// much of the log is validated — and epoch-skipping applies as in
// ReplayWAL. The full range (0, ^uint64(0)) is crash recovery; a
// tighter upToSeq reconstructs the database as of a specific frame for
// point-in-time debugging, and a raised afterSeq resumes replay on a
// state already caught up through afterSeq (the replication catch-up
// path). After a bounded replay the database reflects a log prefix;
// enabling the WAL on it and appending would fork history, so treat
// point-in-time states as read-only.
func (db *Database) ReplayWALRange(path string, afterSeq, upToSeq uint64) error {
	f, err := os.Open(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil
		}
		return fmt.Errorf("engine: wal replay: %w", err)
	}
	defer f.Close()
	db.mu.RLock()
	snapEpoch := db.epoch
	db.mu.RUnlock()

	sess := db.NewReplicaSession()

	r := bufio.NewReaderSize(f, 64<<10)
	var (
		body     []byte // reused frame buffer
		firstSeq uint64
		lastSeq  uint64
		haveSeq  bool
		frameIdx int
		maxEpoch = snapEpoch
	)
	for {
		n, err := binary.ReadUvarint(r)
		if err != nil {
			if errors.Is(err, io.EOF) {
				return db.finishReplay(maxEpoch, firstSeq, lastSeq, haveSeq)
			}
			return fmt.Errorf("%w: frame %d length (after seq %d): %v", ErrWAL, frameIdx+1, lastSeq, err)
		}
		if n > walMaxFrame {
			return fmt.Errorf("%w: frame %d length %d (after seq %d)", ErrWAL, frameIdx+1, n, lastSeq)
		}
		if uint64(cap(body)) < n {
			body = make([]byte, n)
		}
		body = body[:n]
		if _, err := io.ReadFull(r, body); err != nil {
			// Torn tail: the crash cut the last frame short. Everything
			// before it replayed.
			return db.finishReplay(maxEpoch, firstSeq, lastSeq, haveSeq)
		}
		frameIdx++
		fr, err := decodeWALFrame(body)
		if err != nil {
			return fmt.Errorf("frame %d (after seq %d): %w", frameIdx, lastSeq, err)
		}
		if haveSeq && fr.seq != lastSeq+1 {
			return fmt.Errorf("%w: frame %d seq %d, want %d", ErrWAL, frameIdx, fr.seq, lastSeq+1)
		}
		if !haveSeq {
			firstSeq = fr.seq
		}
		lastSeq, haveSeq = fr.seq, true
		if fr.seq > upToSeq {
			prev := fr.seq - 1
			return db.finishReplay(maxEpoch, firstSeq, prev, prev >= firstSeq)
		}
		if fr.epoch > maxEpoch {
			maxEpoch = fr.epoch
		}
		if fr.epoch < snapEpoch {
			// Pre-checkpoint frame: its effect is inside the snapshot
			// (the checkpoint crashed before truncating the log).
			continue
		}
		if fr.seq <= afterSeq {
			// Already applied (replica catch-up resuming mid-log).
			continue
		}
		if err := db.replayRecord(sess, fr.payload); err != nil {
			return err
		}
	}
}

// finishReplay records where the log started and ended so EnableWAL
// continues the epoch and sequence numbering from there and replication
// knows the oldest frame still on disk (WALBase).
func (db *Database) finishReplay(maxEpoch, firstSeq, lastSeq uint64, haveSeq bool) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if maxEpoch > db.epoch {
		db.epoch = maxEpoch
	}
	if haveSeq && lastSeq > db.walSeq {
		db.walSeq = lastSeq
	}
	if haveSeq {
		db.walBase = firstSeq - 1
	} else {
		db.walBase = db.walSeq
	}
	return nil
}

// decodeWALPayload parses a frame payload into the unit's statements,
// each with its original NOW, SQL text and parameters. Type names
// resolve through reg.
func decodeWALPayload(reg *blade.Registry, rec []byte) ([]walStmt, error) {
	n, k := binary.Uvarint(rec)
	if k <= 0 || n == 0 || n > uint64(len(rec)) {
		return nil, fmt.Errorf("%w: statement count", ErrWAL)
	}
	rec = rec[k:]
	stmts := make([]walStmt, n)
	for i := range stmts {
		st := &stmts[i]
		if len(rec) < 8 {
			return nil, fmt.Errorf("%w: short record", ErrWAL)
		}
		st.now = temporal.Chronon(binary.LittleEndian.Uint64(rec))
		var err error
		if st.sql, rec, err = readString(rec[8:]); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrWAL, err)
		}
		nParams, k := binary.Uvarint(rec)
		if k <= 0 || nParams > uint64(len(rec)) {
			return nil, fmt.Errorf("%w: param count", ErrWAL)
		}
		rec = rec[k:]
		if nParams > 0 {
			st.params = make(map[string]types.Value, nParams)
		}
		for range nParams {
			var name, tname string
			if name, rec, err = readString(rec); err != nil {
				return nil, fmt.Errorf("%w: %v", ErrWAL, err)
			}
			if tname, rec, err = readString(rec); err != nil {
				return nil, fmt.Errorf("%w: %v", ErrWAL, err)
			}
			t := types.TNull
			if tname != "" {
				var ok bool
				if t, ok = reg.LookupType(tname); !ok {
					return nil, fmt.Errorf("%w: unknown type %s", ErrWAL, tname)
				}
			}
			var v types.Value
			if t.Kind == types.KindNull {
				if len(rec) < 1 {
					return nil, fmt.Errorf("%w: null value", ErrWAL)
				}
				v, rec = types.NewNull(types.TNull), rec[1:]
			} else if v, rec, err = types.DecodeValue(t, rec); err != nil {
				return nil, fmt.Errorf("%w: %v", ErrWAL, err)
			}
			st.params[name] = v
		}
	}
	if len(rec) != 0 {
		return nil, fmt.Errorf("%w: trailing bytes in record", ErrWAL)
	}
	return stmts, nil
}

// replayRecord applies one logged unit through sess, a replica session
// (exempt from the read-only gate; it never logs). A multi-statement
// unit runs as one transaction, so readers of the replaying database
// never see it half-applied either. Crash recovery and replica apply
// share this path.
func (db *Database) replayRecord(sess *Session, rec []byte) error {
	stmts, err := decodeWALPayload(db.reg, rec)
	if err != nil {
		return err
	}
	if len(stmts) > 1 {
		sess.tx = db.tm.Begin()
	}
	for _, st := range stmts {
		// Replay under the original NOW so NOW-relative semantics match.
		// Parsing goes through the session cache: a replica applying a
		// stream of repeated statements pays the parser once per shape.
		sess.nowOverride = &st.now
		stmt, err := sess.parseCached(st.sql)
		if err == nil {
			_, err = sess.run(stmt, st.sql, st.params)
		}
		if err != nil {
			sess.Close()
			return fmt.Errorf("engine: wal replay of %q: %w", st.sql, err)
		}
	}
	if sess.tx != nil {
		_, err = sess.run(&ast.Commit{}, "COMMIT", nil)
	}
	sess.nowOverride = nil
	return err
}
