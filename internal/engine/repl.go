package engine

import "errors"

// Replica-side engine support. A replica database is an ordinary
// engine.Database switched read-only: client sessions can run queries
// (MVCC snapshot reads take no table locks, so they ride alongside the
// apply stream), while state-changing statements get ErrReadOnly. The
// one writer is the replication apply session, which replays WAL frame
// payloads shipped from the primary through the same replayRecord path
// crash recovery uses — a replica is recovery that never finishes.

// ErrReadOnly reports a state-changing statement sent to a read-only
// replica. Writes belong on the primary.
var ErrReadOnly = errors.New("engine: read-only replica: writes must go to the primary")

// SetReadOnly switches the database in or out of read-only mode. In
// read-only mode, writing statements (DDL, DML) from ordinary sessions
// fail with ErrReadOnly; the replication apply session
// (NewReplicaSession) is exempt.
func (db *Database) SetReadOnly(on bool) { db.readOnly.Store(on) }

// ReadOnly reports whether the database is in read-only replica mode.
func (db *Database) ReadOnly() bool { return db.readOnly.Load() }

// NewReplicaSession opens a session that applies already-logged units:
// the replication apply session, the one session allowed to change
// state on a read-only replica (WAL replay uses one too). It never
// logs. The caller (internal/repl) serialises all use of it.
func (db *Database) NewReplicaSession() *Session {
	s := db.NewSession()
	s.replApply = true
	return s
}

// ApplyWALPayload re-executes one shipped WAL frame payload (the bytes
// after the frame header) on the replica: one committed unit, under
// each statement's original NOW, published as one commit. The session
// must come from NewReplicaSession and frames must be applied in seq
// order — the caller owns that bookkeeping.
func (s *Session) ApplyWALPayload(payload []byte) error {
	return s.db.replayRecord(s, payload)
}

// ReplicationSnapshot encodes a consistent snapshot for replica
// bootstrap and returns it with the epoch it carries and the WAL seq it
// reflects: a replica that loads the data and subscribes from seq sees
// every committed unit exactly once. Writers are quiesced on the
// checkpoint gate while the position is read and the tables encoded,
// so no unit straddles the snapshot and its WAL frame. Open
// transactions need no special care: their writes are neither in the
// published versions nor in the log until their COMMIT frame.
func (db *Database) ReplicationSnapshot() (epoch, seq uint64, data []byte) {
	db.ckpt.Lock()
	defer db.ckpt.Unlock()
	db.mu.RLock()
	epoch = db.epoch
	data = db.encodeSnapshot(epoch)
	w := db.wal
	seq = db.walSeq
	db.mu.RUnlock()
	if w != nil {
		seq = w.flushedSeq.Load()
	}
	return epoch, seq, data
}

// LoadReplicaSnapshot replaces the database's entire contents with a
// snapshot shipped from the primary (replica bootstrap and
// re-bootstrap). Unlike Load it accepts a non-empty database: the old
// catalog and tables are swapped out atomically under the catalog lock,
// and in-flight snapshot reads keep their pinned versions. Refused
// while a WAL is enabled — a replica's durability is the primary's.
func (db *Database) LoadReplicaSnapshot(data []byte) error {
	return db.loadSnapshot(data, true)
}
