package engine

import (
	"encoding/binary"
	"fmt"

	"tip/internal/exec"
	"tip/internal/sql/ast"
	"tip/internal/temporal"
	"tip/internal/types"
)

// Commit units. A unit is what one commit publishes and one WAL frame
// carries: an autocommit statement, or an explicit transaction
// (BEGIN … COMMIT). Each table the unit writes gets a private overlay
// (exec.TableWriter) its statements build on. Commit appends the
// unit's frame, then installs every overlay under one fresh
// version-clock sequence and under the horizon tracker's latch, so no
// reader pins a half-installed multi-table commit. ROLLBACK, a wait-die
// abort and Session.Close just drop the overlays. The unit holds the
// write lock of every table it writes until it ends (see locks.go).
//
// Recovery and replicas redo units in commit order, so a logged
// statement must read at redo what it read live. A table the unit only
// reads is not locked: another unit may commit to it, or DDL drop it,
// first. Commit therefore fails with ErrConflict unless every version
// a logged statement read from outside the unit is still published;
// check, WAL append and install are one step under Database.commitMu.

// unit is a session's open commit unit.
type unit struct {
	locks    []*tableLock                  // write locks, held until the unit ends
	writes   map[string]*exec.TableWriter  // overlays by lower-cased table name
	reads    map[string]*exec.TableVersion // published versions logged statements read
	firstSeq uint64                        // seq of the unit's first writer statement
	n        int                           // successful write statements
	logged   bool                          // a WAL was on at the first one: log the unit
	log      []byte                        // the statements, encoded for the frame
}

// record adds a successful write statement to the session's unit,
// noting the first version of each table outside the unit it read. The
// caller holds the catalog lock (it guards the WAL handle) and the
// statement's pinned snapshots.
func (s *Session) record(now temporal.Chronon, sql string, params map[string]types.Value) {
	u := &s.u
	if u.n == 0 {
		u.logged = s.db.wal != nil && !s.replApply
	}
	if u.logged {
		u.log = appendWALStmt(u.log, now, sql, params)
		for name, v := range s.snaps {
			if _, own := u.writes[name]; !own && u.reads[name] == nil {
				if u.reads == nil {
					u.reads = make(map[string]*exec.TableVersion)
				}
				u.reads[name] = v
			}
		}
	}
	u.n++
}

// readsCurrent reports whether every version the unit's logged
// statements read is still published (not superseded, not dropped).
func (s *Session) readsCurrent() bool {
	for name, v := range s.u.reads {
		tbl, ok := s.db.tables[name]
		if !ok || tbl.Snapshot() != v {
			return false
		}
	}
	return true
}

// isDML reports whether a statement writes rows.
func isDML(stmt ast.Statement) bool {
	switch stmt.(type) {
	case *ast.Insert, *ast.Update, *ast.Delete:
		return true
	}
	return false
}

// errStaleRead reports a failed read check (see above).
var errStaleRead = fmt.Errorf("%w: a table the transaction read changed before it committed", ErrConflict)

// endUnit ends the session's unit. With commit set and at least one
// successful statement, the unit's reads are checked (see above), its
// frame is appended to the WAL (if one was on when the unit first
// wrote) and its overlays are installed; otherwise, or when the check
// fails (errStaleRead), they are dropped. Either way its locks are
// released. It returns the WAL and frame seq still to be made durable
// (see syncFrame). A committing caller holds the checkpoint gate and
// the catalog lock.
func (s *Session) endUnit(commit bool) (*wal, uint64, error) {
	u := &s.u
	db := s.db
	var w *wal
	var seq uint64
	var err error
	installed := false
	if commit && u.n > 0 {
		db.commitMu.Lock()
		if installed = s.readsCurrent(); installed {
			if u.logged {
				w = db.wal
				payload := binary.AppendUvarint(make([]byte, 0, len(u.log)+binary.MaxVarintLen64), uint64(u.n))
				seq, err = db.appendFrame(w, append(payload, u.log...))
			}
			c := db.vclock.Add(1)
			h := db.hz
			h.mu.Lock()
			for _, tw := range u.writes {
				tw.Commit(c)
			}
			h.mu.Unlock()
		} else {
			err = errStaleRead
		}
		db.commitMu.Unlock()
	}
	if !installed {
		for _, tw := range u.writes {
			tw.Discard()
		}
	}
	for _, l := range u.locks {
		l.release()
	}
	clear(u.writes)
	clear(u.reads)
	u.locks = u.locks[:0]
	u.firstSeq = 0
	u.log = u.log[:0]
	u.n = 0
	return w, seq, err
}
