package engine

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"tip/internal/exec"
	"tip/internal/sql/ast"
)

// Locking and snapshot acquisition. The catalog lock (Database.mu)
// guards the schema, the tables/locks maps and the WAL handle; every
// table carries a write lock (tableLock) owned by one commit unit at a
// time. A statement's footprint is decided up front from its AST
// (exec.StatementTables), before any shared state is touched:
//
//   - DDL takes the catalog lock exclusively and needs nothing else
//     (exclusive catalog hold implies no statement is in flight, so DDL
//     may install new table versions directly). It refuses a table
//     whose write lock an open transaction holds: that transaction's
//     overlay was built on the table's current shape.
//   - Everything that binds rows takes the catalog lock shared, then
//     the write lock of the table it writes. Read tables take no lock
//     at all: the statement pins an immutable version snapshot of
//     every footprint table instead (captureSnaps), so one long scan
//     never blocks a writer and vice versa.
//   - COMMIT takes the catalog lock shared; BEGIN, ROLLBACK and
//     SET NOW = DEFAULT lock nothing.
//
// A unit keeps every table write lock it takes until it ends: an
// autocommit statement at its own end, a transaction at COMMIT or
// ROLLBACK. Transactions can therefore ask for locks in any order, and
// waiting is wait-die: a transaction that already holds a lock and asks
// for one held by an older transaction is aborted with ErrConflict
// instead of waiting, so waits only ever run from older to younger and
// can never close a cycle. A unit that holds nothing (an autocommit
// statement, or a transaction's first write) always waits. A waiter
// drops the catalog lock and the checkpoint gate while it waits, so the
// holder's next statement, its COMMIT, DDL and Checkpoint all proceed.
//
// Write locks are only ever taken while the catalog lock is held
// shared (a waiter waits for the lock to come free, then re-takes the
// catalog lock and tries again), and autocommit units release theirs
// before the catalog lock. So under the exclusive catalog lock a held
// write lock always belongs to an open transaction — which is how DDL
// recognises one.

// ErrConflict reports that a transaction was aborted to break a
// possible lock-order deadlock or because a table it read changed
// before it committed (see unit.go), or that DDL met a table an open
// transaction writes. Nothing of the aborted transaction or statement
// was applied; retrying it is safe.
var ErrConflict = errors.New("engine: lock conflict; retry the transaction")

// autocommitTicket is the wait-die ticket of autocommit units. They
// never wait while holding a lock, so every transaction may wait for
// them: they rank as younger than any transaction.
const autocommitTicket = ^uint64(0)

// tableLock is one table's write lock. owner is the holding unit's
// wait-die ticket (its transaction id; smaller is older), 0 when free.
type tableLock struct {
	mu    sync.Mutex
	owner uint64
	freed chan struct{} // closed by the next release; nil until someone waits
}

// tryAcquire takes the lock if it is free.
func (l *tableLock) tryAcquire(ticket uint64) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.owner != 0 {
		return false
	}
	l.owner = ticket
	return true
}

// lockPoll is how often a lock waiter re-checks its statement's cancel
// token, so MsgCancel and statement timeouts also end lock waits.
const lockPoll = 5 * time.Millisecond

// waitFree blocks until the lock is free, without taking it. It fails
// with ErrConflict when mayDie is set and the holder is older than
// ticket, and with the typed cancellation error once cancel fires.
func (l *tableLock) waitFree(ticket uint64, mayDie bool, cancel *exec.Token) error {
	for {
		l.mu.Lock()
		if l.owner == 0 {
			l.mu.Unlock()
			return nil
		}
		if mayDie && l.owner < ticket {
			l.mu.Unlock()
			return ErrConflict
		}
		if l.freed == nil {
			l.freed = make(chan struct{})
		}
		freed := l.freed
		l.mu.Unlock()
		select {
		case <-freed:
		case <-time.After(lockPoll):
			if err := cancel.Err(); err != nil {
				return err
			}
		}
	}
}

// release frees the lock and wakes its waiters.
func (l *tableLock) release() {
	l.mu.Lock()
	l.owner = 0
	if l.freed != nil {
		close(l.freed)
		l.freed = nil
	}
	l.mu.Unlock()
}

// busy reports whether a unit holds the lock.
func (l *tableLock) busy() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.owner != 0
}

// lockFor acquires every lock stmt needs, pins the statement's table
// snapshots, and returns the matching release function.
func (s *Session) lockFor(stmt ast.Statement) (func(), error) {
	db := s.db
	switch st := stmt.(type) {
	case *ast.CreateTable, *ast.DropTable, *ast.CreateIndex, *ast.DropIndex:
		db.mu.Lock()
		return db.mu.Unlock, nil
	case *ast.Commit:
		// Publication reads the WAL handle the catalog lock guards.
		db.mu.RLock()
		return db.mu.RUnlock, nil
	case *ast.Begin, *ast.Rollback:
		return func() {}, nil
	case *ast.SetNow:
		if st.Value == nil {
			return func() {}, nil
		}
	}
	reads, writes := exec.StatementTables(stmt)
	return s.lockTables(reads, writes)
}

// lockTables takes the catalog lock shared plus the write locks of the
// written tables, then pins version snapshots of the whole footprint
// (written tables after their lock is held, so the pinned version is
// the latest, or the unit's own overlay), and returns the release
// function. Names must be lower-cased, reads and writes disjoint (as
// exec.StatementTables reports them); names without a registered table
// are skipped — the statement will fail resolution under the catalog
// lock anyway.
func (s *Session) lockTables(reads, writes []string) (func(), error) {
	db := s.db
	db.mu.RLock()
	names := make([]string, 0, len(reads)+len(writes))
	for i, t := range append(writes, reads...) {
		if _, ok := db.locks[t]; !ok {
			continue
		}
		names = append(names, t)
		if i < len(writes) {
			if err := s.lockTable(t); err != nil {
				db.mu.RUnlock()
				return nil, err
			}
		}
		if db.obs.enabled() {
			if to := db.obs.tableOf(t); i < len(writes) {
				to.writes.Inc()
			} else {
				to.reads.Inc()
			}
		}
	}
	s.captureSnaps(names)
	return func() {
		s.releaseSnaps()
		db.mu.RUnlock()
	}, nil
}

// lockTable takes table t's write lock for the session's unit unless
// the unit already holds it. The caller holds the catalog lock and the
// checkpoint gate shared; both are dropped while waiting and re-taken
// before returning.
func (s *Session) lockTable(t string) error {
	db := s.db
	ticket := autocommitTicket
	if s.tx != nil {
		ticket = uint64(s.tx.ID)
	}
	for {
		l, ok := db.locks[t]
		if !ok {
			return nil
		}
		for _, held := range s.u.locks {
			if held == l {
				return nil
			}
		}
		if l.tryAcquire(ticket) {
			s.u.locks = append(s.u.locks, l)
			return nil
		}
		db.mu.RUnlock()
		db.ckpt.RUnlock()
		err := l.waitFree(ticket, len(s.u.locks) > 0, &s.cancel)
		db.ckpt.RLock()
		db.mu.RLock()
		if err != nil {
			return err
		}
	}
}

// checkNoOverlay refuses DDL on a table an open transaction writes:
// the transaction's overlay was built on the table's current shape, and
// its commit frame must replay against that shape. The caller holds the
// catalog lock exclusively, so a held write lock means an open
// transaction (see above).
func (s *Session) checkNoOverlay(table string) error {
	if l, ok := s.db.locks[strings.ToLower(table)]; ok && l.busy() {
		return fmt.Errorf("%w: table %s has uncommitted writes in an open transaction", ErrConflict, table)
	}
	return nil
}

// isDDL reports whether a statement reshapes the schema (and must bump
// the catalog generation on success).
func isDDL(stmt ast.Statement) bool {
	switch stmt.(type) {
	case *ast.CreateTable, *ast.DropTable, *ast.CreateIndex, *ast.DropIndex:
		return true
	}
	return false
}
