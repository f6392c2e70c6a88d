package engine

import (
	"strings"
	"sync"

	"tip/internal/exec"
)

// MVCC bookkeeping. The version clock (Database.vclock) stamps every
// writer statement and every commit; a commit publishes immutable table
// versions carrying its sequence, and readers pin versions per
// statement instead of taking table read locks. The horizon tracker
// knows which old sequences in-flight statement snapshots still reach
// (their dead hash-index postings must not be reclaimed) and hands
// writers the oldest one as their reclamation horizon.

// horizonTracker records in-flight statement snapshots. Its latch also
// orders publication: captureSnaps pins a statement's versions and
// commits install theirs under it, so a reader never sees a
// multi-table commit half-installed. It is a short mutex-guarded
// registry, not a lock table: nothing waits under it.
type horizonTracker struct {
	mu      sync.Mutex
	readers map[*Session]uint64 // in-flight statement → min pinned seq
}

// min returns the oldest sequence still reachable, or cur when no
// registered statement reaches below it. Sessions register one
// statement at a time, so the map stays small.
func (h *horizonTracker) min(cur uint64) uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	m := cur
	for _, seq := range h.readers {
		if seq < m {
			m = seq
		}
	}
	return m
}

// beginWrite opens the current statement's writer on tbl, inside the
// unit's overlay for it, stamped with a fresh version-clock sequence.
// The unit must hold the table's write lock.
//
// The reclamation horizon is capped below the unit's first sequence:
// hash postings an earlier statement of the transaction killed are
// stamped with that statement's sequence and must survive until COMMIT
// or ROLLBACK, because rollback has to find and revert them.
func (s *Session) beginWrite(tbl *exec.Table) *exec.TableWriter {
	key := strings.ToLower(tbl.Meta.Name)
	w, ok := s.u.writes[key]
	if !ok {
		w = tbl.BeginWrite()
		if s.u.writes == nil {
			s.u.writes = make(map[string]*exec.TableWriter)
		}
		s.u.writes[key] = w
	}
	seq := s.db.vclock.Add(1)
	if s.u.firstSeq == 0 {
		s.u.firstSeq = seq
	}
	w.BeginStmt(seq, s.db.hz.min(s.u.firstSeq-1))
	s.stmtW = w
	return w
}

// captureSnaps pins a consistent set of table versions for the named
// footprint tables (lower-cased; unknown names are skipped) and
// registers the statement with the horizon tracker so no writer
// reclaims state these snapshots can still see. A table the session's
// unit writes is pinned at its overlay, so a transaction reads its own
// writes. Pinning and registration happen under the tracker's latch,
// which commits also install under, so the pinned set is one commit
// boundary and every later reclamation decision sees the registration.
// The caller must hold the catalog lock at least shared and must call
// releaseSnaps when the statement finishes.
func (s *Session) captureSnaps(names []string) {
	if len(names) == 0 {
		return
	}
	if s.snaps == nil {
		s.snaps = make(map[string]*exec.TableVersion, len(names))
	}
	h := s.db.hz
	h.mu.Lock()
	defer h.mu.Unlock()
	minSeq := s.db.vclock.Load()
	for _, name := range names {
		tbl, ok := s.db.tables[name]
		if !ok {
			continue
		}
		v := tbl.Snapshot()
		if w, ok := s.u.writes[name]; ok {
			v = w.Version()
		}
		s.snaps[name] = v
		if v.Seq < minSeq {
			minSeq = v.Seq
		}
	}
	if len(s.snaps) > 0 {
		h.readers[s] = minSeq
	}
}

// releaseSnaps drops the statement's pinned snapshots and horizon
// registration.
func (s *Session) releaseSnaps() {
	if len(s.snaps) == 0 {
		return
	}
	h := s.db.hz
	h.mu.Lock()
	delete(h.readers, s)
	h.mu.Unlock()
	clear(s.snaps)
}

// Close releases the session's engine-side state. An open transaction
// is rolled back: its overlays are dropped and its table locks
// released, exactly as ROLLBACK would. Safe to call more than once; the
// session must not be used afterwards.
func (s *Session) Close() {
	s.endUnit(false)
	s.tx = nil
}
