package engine

// Commit-unit transaction semantics: isolation of uncommitted writes,
// one WAL frame per committed unit, recovery of interleaved sessions,
// atomic multi-table commits, and deadlock-free lock ordering.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func count1(t *testing.T, s *Session, sql string) int64 {
	t.Helper()
	return mvccExec(t, s, sql).Rows[0][0].Int()
}

// TestTxnNoDirtyRead: another session's open transaction is invisible,
// through plain scans and hash-index probes alike, until it commits.
func TestTxnNoDirtyRead(t *testing.T) {
	db, s1 := newMVCCDB(t)
	mvccExec(t, s1, `CREATE TABLE t (a INT)`)
	mvccExec(t, s1, `CREATE INDEX t_a ON t (a)`)

	s2 := db.NewSession()
	mvccExec(t, s2, `BEGIN`)
	mvccExec(t, s2, `INSERT INTO t VALUES (1)`)
	if n := count1(t, s1, `SELECT COUNT(*) FROM t`); n != 0 {
		t.Fatalf("SELECT COUNT(*) saw %d uncommitted rows", n)
	}
	if n := count1(t, s1, `SELECT COUNT(*) FROM t WHERE a = 1`); n != 0 {
		t.Fatalf("hash probe saw %d uncommitted rows", n)
	}
	if n := count1(t, s2, `SELECT COUNT(*) FROM t WHERE a = 1`); n != 1 {
		t.Fatalf("transaction does not read its own write: %d", n)
	}
	mvccExec(t, s2, `COMMIT`)
	if n := count1(t, s1, `SELECT COUNT(*) FROM t WHERE a = 1`); n != 1 {
		t.Fatalf("committed row not visible: %d", n)
	}
}

// walStmts decodes every frame of a log into its unit's SQL texts.
func walStmts(t *testing.T, db *Database, path string) [][]string {
	t.Helper()
	var units [][]string
	if err := ReadWALFrames(path, 0, func(fr ReplFrame) error {
		_, payload, err := DecodeWALFrameBody(fr.Body)
		if err != nil {
			return err
		}
		stmts, err := decodeWALPayload(db.reg, payload)
		if err != nil {
			return err
		}
		var sqls []string
		for _, st := range stmts {
			sqls = append(sqls, st.sql)
		}
		units = append(units, sqls)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return units
}

// TestTxnInterleavedWALRecovery interleaves two sessions' transactions
// — A BEGIN, A INSERT, B BEGIN, B INSERT, B ROLLBACK, A COMMIT — and
// recovers from the log: only A's committed unit replays, as one frame.
func TestTxnInterleavedWALRecovery(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "wal.log")
	db := freshEngine(t)
	if err := db.EnableWAL(walPath); err != nil {
		t.Fatal(err)
	}
	a, b := db.NewSession(), db.NewSession()
	mvccExec(t, a, `CREATE TABLE ta (x INT)`)
	mvccExec(t, a, `CREATE TABLE tb (x INT)`)
	mvccExec(t, a, `BEGIN`)
	mvccExec(t, a, `INSERT INTO ta VALUES (1)`)
	mvccExec(t, b, `BEGIN`)
	mvccExec(t, b, `INSERT INTO tb VALUES (2)`)
	mvccExec(t, b, `ROLLBACK`)
	mvccExec(t, a, `INSERT INTO ta VALUES (3)`)
	mvccExec(t, a, `COMMIT`)
	if err := db.DisableWAL(); err != nil {
		t.Fatal(err)
	}

	units := walStmts(t, db, walPath)
	want := [][]string{{`CREATE TABLE ta (x INT)`}, {`CREATE TABLE tb (x INT)`},
		{`INSERT INTO ta VALUES (1)`, `INSERT INTO ta VALUES (3)`}}
	if fmt.Sprint(units) != fmt.Sprint(want) {
		t.Fatalf("logged units = %q, want %q", units, want)
	}

	rec := freshEngine(t)
	if err := rec.ReplayWAL(walPath); err != nil {
		t.Fatalf("recovery: %v", err)
	}
	s := rec.NewSession()
	if n := count1(t, s, `SELECT COUNT(*) FROM ta`); n != 2 {
		t.Fatalf("recovered ta has %d rows, want 2", n)
	}
	if n := count1(t, s, `SELECT COUNT(*) FROM tb`); n != 0 {
		t.Fatalf("recovered tb has %d rows of a rolled-back transaction", n)
	}
}

// TestTxnAbandonedMatchesRecovery: a session closed mid-transaction
// leaves nothing behind, live or recovered — the two databases agree.
func TestTxnAbandonedMatchesRecovery(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "wal.log")
	db := freshEngine(t)
	if err := db.EnableWAL(walPath); err != nil {
		t.Fatal(err)
	}
	s := db.NewSession()
	mvccExec(t, s, `CREATE TABLE t (a INT)`)
	mvccExec(t, s, `INSERT INTO t VALUES (1)`)
	z := db.NewSession()
	mvccExec(t, z, `BEGIN`)
	mvccExec(t, z, `INSERT INTO t VALUES (2)`)
	z.Close()

	dump := func(s *Session) string {
		return fmt.Sprint(mvccExec(t, s, `SELECT a FROM t ORDER BY a`).Rows)
	}
	live := dump(s)
	if err := db.DisableWAL(); err != nil {
		t.Fatal(err)
	}
	rec := freshEngine(t)
	if err := rec.ReplayWAL(walPath); err != nil {
		t.Fatal(err)
	}
	if recovered := dump(rec.NewSession()); live != recovered {
		t.Fatalf("live %s != recovered %s", live, recovered)
	}
	if n := count1(t, s, `SELECT COUNT(*) FROM t WHERE a = 2`); n != 0 {
		t.Fatal("abandoned transaction's row is live")
	}
}

// TestTxnMultiTableCommitAtomic checks a two-table commit is one
// publication: while statements pin their snapshots (under the horizon
// tracker's latch) the commit installs neither table, and readers
// racing a stream of such commits see both inserts of each or neither.
func TestTxnMultiTableCommitAtomic(t *testing.T) {
	db, s := newMVCCDB(t)
	mvccExec(t, s, `CREATE TABLE a (x INT)`)
	mvccExec(t, s, `CREATE TABLE b (x INT)`)

	// Deterministic half: hold the latch a pinning statement holds.
	w := db.NewSession()
	mvccExec(t, w, `BEGIN`)
	mvccExec(t, w, `INSERT INTO a VALUES (-1)`)
	mvccExec(t, w, `INSERT INTO b VALUES (-1)`)
	va, vb := db.tables["a"].Snapshot(), db.tables["b"].Snapshot()
	db.hz.mu.Lock()
	committed := make(chan error, 1)
	go func() {
		_, err := w.Exec(`COMMIT`, nil)
		committed <- err
	}()
	time.Sleep(20 * time.Millisecond)
	installedA, installedB := db.tables["a"].Snapshot() != va, db.tables["b"].Snapshot() != vb
	db.hz.mu.Unlock()
	if err := <-committed; err != nil {
		t.Fatal(err)
	}
	if installedA || installedB {
		t.Fatalf("commit installed a=%v b=%v while a statement was pinning", installedA, installedB)
	}

	// Racing half: every commit adds one row to each table, so one
	// statement counting both must always see equal counts.
	const q = `SELECT COUNT(*) FROM a UNION ALL SELECT COUNT(*) FROM b`
	stop := make(chan struct{})
	errs := make(chan error, 2)
	var reads atomic.Int64
	var wg sync.WaitGroup
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := db.NewSession()
			defer r.Close()
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := r.Exec(q, nil)
				if err != nil {
					errs <- err
					return
				}
				if na, nb := res.Rows[0][0].Int(), res.Rows[1][0].Int(); na != nb {
					errs <- fmt.Errorf("one statement saw %d rows in a, %d in b: a half-installed commit", na, nb)
					return
				}
				reads.Add(1)
			}
		}()
	}
	for i := 0; i < 5000 && (i < 100 || reads.Load() < 500); i++ {
		mvccExec(t, w, `BEGIN`)
		mvccExec(t, w, fmt.Sprintf(`INSERT INTO a VALUES (%d)`, i))
		mvccExec(t, w, fmt.Sprintf(`INSERT INTO b VALUES (%d)`, i))
		mvccExec(t, w, `COMMIT`)
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
}

// TestTxnOppositeLockOrder runs two transactions that take table locks
// in opposite orders. Both must finish: the older one waits, the
// younger one is aborted with the retryable ErrConflict, and its retry
// succeeds once the older one commits.
func TestTxnOppositeLockOrder(t *testing.T) {
	db, s := newMVCCDB(t)
	mvccExec(t, s, `CREATE TABLE a (x INT)`)
	mvccExec(t, s, `CREATE TABLE b (x INT)`)
	older, younger := db.NewSession(), db.NewSession()
	mvccExec(t, older, `BEGIN`)
	mvccExec(t, older, `INSERT INTO a VALUES (1)`)
	mvccExec(t, younger, `BEGIN`)
	mvccExec(t, younger, `INSERT INTO b VALUES (2)`)

	done := make(chan error, 1)
	go func() {
		if _, err := older.Exec(`INSERT INTO b VALUES (1)`, nil); err != nil {
			done <- err
			return
		}
		_, err := older.Exec(`COMMIT`, nil)
		done <- err
	}()
	_, err := younger.Exec(`INSERT INTO a VALUES (2)`, nil)
	if !errors.Is(err, ErrConflict) {
		t.Fatalf("younger transaction: err = %v, want ErrConflict", err)
	}
	if younger.InTransaction() {
		t.Fatal("aborted transaction still open")
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("older transaction: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("older transaction never acquired the lock the aborted one held")
	}
	// The retry takes the locks in the same opposite order and wins.
	mvccExec(t, younger, `BEGIN`)
	mvccExec(t, younger, `INSERT INTO b VALUES (2)`)
	mvccExec(t, younger, `INSERT INTO a VALUES (2)`)
	mvccExec(t, younger, `COMMIT`)
	for _, tbl := range []string{"a", "b"} {
		all := count1(t, s, `SELECT COUNT(*) FROM `+tbl)
		ones := count1(t, s, `SELECT COUNT(*) FROM `+tbl+` WHERE x = 1`)
		if twos := count1(t, s, `SELECT COUNT(*) FROM `+tbl+` WHERE x = 2`); all != 2 || ones != 1 || twos != 1 {
			t.Fatalf("%s: %d rows, %d ones, %d twos; want exactly 1 and 2", tbl, all, ones, twos)
		}
	}
}

// TestTxnDDLRespectsOverlays: DDL inside a transaction is refused, and
// DDL on a table an open transaction writes fails with ErrConflict
// until that transaction ends.
func TestTxnDDLRespectsOverlays(t *testing.T) {
	db, s := newMVCCDB(t)
	mvccExec(t, s, `CREATE TABLE t (a INT)`)
	mvccExec(t, s, `BEGIN`)
	if _, err := s.Exec(`CREATE TABLE u (a INT)`, nil); err == nil {
		t.Fatal("DDL inside a transaction should fail")
	}
	mvccExec(t, s, `INSERT INTO t VALUES (1)`)
	other := db.NewSession()
	for _, ddl := range []string{`CREATE INDEX t_a ON t (a)`, `DROP TABLE t`} {
		if _, err := other.Exec(ddl, nil); !errors.Is(err, ErrConflict) {
			t.Fatalf("%s under an open overlay: err = %v, want ErrConflict", ddl, err)
		}
	}
	mvccExec(t, s, `COMMIT`)
	mvccExec(t, other, `CREATE INDEX t_a ON t (a)`)
	if n := count1(t, other, `SELECT COUNT(*) FROM t WHERE a = 1`); n != 1 {
		t.Fatalf("committed row missing from the new index: %d", n)
	}
}

// TestWALOneFramePerCommittedUnit: autocommit statements are units of
// one, a committed transaction is exactly one frame, and neither BEGIN,
// COMMIT nor ROLLBACK — nor anything of a rolled-back transaction or a
// failed statement — reaches the log.
func TestWALOneFramePerCommittedUnit(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "wal.log")
	db := freshEngine(t)
	if err := db.EnableWAL(walPath); err != nil {
		t.Fatal(err)
	}
	s := db.NewSession()
	mvccExec(t, s, `CREATE TABLE t (a INT NOT NULL)`)
	mvccExec(t, s, `INSERT INTO t VALUES (1)`)
	mvccExec(t, s, `BEGIN`)
	mvccExec(t, s, `INSERT INTO t VALUES (2)`)
	if _, err := s.Exec(`INSERT INTO t VALUES (NULL)`, nil); err == nil {
		t.Fatal("NOT NULL violation should fail")
	}
	mvccExec(t, s, `UPDATE t SET a = a + 10`)
	mvccExec(t, s, `COMMIT`)
	mvccExec(t, s, `BEGIN`)
	mvccExec(t, s, `DELETE FROM t`)
	mvccExec(t, s, `ROLLBACK`)
	mvccExec(t, s, `BEGIN`)
	mvccExec(t, s, `COMMIT`) // empty: logs nothing
	if err := db.DisableWAL(); err != nil {
		t.Fatal(err)
	}
	units := walStmts(t, db, walPath)
	want := [][]string{{`CREATE TABLE t (a INT NOT NULL)`}, {`INSERT INTO t VALUES (1)`},
		{`INSERT INTO t VALUES (2)`, `UPDATE t SET a = a + 10`}}
	if fmt.Sprint(units) != fmt.Sprint(want) {
		t.Fatalf("logged units = %q, want %q", units, want)
	}
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, kw := range []string{"BEGIN", "ROLLBACK", "COMMIT"} {
		if strings.Contains(string(data), kw) {
			t.Fatalf("log carries %s", kw)
		}
	}
}

// TestTxnLockWaitHonorsTimeout: a statement queued behind another
// transaction's table lock still ends at its statement timeout.
func TestTxnLockWaitHonorsTimeout(t *testing.T) {
	db, s := newMVCCDB(t)
	mvccExec(t, s, `CREATE TABLE t (a INT)`)
	mvccExec(t, s, `BEGIN`)
	mvccExec(t, s, `INSERT INTO t VALUES (1)`)
	w := db.NewSession()
	mvccExec(t, w, `SET STATEMENT_TIMEOUT = 50`)
	start := time.Now()
	if _, err := w.Exec(`INSERT INTO t VALUES (2)`, nil); !errors.Is(err, ErrTimeout) {
		t.Fatalf("queued INSERT: err = %v, want ErrTimeout", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("timeout took %v", d)
	}
	mvccExec(t, s, `COMMIT`)
	mvccExec(t, w, `INSERT INTO t VALUES (2)`)
	if n := count1(t, s, `SELECT COUNT(*) FROM t`); n != 2 {
		t.Fatalf("rows = %d, want 2", n)
	}
}

// TestTxnCheckpointBesideOpenTransaction: Checkpoint completes while a
// transaction holds a table lock and another session waits for it, and
// recovery from the checkpoint plus the log sees both commits.
func TestTxnCheckpointBesideOpenTransaction(t *testing.T) {
	dir := t.TempDir()
	walPath, snapPath := filepath.Join(dir, "wal.log"), filepath.Join(dir, "snap.tipdb")
	db := freshEngine(t)
	if err := db.EnableWAL(walPath); err != nil {
		t.Fatal(err)
	}
	s := db.NewSession()
	mvccExec(t, s, `CREATE TABLE t (a INT)`)
	mvccExec(t, s, `BEGIN`)
	mvccExec(t, s, `INSERT INTO t VALUES (1)`)
	waiter := make(chan error, 1)
	go func() {
		_, err := db.NewSession().Exec(`INSERT INTO t VALUES (2)`, nil)
		waiter <- err
	}()
	ckpt := make(chan error, 1)
	go func() { ckpt <- db.Checkpoint(snapPath) }()
	select {
	case err := <-ckpt:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Checkpoint blocked behind an open transaction")
	}
	mvccExec(t, s, `COMMIT`)
	select {
	case err := <-waiter:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("queued writer never ran after COMMIT")
	}
	if err := db.DisableWAL(); err != nil {
		t.Fatal(err)
	}
	rec := freshEngine(t)
	if err := rec.Load(snapPath); err != nil {
		t.Fatal(err)
	}
	if err := rec.ReplayWAL(walPath); err != nil {
		t.Fatal(err)
	}
	if n := count1(t, rec.NewSession(), `SELECT COUNT(*) FROM t WHERE a = 1 OR a = 2`); n != 2 {
		t.Fatalf("recovered %d of the 2 committed rows", n)
	}
}

// walLiveVsRecovered closes db's log, recovers a fresh engine from it
// and fails unless query answers the same on both.
func walLiveVsRecovered(t *testing.T, db *Database, walPath, query string) {
	t.Helper()
	live := fmt.Sprint(mvccExec(t, db.NewSession(), query).Rows)
	if err := db.DisableWAL(); err != nil {
		t.Fatal(err)
	}
	rec := freshEngine(t)
	if err := rec.ReplayWAL(walPath); err != nil {
		t.Fatalf("recovery: %v", err)
	}
	if got := fmt.Sprint(mvccExec(t, rec.NewSession(), query).Rows); got != live {
		t.Fatalf("%s: live %s != recovered %s", query, live, got)
	}
}

// TestTxnDroppedReadTableConflicts: a transaction whose INSERT … SELECT
// read a table that another session then drops (or drops and recreates
// with another shape) cannot commit — its frame would not replay — and
// the log still recovers to the live state.
func TestTxnDroppedReadTableConflicts(t *testing.T) {
	for _, ddl := range []string{`DROP TABLE u`, `DROP TABLE u; CREATE TABLE u (y INT)`} {
		walPath := filepath.Join(t.TempDir(), "wal.log")
		db := freshEngine(t)
		if err := db.EnableWAL(walPath); err != nil {
			t.Fatal(err)
		}
		a, b := db.NewSession(), db.NewSession()
		mvccExec(t, a, `CREATE TABLE t (x INT)`)
		mvccExec(t, a, `CREATE TABLE u (x INT)`)
		mvccExec(t, a, `INSERT INTO u VALUES (7)`)
		mvccExec(t, a, `BEGIN`)
		mvccExec(t, a, `INSERT INTO t SELECT x FROM u`)
		if _, err := b.ExecScript(ddl, nil); err != nil {
			t.Fatalf("%s: %v", ddl, err)
		}
		if _, err := a.Exec(`COMMIT`, nil); !errors.Is(err, ErrConflict) {
			t.Fatalf("%s: COMMIT err = %v, want ErrConflict", ddl, err)
		}
		if a.InTransaction() {
			t.Fatal("conflicting COMMIT left the transaction open")
		}
		walLiveVsRecovered(t, db, walPath, `SELECT x FROM t ORDER BY x`)
	}
}

// TestTxnStaleReadConflicts: recovery redoes units in commit order, so
// a transaction whose logged statement read a table another unit then
// committed to must not commit (it would redo against the newer
// state). Reads of tables nobody changed, and reads the transaction
// locks before anyone else commits, do not conflict.
func TestTxnStaleReadConflicts(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "wal.log")
	db := freshEngine(t)
	if err := db.EnableWAL(walPath); err != nil {
		t.Fatal(err)
	}
	a, b := db.NewSession(), db.NewSession()
	mvccExec(t, a, `CREATE TABLE rx (n INT)`)
	mvccExec(t, a, `CREATE TABLE other (n INT)`)
	mvccExec(t, a, `CREATE TABLE audit (n INT)`)
	mvccExec(t, a, `INSERT INTO rx VALUES (1)`)

	mvccExec(t, a, `BEGIN`)
	mvccExec(t, a, `INSERT INTO audit SELECT COUNT(*) FROM rx`)
	mvccExec(t, b, `INSERT INTO rx VALUES (2)`)
	if _, err := a.Exec(`COMMIT`, nil); !errors.Is(err, ErrConflict) {
		t.Fatalf("COMMIT after a stale read: err = %v, want ErrConflict", err)
	}
	if n := count1(t, b, `SELECT COUNT(*) FROM audit`); n != 0 {
		t.Fatalf("conflicting transaction left %d audit rows", n)
	}

	// Retried, with unrelated commits in between, it goes through.
	mvccExec(t, a, `BEGIN`)
	mvccExec(t, a, `INSERT INTO audit SELECT COUNT(*) FROM rx`)
	mvccExec(t, b, `INSERT INTO other VALUES (3)`)
	mvccExec(t, a, `INSERT INTO rx VALUES (4)`) // a now holds rx's lock
	mvccExec(t, a, `INSERT INTO audit SELECT COUNT(*) FROM rx`)
	mvccExec(t, a, `COMMIT`)
	if lo, hi := count1(t, b, `SELECT MIN(n) FROM audit`), count1(t, b, `SELECT MAX(n) FROM audit`); lo != 2 || hi != 3 {
		t.Fatalf("audit holds %d..%d, want the counts 2 and 3", lo, hi)
	}
	walLiveVsRecovered(t, db, walPath, `SELECT n FROM audit ORDER BY n`)
}

// TestAutocommitReadsMatchRecovery races autocommit INSERT … SELECT
// statements against autocommit writers of the table they read. A
// statement whose read went stale before it committed is re-run, so
// every logged statement redoes against what it read live, and the
// recovered database equals the live one.
func TestAutocommitReadsMatchRecovery(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "wal.log")
	db := freshEngine(t)
	if err := db.EnableWAL(walPath); err != nil {
		t.Fatal(err)
	}
	s := db.NewSession()
	mvccExec(t, s, `CREATE TABLE rx (n INT)`)
	mvccExec(t, s, `CREATE TABLE audit (n INT)`)
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := db.NewSession()
			defer s.Close()
			for i := 0; i < 200; i++ {
				sql := fmt.Sprintf(`INSERT INTO rx VALUES (%d)`, i)
				if g%2 == 1 {
					sql = `INSERT INTO audit SELECT COUNT(*) FROM rx`
				}
				if _, err := s.Exec(sql, nil); err != nil && !errors.Is(err, ErrConflict) {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	walLiveVsRecovered(t, db, walPath, `SELECT n FROM audit ORDER BY n`)
}
