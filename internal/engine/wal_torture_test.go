package engine

// Crash-torture tests for the durability subsystem. The contract under
// test: whatever prefix of the WAL survives a crash, recovery must
// reconstruct exactly a prefix of the committed statement history —
// never a statement twice (the checkpoint crash window), never damaged
// SQL (checksums), never a statement out of order (sequence numbers).
//
// The log is cut at every frame boundary and at random intra-frame
// offsets; a fault-injection sink (internal/iofault) additionally
// drives the append path itself into short writes and silent "power
// loss" drops.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tip/internal/blade"
	"tip/internal/core"
	"tip/internal/iofault"
	"tip/internal/temporal"
	"tip/internal/types"
)

func freshEngine(t testing.TB) *Database {
	t.Helper()
	reg := blade.NewRegistry()
	if _, err := core.Register(reg); err != nil {
		t.Fatal(err)
	}
	db := New(reg)
	db.SetClock(func() temporal.Chronon { return temporal.MustDate(1999, 11, 12) })
	return db
}

// tortureWorkload runs the canonical history against s: statement 0
// creates the table, statement i inserts row i. After k statements the
// table holds exactly {1..k-1}.
func tortureWorkload(t *testing.T, s *Session, from, to int) {
	t.Helper()
	if from == 0 {
		execSQL(t, s, `CREATE TABLE t (a INT)`)
		from = 1
	}
	for i := from; i < to; i++ {
		if _, err := s.Exec(`INSERT INTO t VALUES (:a)`, map[string]types.Value{
			"a": types.NewInt(int64(i)),
		}); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
}

// frameBoundaries returns the byte offsets at the end of each complete
// frame in a log (offset 0 excluded).
func frameBoundaries(t *testing.T, data []byte) []int {
	t.Helper()
	var out []int
	off := 0
	for off < len(data) {
		n, k := binary.Uvarint(data[off:])
		if k <= 0 || off+k+int(n) > len(data) {
			t.Fatalf("log does not parse as whole frames at offset %d", off)
		}
		off += k + int(n)
		out = append(out, off)
	}
	return out
}

// assertExactPrefix checks that the table holds exactly the rows
// {1..m-1} that the first m committed statements produced: nothing
// missing, nothing doubled. m == 0 means the CREATE TABLE itself must
// not have survived.
func assertExactPrefix(t *testing.T, db *Database, m int, ctx string) {
	t.Helper()
	s := db.NewSession()
	res, err := s.Exec(`SELECT a FROM t`, nil)
	if m == 0 {
		if err == nil {
			t.Fatalf("%s: table exists but no statement committed", ctx)
		}
		return
	}
	if err != nil {
		t.Fatalf("%s: %v", ctx, err)
	}
	seen := make(map[int64]int, len(res.Rows))
	for _, r := range res.Rows {
		seen[r[0].Int()]++
	}
	if len(res.Rows) != m-1 {
		t.Fatalf("%s: %d rows, want %d", ctx, len(res.Rows), m-1)
	}
	for i := 1; i < m; i++ {
		if seen[int64(i)] != 1 {
			t.Fatalf("%s: row %d appears %d times", ctx, i, seen[int64(i)])
		}
	}
}

// recoverCut writes the first cut bytes of log to a file, recovers a
// fresh engine from it (plus an optional snapshot) and returns the
// engine with the replay error.
func recoverCut(t *testing.T, dir, snap string, log []byte, cut int) (*Database, error) {
	t.Helper()
	path := filepath.Join(dir, "cut.log")
	if err := os.WriteFile(path, log[:cut], 0o644); err != nil {
		t.Fatal(err)
	}
	db := freshEngine(t)
	if snap != "" {
		if err := db.Load(snap); err != nil {
			t.Fatal(err)
		}
	}
	return db, db.ReplayWAL(path)
}

// TestCrashTortureEveryCutPoint cuts a 210-statement log at every frame
// boundary and at random intra-frame offsets. Every boundary cut must
// recover exactly that many statements; every intra-frame cut is a torn
// tail that must recover cleanly to the frames before it.
func TestCrashTortureEveryCutPoint(t *testing.T) {
	const stmts = 210
	dir := t.TempDir()
	walPath := filepath.Join(dir, "wal.log")
	db := freshEngine(t)
	if err := db.EnableWAL(walPath); err != nil {
		t.Fatal(err)
	}
	tortureWorkload(t, db.NewSession(), 0, stmts)
	if err := db.DisableWAL(); err != nil {
		t.Fatal(err)
	}
	log, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	bounds := frameBoundaries(t, log)
	if len(bounds) != stmts {
		t.Fatalf("frames = %d, want %d", len(bounds), stmts)
	}

	// Every frame boundary, including the empty log.
	for k, cut := range append([]int{0}, bounds...) {
		rec, err := recoverCut(t, dir, "", log, cut)
		if err != nil {
			t.Fatalf("boundary cut %d (frame %d): %v", cut, k, err)
		}
		assertExactPrefix(t, rec, k, "boundary cut")
	}

	// Random intra-frame offsets: torn tails.
	cuts := 120
	if testing.Short() {
		cuts = 30
	}
	r := rand.New(rand.NewSource(4711))
	for range cuts {
		cut := 1 + r.Intn(len(log)-1)
		// Frames completed strictly before the cut.
		k := 0
		for k < len(bounds) && bounds[k] <= cut {
			k++
		}
		rec, err := recoverCut(t, dir, "", log, cut)
		if err != nil {
			t.Fatalf("intra-frame cut %d: %v", cut, err)
		}
		assertExactPrefix(t, rec, k, "intra-frame cut")
	}
}

// TestCheckpointCrashWindowNoDoubleApply forces the crash window the
// epoch stamp closes: the snapshot is written but the log truncate
// fails. Recovery from that snapshot plus the stale log must not
// double-apply the pre-checkpoint statements, and every cut of the
// combined log must still recover to an exact prefix.
func TestCheckpointCrashWindowNoDoubleApply(t *testing.T) {
	const half, stmts = 51, 101
	dir := t.TempDir()
	walPath := filepath.Join(dir, "wal.log")
	snapPath := filepath.Join(dir, "snap.tipdb")
	raw, err := os.OpenFile(walPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	sink := iofault.Wrap(raw)
	db := freshEngine(t)
	if err := db.enableWALSink(sink); err != nil {
		t.Fatal(err)
	}
	s := db.NewSession()
	tortureWorkload(t, s, 0, half)

	// Checkpoint writes the snapshot, then "crashes" before the
	// truncate: the stale epoch-0 frames stay in the log.
	sink.FailTruncate(true)
	if err := db.Checkpoint(snapPath); !errors.Is(err, iofault.ErrInjected) {
		t.Fatalf("checkpoint err = %v, want injected truncate failure", err)
	}
	sink.FailTruncate(false)

	// The survivor keeps writing in the new epoch.
	tortureWorkload(t, s, half, stmts)
	if err := db.DisableWAL(); err != nil {
		t.Fatal(err)
	}

	// Full recovery: snapshot + stale-plus-fresh log, zero doubles.
	rec := freshEngine(t)
	if err := rec.Load(snapPath); err != nil {
		t.Fatal(err)
	}
	if err := rec.ReplayWAL(walPath); err != nil {
		t.Fatal(err)
	}
	assertExactPrefix(t, rec, stmts, "checkpoint window full recovery")

	// Every boundary cut of the combined log. Cuts inside the stale
	// epoch-0 region recover to the snapshot alone (the first half);
	// cuts past it add the epoch-1 frames before the cut.
	log, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	bounds := frameBoundaries(t, log)
	if len(bounds) != stmts { // CREATE + 100 inserts, one frame each
		t.Fatalf("frames = %d, want %d", len(bounds), stmts)
	}
	for k, cut := range append([]int{0}, bounds...) {
		rec, err := recoverCut(t, dir, snapPath, log, cut)
		if err != nil {
			t.Fatalf("checkpoint-window cut %d: %v", cut, err)
		}
		// Frames 1..half are stale epoch-0 copies of what the snapshot
		// already holds; only frames past them add statements.
		want := half
		if k > half {
			want = k
		}
		assertExactPrefix(t, rec, want, "checkpoint-window cut")
	}
}

// TestWALCorruptMiddleFrameStopsReplay flips a byte inside a middle
// frame: replay must apply the statements before it, stop, and surface
// ErrWAL naming where it stopped — not execute the damaged SQL.
func TestWALCorruptMiddleFrameStopsReplay(t *testing.T) {
	const stmts = 40
	dir := t.TempDir()
	walPath := filepath.Join(dir, "wal.log")
	db := freshEngine(t)
	if err := db.EnableWAL(walPath); err != nil {
		t.Fatal(err)
	}
	tortureWorkload(t, db.NewSession(), 0, stmts)
	if err := db.DisableWAL(); err != nil {
		t.Fatal(err)
	}
	log, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	bounds := frameBoundaries(t, log)
	const victim = stmts / 2
	log[bounds[victim]-1] ^= 0xFF // last byte of frame victim+1's body

	path := filepath.Join(dir, "corrupt.log")
	if err := os.WriteFile(path, log, 0o644); err != nil {
		t.Fatal(err)
	}
	rec := freshEngine(t)
	err = rec.ReplayWAL(path)
	if !errors.Is(err, ErrWAL) {
		t.Fatalf("replay err = %v, want ErrWAL", err)
	}
	if !strings.Contains(err.Error(), "after seq 20") {
		t.Errorf("error does not name the last good seq: %v", err)
	}
	assertExactPrefix(t, rec, victim, "corrupt middle frame")
}

// TestWALSeqGapDetected removes a middle frame entirely: the sequence
// numbers expose the gap even though every remaining frame checksums.
func TestWALSeqGapDetected(t *testing.T) {
	const stmts = 10
	dir := t.TempDir()
	walPath := filepath.Join(dir, "wal.log")
	db := freshEngine(t)
	if err := db.EnableWAL(walPath); err != nil {
		t.Fatal(err)
	}
	tortureWorkload(t, db.NewSession(), 0, stmts)
	if err := db.DisableWAL(); err != nil {
		t.Fatal(err)
	}
	log, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	bounds := frameBoundaries(t, log)
	gapped := append(append([]byte{}, log[:bounds[3]]...), log[bounds[4]:]...)
	path := filepath.Join(dir, "gapped.log")
	if err := os.WriteFile(path, gapped, 0o644); err != nil {
		t.Fatal(err)
	}
	rec := freshEngine(t)
	if err := rec.ReplayWAL(path); !errors.Is(err, ErrWAL) {
		t.Fatalf("replay err = %v, want ErrWAL for seq gap", err)
	}
	assertExactPrefix(t, rec, 4, "seq gap")
}

// TestWALShortWriteStickyAndRecoverable drives the append path into a
// mid-frame short write: the statement reports ErrWALFailed, later
// statements keep reporting it, and the torn log still recovers to the
// pre-failure prefix.
func TestWALShortWriteStickyAndRecoverable(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, "wal.log")
	raw, err := os.OpenFile(walPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	sink := iofault.Wrap(raw)
	db := freshEngine(t)
	if err := db.enableWALSink(sink); err != nil {
		t.Fatal(err)
	}
	s := db.NewSession()
	tortureWorkload(t, s, 0, 5)

	sink.SetWriteBudget(7, iofault.ShortWrite) // tear the next frame mid-bytes
	if _, err := s.Exec(`INSERT INTO t VALUES (5)`, nil); !errors.Is(err, ErrWALFailed) {
		t.Fatalf("short-write append err = %v, want ErrWALFailed", err)
	}
	if _, err := s.Exec(`INSERT INTO t VALUES (6)`, nil); !errors.Is(err, ErrWALFailed) {
		t.Fatalf("append after failure err = %v, want sticky ErrWALFailed", err)
	}

	rec := freshEngine(t)
	if err := rec.ReplayWAL(walPath); err != nil {
		t.Fatal(err)
	}
	assertExactPrefix(t, rec, 5, "short-write torn log")
}

// TestWALCrashSinkPrefixRecovery runs the whole workload against a sink
// that silently drops everything past a byte budget — the power-loss
// model where the application believes its writes landed. Whatever
// survived must recover to an exact committed prefix.
func TestWALCrashSinkPrefixRecovery(t *testing.T) {
	const stmts = 60
	r := rand.New(rand.NewSource(99))
	budgets := []int64{0, 1, 17, 100, 500, 1500}
	for range 10 {
		budgets = append(budgets, int64(r.Intn(2200)))
	}
	for _, budget := range budgets {
		dir := t.TempDir()
		walPath := filepath.Join(dir, "wal.log")
		raw, err := os.OpenFile(walPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		sink := iofault.Wrap(raw)
		sink.SetWriteBudget(budget, iofault.Crash)
		db := freshEngine(t)
		if err := db.enableWALSink(sink); err != nil {
			t.Fatal(err)
		}
		tortureWorkload(t, db.NewSession(), 0, stmts) // "succeeds": the crash is silent
		if err := db.DisableWAL(); err != nil {
			t.Fatal(err)
		}

		rec := freshEngine(t)
		if err := rec.ReplayWAL(walPath); err != nil {
			t.Fatalf("budget %d: %v", budget, err)
		}
		// The surviving prefix length is whatever fit the budget.
		s := rec.NewSession()
		res, err := s.Exec(`SELECT COUNT(*) FROM t`, nil)
		if err != nil {
			if budget > 64 { // the CREATE frame is well under 64 bytes
				t.Fatalf("budget %d: table missing: %v", budget, err)
			}
			continue
		}
		m := int(res.Rows[0][0].Int()) + 1
		assertExactPrefix(t, rec, m, "crash sink")
	}
}

// TestWALDeterministicBytes runs the identical parameterized workload
// twice: the logs must be byte-identical (sorted parameter encoding,
// no map-order leakage), which is what makes golden log tests possible.
func TestWALDeterministicBytes(t *testing.T) {
	runOnce := func(path string) []byte {
		db := freshEngine(t)
		if err := db.EnableWAL(path); err != nil {
			t.Fatal(err)
		}
		s := db.NewSession()
		execSQL(t, s, `CREATE TABLE t (a INT, b VARCHAR(10), c INT, d INT)`)
		for i := range 20 {
			if _, err := s.Exec(`INSERT INTO t VALUES (:alpha, :beta, :gamma, :delta)`, map[string]types.Value{
				"alpha": types.NewInt(int64(i)),
				"beta":  types.NewString("x"),
				"gamma": types.NewInt(int64(i * 2)),
				"delta": types.NewInt(int64(i * 3)),
			}); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.DisableWAL(); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	dir := t.TempDir()
	a := runOnce(filepath.Join(dir, "a.log"))
	b := runOnce(filepath.Join(dir, "b.log"))
	if string(a) != string(b) {
		t.Fatal("identical runs produced different WAL bytes")
	}
}

// TestCrashTortureInterleavedTxns runs seeded random scripts that
// interleave three sessions' BEGIN / DML / failing statements / COMMIT
// / ROLLBACK, autocommit statements among them and reads of other
// sessions' tables in both, and leaves some
// transactions open at the "crash". The log is cut at every frame
// boundary (and, outside -short, at random intra-frame offsets): the
// recovered tables must equal exactly the committed prefix — the state
// a fresh session saw right after that frame's commit.
func TestCrashTortureInterleavedTxns(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5, 6}
	if testing.Short() {
		seeds = seeds[:3]
	}
	for _, seed := range seeds {
		dir := t.TempDir()
		walPath := filepath.Join(dir, "wal.log")
		db := freshEngine(t)
		if err := db.EnableWAL(walPath); err != nil {
			t.Fatal(err)
		}
		const sessions = 3
		dump := func(db *Database) string {
			s := db.NewSession()
			defer s.Close()
			var b strings.Builder
			for k := 0; k < sessions; k++ {
				res, err := s.Exec(fmt.Sprintf(`SELECT a FROM t%d ORDER BY a`, k), nil)
				if err != nil {
					return err.Error()
				}
				fmt.Fprintf(&b, "t%d%v ", k, res.Rows)
			}
			res, err := s.Exec(`SELECT n FROM shared ORDER BY n`, nil)
			if err != nil {
				return err.Error()
			}
			fmt.Fprintf(&b, "shared%v", res.Rows)
			return b.String()
		}
		// states[j] is the committed state after frame j (states[0]:
		// the empty log).
		states := []string{dump(freshEngine(t))}
		exec1 := func(s *Session, sql string) {
			// Failing statements are part of the script; only a commit
			// matters to the oracle.
			_, _ = s.Exec(sql, nil)
			if seq := db.WALSeq(); int(seq) >= len(states) {
				states = append(states, dump(db))
				if int(seq) != len(states)-1 {
					t.Fatalf("seed %d: one statement appended %d frames", seed, int(seq)-len(states)+2)
				}
			}
		}
		setup := db.NewSession()
		for k := 0; k < sessions; k++ {
			exec1(setup, fmt.Sprintf(`CREATE TABLE t%d (a INT NOT NULL)`, k))
		}
		exec1(setup, `CREATE TABLE shared (n INT)`)
		exec1(setup, `CREATE INDEX t0_a ON t0 (a)`)

		r := rand.New(rand.NewSource(seed))
		ss := make([]*Session, sessions)
		for k := range ss {
			ss[k] = db.NewSession()
		}
		// Each session's transactions write only its own table but
		// read any table: a unit whose read went stale before it
		// committed fails with ErrConflict, so recovery in commit
		// order still reproduces what every logged statement read.
		// shared is written by autocommit statements only.
		for step := 0; step < 250; step++ {
			k := r.Intn(sessions)
			s := ss[k]
			v := r.Intn(20)
			dml := []string{
				fmt.Sprintf(`INSERT INTO t%d VALUES (%d)`, k, v),
				fmt.Sprintf(`DELETE FROM t%d WHERE a = %d`, k, v),
				fmt.Sprintf(`UPDATE t%d SET a = a + 1 WHERE a = %d`, k, v),
				fmt.Sprintf(`INSERT INTO t%d VALUES (NULL)`, k), // fails: NOT NULL
				fmt.Sprintf(`INSERT INTO t%d SELECT COUNT(*) FROM t%d`, k, r.Intn(sessions)),
			}
			switch p := r.Intn(100); {
			case !s.InTransaction() && p < 25:
				exec1(s, `BEGIN`)
			case !s.InTransaction() && p < 35:
				exec1(s, fmt.Sprintf(`INSERT INTO shared SELECT COUNT(*) FROM t%d`, r.Intn(sessions)))
			case s.InTransaction() && p < 15:
				exec1(s, `COMMIT`)
			case s.InTransaction() && p < 22:
				exec1(s, `ROLLBACK`)
			default:
				exec1(s, dml[r.Intn(len(dml))])
			}
		}
		if err := db.DisableWAL(); err != nil { // open transactions never commit
			t.Fatal(err)
		}
		log, err := os.ReadFile(walPath)
		if err != nil {
			t.Fatal(err)
		}
		bounds := append([]int{0}, frameBoundaries(t, log)...)
		if len(bounds) != len(states) {
			t.Fatalf("seed %d: %d frames, %d recorded commits", seed, len(bounds)-1, len(states)-1)
		}
		check := func(cut, frames int) {
			rec, err := recoverCut(t, dir, "", log, cut)
			if err != nil {
				t.Fatalf("seed %d cut %d: %v", seed, cut, err)
			}
			if got := dump(rec); got != states[frames] {
				t.Fatalf("seed %d cut %d (%d frames):\n got %s\nwant %s", seed, cut, frames, got, states[frames])
			}
		}
		for j, cut := range bounds {
			check(cut, j)
		}
		if !testing.Short() {
			for range 40 {
				cut := 1 + r.Intn(len(log)-1)
				j := 0
				for j+1 < len(bounds) && bounds[j+1] <= cut {
					j++
				}
				check(cut, j)
			}
		}
	}
}
