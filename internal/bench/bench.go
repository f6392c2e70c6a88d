// Package bench implements the experiment harness of DESIGN.md: one
// function per experiment (E1-E9), each regenerating the corresponding
// result table. cmd/tipbench drives them from the command line; the
// repository-root bench_test.go wraps the same measurements as testing.B
// benchmarks.
//
// The experiments measure *shapes*, not absolute numbers: linearity of
// the element algebra (E1), the blade-vs-stratum gap for coalescing (E2)
// and temporal joins (E3), the time-dependence of NOW (E4), the size of
// generated stratum SQL (E5), the period-index crossover (E6), the WAL
// durability ablation (E7), the temporal-join algorithm comparison (E8),
// and disjoint-table writer throughput beside a scanning analyst (E9).
package bench

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tip/internal/blade"
	"tip/internal/core"
	"tip/internal/engine"
	"tip/internal/exec"
	"tip/internal/layered"
	"tip/internal/temporal"
	"tip/internal/types"
	"tip/internal/workload"
)

// PinnedNow is the experiments' fixed transaction time (the paper's
// demo era).
var PinnedNow = temporal.MustDate(1999, 11, 12)

// Table is one experiment's printable result.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				fmt.Fprint(w, "  ")
			}
			fmt.Fprintf(w, "%-*s", widths[i], c)
		}
		fmt.Fprintln(w)
	}
	line(t.Header)
	total := 0
	for _, wd := range widths {
		total += wd + 2
	}
	fmt.Fprintln(w, strings.Repeat("-", total))
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// NewTIPDB builds a pinned-clock TIP database and session.
func NewTIPDB() (*engine.Session, *core.Blade) {
	reg := blade.NewRegistry()
	b := core.MustRegister(reg)
	db := engine.New(reg)
	db.SetClock(func() temporal.Chronon { return PinnedNow })
	return db.NewSession(), b
}

// NewFlatDB builds a pinned-clock plain database wrapped in a stratum.
func NewFlatDB() *layered.Stratum {
	db := engine.New(blade.NewRegistry())
	db.SetClock(func() temporal.Chronon { return PinnedNow })
	return layered.New(db.NewSession())
}

// timeIt measures fn over enough iterations to fill ~minDuration,
// returning ns/op.
func timeIt(minDuration time.Duration, fn func()) float64 {
	// Warm up once (also catches one-time costs like index builds).
	fn()
	iters := 1
	for {
		start := time.Now()
		for i := 0; i < iters; i++ {
			fn()
		}
		elapsed := time.Since(start)
		if elapsed >= minDuration || iters >= 1<<20 {
			return float64(elapsed.Nanoseconds()) / float64(iters)
		}
		iters *= 2
	}
}

func fmtNs(ns float64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.2fs", ns/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.2fms", ns/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.1fµs", ns/1e3)
	default:
		return fmt.Sprintf("%.0fns", ns)
	}
}

// E1 measures the element set algebra across element sizes. The paper's
// §3 claims the algorithms run in time linear in the number of periods;
// the ns/period column should therefore stay roughly flat. The last
// column is the ablation of DESIGN.md: operating on *non-canonical*
// input (normalise-on-read) pays an extra sort per operation.
func E1(sizes []int) *Table {
	t := &Table{
		ID:     "E1",
		Title:  "Element algebra scaling (union/intersect/difference over n-period elements)",
		Header: []string{"n periods", "union", "ns/period", "intersect", "difference", "union (non-canonical input)"},
		Notes: []string{
			"linear-time claim holds if ns/period stays ~flat as n grows 2^12x",
			"non-canonical input adds an O(n log n) normalisation per operation",
		},
	}
	r := rand.New(rand.NewSource(11))
	for _, n := range sizes {
		// Spread the horizon with n so density (overlap rate) stays
		// comparable across sizes.
		horizon := int64(n) * 40
		a := workload.RandomElement(r, n, horizon)
		b := workload.RandomElement(r, n, horizon)
		union := timeIt(20*time.Millisecond, func() { a.Union(b, PinnedNow) })
		inter := timeIt(20*time.Millisecond, func() { a.Intersect(b, PinnedNow) })
		diff := timeIt(20*time.Millisecond, func() { a.Difference(b, PinnedNow) })

		// Non-canonical ablation: shuffled period lists must be
		// re-normalised (sort + merge) before each operation — the
		// normalise-on-read alternative to canonical storage.
		ap := a.Periods()
		r.Shuffle(len(ap), func(i, j int) { ap[i], ap[j] = ap[j], ap[i] })
		raw := timeIt(20*time.Millisecond, func() {
			shuffled := make([]temporal.Period, len(ap))
			copy(shuffled, ap)
			e, err := temporal.MakeElement(shuffled...)
			if err != nil {
				panic(err)
			}
			e.Union(b, PinnedNow)
		})
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", n),
			fmtNs(union),
			fmt.Sprintf("%.1f", union/float64(n)),
			fmtNs(inter),
			fmtNs(diff),
			fmtNs(raw),
		})
	}
	return t
}

// E2 compares temporal coalescing built into the engine
// (length(group_union(valid))) against the layered stratum's generated
// SQL (TotalDurationSQL) on identical data. This is the quantitative
// form of the paper's §5 argument. The TIP side runs under every
// coalesce plan variant (sort-merge, hash-agg via a hash index on the
// grouping column, and the row-at-a-time generic path) so the layered
// gap is measured against each plan the engine can pick.
func E2(sizes []int, layeredMax int) *Table {
	variants := layered.CoalescePlanVariants()
	header := []string{"rows"}
	for _, v := range variants {
		header = append(header, "TIP "+v.Name)
	}
	header = append(header, "layered SQL", "slowdown")
	t := &Table{
		ID:     "E2",
		Title:  "Coalescing: TIP blade (per plan variant) vs layered stratum (total medicated time per patient)",
		Header: header,
		Notes: []string{
			fmt.Sprintf("layered runs capped at %d rows: the generated nested NOT EXISTS SQL grows superlinearly", layeredMax),
			"results verified equal across every TIP plan variant, and against the stratum where it runs",
			"slowdown = layered vs the default TIP plan (sort-merge)",
			"data is determinate-only: the stratum's Forever sentinel cannot reproduce TIP's NOW binding for open periods",
		},
	}
	defer exec.SetVectorized(true)
	tipQ := `SELECT patient, length(group_union(valid)) FROM Prescription GROUP BY patient`
	for _, n := range sizes {
		cfg := workload.DefaultConfig(n)
		cfg.OpenFraction = 0 // see note: the stratum cannot encode NOW faithfully
		rows := workload.Generate(cfg)
		row := []string{fmt.Sprintf("%d", n)}
		var defaultNs float64
		var defaultSess *engine.Session
		var want map[string]int64
		for vi, v := range variants {
			tipSess, b := NewTIPDB()
			if err := workload.LoadTIP(tipSess, b, rows); err != nil {
				panic(err)
			}
			if err := v.Apply(tipSess, "Prescription", "patient"); err != nil {
				panic(err)
			}
			ns := timeIt(50*time.Millisecond, func() {
				if _, err := tipSess.Exec(tipQ, nil); err != nil {
					panic(err)
				}
			})
			got := coalesceAnswers(tipSess)
			if vi == 0 {
				defaultNs, defaultSess, want = ns, tipSess, got
			} else if len(got) != len(want) {
				panic(fmt.Sprintf("E2: %s returned %d groups, %s %d",
					v.Name, len(got), variants[0].Name, len(want)))
			} else {
				for k, d := range got {
					if d != want[k] {
						panic(fmt.Sprintf("E2: %s: %s=%d, %s=%d", k, v.Name, d, variants[0].Name, want[k]))
					}
				}
			}
			row = append(row, fmtNs(ns))
		}
		exec.SetVectorized(true)
		if n <= layeredMax {
			st := NewFlatDB()
			if err := workload.LoadLayered(st, rows); err != nil {
				panic(err)
			}
			layeredNs := timeIt(50*time.Millisecond, func() {
				if _, err := st.TotalDuration("Prescription", "patient"); err != nil {
					panic(err)
				}
			})
			verifyCoalesceAgreement(defaultSess, st)
			row = append(row, fmtNs(layeredNs), fmt.Sprintf("%.1fx", layeredNs/defaultNs))
		} else {
			row = append(row, "(skipped)", "-")
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// coalesceAnswers returns patient -> coalesced seconds for the E2 query.
func coalesceAnswers(sess *engine.Session) map[string]int64 {
	res, err := sess.Exec(`SELECT patient, length(group_union(valid)) FROM Prescription GROUP BY patient`, nil)
	if err != nil {
		panic(err)
	}
	out := make(map[string]int64, len(res.Rows))
	for _, r := range res.Rows {
		out[r[0].Str()] = int64(r[1].Obj().(temporal.Span))
	}
	return out
}

// verifyCoalesceAgreement cross-checks the two systems' answers.
func verifyCoalesceAgreement(tipSess *engine.Session, st *layered.Stratum) {
	tipRes, err := tipSess.Exec(`SELECT patient, length(group_union(valid)) FROM Prescription GROUP BY patient`, nil)
	if err != nil {
		panic(err)
	}
	layeredRes, err := st.TotalDuration("Prescription", "patient")
	if err != nil {
		panic(err)
	}
	want := make(map[string]int64, len(layeredRes.Rows))
	for _, r := range layeredRes.Rows {
		want[r[0].Str()] = r[1].Int()
	}
	if len(tipRes.Rows) != len(layeredRes.Rows) {
		panic(fmt.Sprintf("E2 verification: %d vs %d groups", len(tipRes.Rows), len(layeredRes.Rows)))
	}
	for _, r := range tipRes.Rows {
		got := int64(r[1].Obj().(temporal.Span))
		if got != want[r[0].Str()] {
			panic(fmt.Sprintf("E2 verification: %s: tip %d, layered %d", r[0].Str(), got, want[r[0].Str()]))
		}
	}
}

// E3 compares the paper's Q3 temporal self-join (who took Diabeta and
// Aspirin simultaneously, and when) on the blade vs the stratum.
func E3(sizes []int, layeredMax int) *Table {
	t := &Table{
		ID:     "E3",
		Title:  "Temporal self-join: TIP overlaps/intersect vs layered fragment join",
		Header: []string{"rows", "TIP join", "TIP rows", "layered join", "layered rows", "slowdown"},
		Notes: []string{
			"layered output is period fragments (needs re-coalescing for set semantics); TIP returns Elements directly",
		},
	}
	tipQ := `
		SELECT p1.patient, intersect(p1.valid, p2.valid)
		FROM Prescription p1, Prescription p2
		WHERE p1.drug = 'Diabeta' AND p2.drug = 'Aspirin'
		AND p1.patient = p2.patient
		AND overlaps(p1.valid, p2.valid)`
	for _, n := range sizes {
		cfg := workload.DefaultConfig(n)
		cfg.OpenFraction = 0 // fragment comparison needs determinate data
		rows := workload.Generate(cfg)
		tipSess, b := NewTIPDB()
		if err := workload.LoadTIP(tipSess, b, rows); err != nil {
			panic(err)
		}
		var tipRows int
		tipNs := timeIt(50*time.Millisecond, func() {
			res, err := tipSess.Exec(tipQ, nil)
			if err != nil {
				panic(err)
			}
			tipRows = len(res.Rows)
		})
		row := []string{fmt.Sprintf("%d", n), fmtNs(tipNs), fmt.Sprintf("%d", tipRows)}
		if n <= layeredMax {
			st := NewFlatDB()
			if err := workload.LoadLayered(st, rows); err != nil {
				panic(err)
			}
			var layeredRows int
			layeredNs := timeIt(50*time.Millisecond, func() {
				res, err := st.OverlapJoin("Prescription", "patient",
					"p1.drug = 'Diabeta'", "p2.drug = 'Aspirin'")
				if err != nil {
					panic(err)
				}
				layeredRows = len(res.Rows)
			})
			row = append(row, fmtNs(layeredNs), fmt.Sprintf("%d", layeredRows),
				fmt.Sprintf("%.1fx", layeredNs/tipNs))
		} else {
			row = append(row, "(skipped)", "-", "-")
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// E4 demonstrates NOW semantics: the same query over unchanged data
// returns different results as (simulated) time advances, and the
// what-if override reproduces any moment.
func E4() *Table {
	t := &Table{
		ID:     "E4",
		Title:  "NOW semantics: one query, unchanged data, different evaluation times",
		Header: []string{"NOW", "active prescriptions", "total open time", "eval"},
		Notes: []string{
			"query: SELECT COUNT(*), coalesced open time WHERE contains(valid, now())",
			"results change with NOW even though no data was modified (paper §2/§4)",
		},
	}
	sess, b := NewTIPDB()
	rows := workload.Generate(workload.DefaultConfig(400))
	if err := workload.LoadTIP(sess, b, rows); err != nil {
		panic(err)
	}
	q := `SELECT COUNT(*), length(group_union(valid)) FROM Prescription WHERE contains(valid, now())`
	for _, when := range []string{"1997-06-01", "1998-06-01", "1999-06-01", "1999-11-12", "2005-01-01"} {
		if _, err := sess.Exec(fmt.Sprintf("SET NOW = '%s'", when), nil); err != nil {
			panic(err)
		}
		var count int64
		var open string
		ns := timeIt(20*time.Millisecond, func() {
			res, err := sess.Exec(q, nil)
			if err != nil {
				panic(err)
			}
			count = res.Rows[0][0].Int()
			open = res.Rows[0][1].Format()
		})
		t.Rows = append(t.Rows, []string{when, fmt.Sprintf("%d", count), open, fmtNs(ns)})
	}
	return t
}

// E5 measures the size and nesting of the SQL each architecture needs
// for the paper's queries — §5's "generated queries may become very
// complex" made concrete.
func E5() *Table {
	t := &Table{
		ID:     "E5",
		Title:  "Query complexity: TIP SQL vs stratum-generated SQL",
		Header: []string{"query", "system", "chars", "tokens", "table refs", "nesting depth"},
	}
	add := func(name, system, sql string) {
		c := layered.MeasureSQL(sql)
		t.Rows = append(t.Rows, []string{name, system,
			fmt.Sprintf("%d", c.Chars), fmt.Sprintf("%d", c.Tokens),
			fmt.Sprintf("%d", c.TableRefs), fmt.Sprintf("%d", c.Depth)})
	}
	add("coalesce (Q4)", "TIP",
		`SELECT patient, length(group_union(valid)) FROM Prescription GROUP BY patient`)
	add("coalesce (Q4)", "layered", layered.TotalDurationSQL("Prescription", "patient"))
	add("overlap join (Q3)", "TIP",
		`SELECT p1.*, p2.*, intersect(p1.valid, p2.valid) FROM Prescription p1, Prescription p2
		 WHERE p1.drug = 'Diabeta' AND p2.drug = 'Aspirin' AND overlaps(p1.valid, p2.valid)`)
	add("overlap join (Q3)", "layered",
		layered.OverlapJoinSQL("Prescription", "patient", "p1.drug = 'Diabeta'", "p2.drug = 'Aspirin'")+
			" -- plus a coalescing pass over the fragments: "+layered.CoalesceSQL("fragments", "patient"))
	add("window selection", "TIP",
		`SELECT * FROM Prescription WHERE overlaps(valid, '[1999-01-01, 1999-03-31]')`)
	add("window selection", "layered", layered.WindowSQL("Prescription", 0, 0))
	return t
}

// E6 measures the period index against a full scan for overlap
// predicates across probe-window selectivities (the ref [2] ablation).
func E6(rows int, widthsDays []int) *Table {
	t := &Table{
		ID:     "E6",
		Title:  fmt.Sprintf("Period index vs scan for overlaps predicates (%d rows)", rows),
		Header: []string{"window", "selectivity", "scan", "index", "speedup"},
		Notes: []string{
			"index wins at low selectivity; the gap narrows as the window widens",
		},
	}
	data := workload.Generate(workload.DefaultConfig(rows))

	scanSess, b1 := NewTIPDB()
	if err := workload.LoadTIP(scanSess, b1, data); err != nil {
		panic(err)
	}
	idxSess, b2 := NewTIPDB()
	if err := workload.LoadTIP(idxSess, b2, data); err != nil {
		panic(err)
	}
	if _, err := idxSess.Exec(`CREATE INDEX rx_valid ON Prescription (valid) USING PERIOD`, nil); err != nil {
		panic(err)
	}
	base := temporal.MustDate(1998, 3, 1)
	for _, w := range widthsDays {
		lo := base
		hi := base + temporal.Chronon(int64(w)*86400)
		probe := fmt.Sprintf("[%s, %s]", lo, hi)
		q := fmt.Sprintf(`SELECT COUNT(*) FROM Prescription WHERE overlaps(valid, '%s')`, probe)
		var hits int64
		scanNs := timeIt(30*time.Millisecond, func() {
			res, err := scanSess.Exec(q, nil)
			if err != nil {
				panic(err)
			}
			hits = res.Rows[0][0].Int()
		})
		idxNs := timeIt(30*time.Millisecond, func() {
			res, err := idxSess.Exec(q, nil)
			if err != nil {
				panic(err)
			}
			if res.Rows[0][0].Int() != hits {
				panic("E6: index and scan disagree")
			}
		})
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%dd", w),
			fmt.Sprintf("%.1f%%", 100*float64(hits)/float64(rows)),
			fmtNs(scanNs), fmtNs(idxNs),
			fmt.Sprintf("%.1fx", scanNs/idxNs),
		})
	}
	return t
}

// E7 measures the cost of durability: insert throughput with no
// logging, with the statement WAL, and the recovery time to replay the
// resulting log — the ablation for the WAL design (an extension beyond
// the paper; see DESIGN.md).
func E7(rows int) *Table {
	t := &Table{
		ID:     "E7",
		Title:  fmt.Sprintf("Durability ablation: WAL overhead and recovery (%d inserts)", rows),
		Header: []string{"configuration", "total", "per insert"},
		Notes: []string{
			"WAL records carry the statement, its parameters and its NOW",
			"recovery = replaying the full log into a fresh engine",
		},
	}
	data := workload.Generate(workload.DefaultConfig(rows))

	run := func(db *engine.Database) time.Duration {
		sess := db.NewSession()
		if _, err := sess.Exec(workload.Schema, nil); err != nil {
			panic(err)
		}
		reg := db.Registry()
		elementT, _ := reg.LookupType("Element")
		chrononT, _ := reg.LookupType("Chronon")
		spanT, _ := reg.LookupType("Span")
		start := time.Now()
		const ins = `INSERT INTO Prescription VALUES (:doc, :pat, :dob, :drug, :dose, :freq, :valid)`
		for _, p := range data {
			params := map[string]types.Value{
				"doc":   types.NewString(p.Doctor),
				"pat":   types.NewString(p.Patient),
				"dob":   types.NewUDT(chrononT, p.PatientDOB),
				"drug":  types.NewString(p.Drug),
				"dose":  types.NewInt(p.Dosage),
				"freq":  types.NewUDT(spanT, p.Frequency),
				"valid": types.NewUDT(elementT, p.Valid),
			}
			if _, err := sess.Exec(ins, params); err != nil {
				panic(err)
			}
		}
		return time.Since(start)
	}
	newEngine := func() *engine.Database {
		reg := blade.NewRegistry()
		core.MustRegister(reg)
		db := engine.New(reg)
		db.SetClock(func() temporal.Chronon { return PinnedNow })
		return db
	}

	// Plain in-memory inserts.
	plain := run(newEngine())
	t.Rows = append(t.Rows, []string{"in-memory (no WAL)",
		plain.String(), fmtNs(float64(plain.Nanoseconds()) / float64(rows))})

	// WAL-logged inserts.
	dir, err := os.MkdirTemp("", "tipbench-wal")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	walPath := filepath.Join(dir, "wal.log")
	logged := newEngine()
	if err := logged.EnableWAL(walPath); err != nil {
		panic(err)
	}
	walDur := run(logged)
	_ = logged.DisableWAL()
	t.Rows = append(t.Rows, []string{"WAL-logged",
		walDur.String(), fmtNs(float64(walDur.Nanoseconds()) / float64(rows))})

	// Recovery replay.
	fresh := newEngine()
	start := time.Now()
	if err := fresh.ReplayWAL(walPath); err != nil {
		panic(err)
	}
	rec := time.Since(start)
	t.Rows = append(t.Rows, []string{"recovery (replay log)",
		rec.String(), fmtNs(float64(rec.Nanoseconds()) / float64(rows))})
	res, err := fresh.NewSession().Exec(`SELECT COUNT(*) FROM Prescription`, nil)
	if err != nil || res.Rows[0][0].Int() != int64(rows) {
		panic(fmt.Sprintf("E7 recovery verification: %v, %v", res, err))
	}
	return t
}

// E8 compares temporal join algorithms on a pure overlap join (no
// equality conjunct, so the temporal predicate drives the join): the
// plain nested loop versus the period-index nested-loop join. This is
// the join-side ablation of the ref [2] index line of work.
func E8(sizes []int) *Table {
	t := &Table{
		ID:     "E8",
		Title:  "Temporal join algorithms: nested loop vs period-index join (rx x visit)",
		Header: []string{"rows/table", "pairs", "nested loop", "period-index join", "speedup"},
		Notes: []string{
			"query: SELECT COUNT(*) FROM rx r, visit v WHERE overlaps(v.during, r.valid)",
			"results verified equal at every size",
		},
	}
	q := `SELECT COUNT(*) FROM rx r, visit v WHERE overlaps(v.during, r.valid)`
	for _, n := range sizes {
		build := func(indexed bool) *engine.Session {
			sess, b := NewTIPDB()
			_ = b
			if _, err := sess.Exec(`CREATE TABLE rx (id INT, valid Element)`, nil); err != nil {
				panic(err)
			}
			if _, err := sess.Exec(`CREATE TABLE visit (id INT, during Period)`, nil); err != nil {
				panic(err)
			}
			if indexed {
				if _, err := sess.Exec(`CREATE INDEX vix ON visit (during) USING PERIOD`, nil); err != nil {
					panic(err)
				}
			}
			r := rand.New(rand.NewSource(31))
			base := temporal.MustDate(1998, 1, 1)
			horizon := int64(n) * 20 * 86400 // keep join selectivity comparable
			for i := 0; i < n; i++ {
				lo := base + temporal.Chronon(r.Int63n(horizon))
				hi := lo + temporal.Chronon(r.Int63n(30*86400))
				if _, err := sess.Exec(fmt.Sprintf(`INSERT INTO rx VALUES (%d, '%s')`,
					i, temporal.MustPeriod(lo, hi).Element()), nil); err != nil {
					panic(err)
				}
				vlo := base + temporal.Chronon(r.Int63n(horizon))
				vhi := vlo + temporal.Chronon(r.Int63n(5*86400))
				if _, err := sess.Exec(fmt.Sprintf(`INSERT INTO visit VALUES (%d, '%s')`,
					i, temporal.MustPeriod(vlo, vhi)), nil); err != nil {
					panic(err)
				}
			}
			return sess
		}
		plain := build(false)
		indexed := build(true)
		var pairsPlain, pairsIdx int64
		plainNs := timeIt(50*time.Millisecond, func() {
			res, err := plain.Exec(q, nil)
			if err != nil {
				panic(err)
			}
			pairsPlain = res.Rows[0][0].Int()
		})
		idxNs := timeIt(50*time.Millisecond, func() {
			res, err := indexed.Exec(q, nil)
			if err != nil {
				panic(err)
			}
			pairsIdx = res.Rows[0][0].Int()
		})
		if pairsPlain != pairsIdx {
			panic("E8: join algorithms disagree")
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", n), fmt.Sprintf("%d", pairsPlain),
			fmtNs(plainNs), fmtNs(idxNs), fmt.Sprintf("%.1fx", plainNs/idxNs),
		})
	}
	return t
}

// E9 measures concurrency under per-table write locks and snapshot
// reads: a mixed workload where an analyst session runs long temporal
// scans over one table while writer sessions insert into their own,
// disjoint tables. The writers never meet the analyst or each other.
// The reported metrics are aggregate writer throughput and the
// analyst's scan rate.
func E9(writerCounts []int, analystRows int, runFor time.Duration) *Table {
	t := &Table{
		ID: "E9",
		Title: fmt.Sprintf("Concurrency: writer throughput beside a scanning analyst (%d-row scans, %v window)",
			analystRows, runFor),
		Header: []string{"writers", "inserts/s", "scans/s"},
		Notes: []string{
			"one analyst session loops `SELECT COUNT(*) ... WHERE overlaps(...)` full scans over rx;",
			"each writer session inserts into its own table, disjoint from rx and from each other",
		},
	}
	newEngine := func(writers int) *engine.Database {
		reg := blade.NewRegistry()
		core.MustRegister(reg)
		db := engine.New(reg)
		db.SetClock(func() temporal.Chronon { return PinnedNow })
		s := db.NewSession()
		if _, err := s.Exec(`CREATE TABLE rx (a INT, valid Element)`, nil); err != nil {
			panic(err)
		}
		elementT, _ := db.Registry().LookupType("Element")
		base := temporal.MustDate(1998, 1, 1)
		p := map[string]types.Value{}
		for i := 0; i < analystRows; i++ {
			lo := base + temporal.Chronon(int64(i%1000)*86400)
			p["a"] = types.NewInt(int64(i))
			p["v"] = types.NewUDT(elementT, temporal.MustPeriod(lo, lo+10*86400).Element())
			if _, err := s.Exec(`INSERT INTO rx VALUES (:a, :v)`, p); err != nil {
				panic(err)
			}
		}
		for i := 0; i < writers; i++ {
			if _, err := s.Exec(fmt.Sprintf(`CREATE TABLE t%d (a INT)`, i), nil); err != nil {
				panic(err)
			}
		}
		return db
	}
	// run returns aggregate writer inserts/s and analyst scans/s.
	run := func(db *engine.Database, writers int) (float64, float64) {
		var stop atomic.Bool
		var scans atomic.Int64
		var analystDone sync.WaitGroup
		analystDone.Add(1)
		go func() {
			defer analystDone.Done()
			s := db.NewSession()
			q := `SELECT COUNT(*) FROM rx WHERE overlaps(valid, '[1998-03-01, 1998-03-10]')`
			for !stop.Load() {
				if _, err := s.Exec(q, nil); err != nil {
					panic(err)
				}
				scans.Add(1)
			}
		}()
		var wg sync.WaitGroup
		var ops atomic.Int64
		start := time.Now()
		deadline := start.Add(runFor)
		for g := 0; g < writers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				s := db.NewSession()
				ins := fmt.Sprintf(`INSERT INTO t%d VALUES (:a)`, g)
				p := map[string]types.Value{}
				n := int64(0)
				for i := 0; time.Now().Before(deadline); i++ {
					p["a"] = types.NewInt(int64(i))
					if _, err := s.Exec(ins, p); err != nil {
						panic(err)
					}
					n++
				}
				ops.Add(n)
			}(g)
		}
		wg.Wait()
		elapsed := time.Since(start)
		stop.Store(true)
		analystDone.Wait()
		return float64(ops.Load()) / elapsed.Seconds(), float64(scans.Load()) / elapsed.Seconds()
	}
	for _, g := range writerCounts {
		ops, scans := run(newEngine(g), g)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", g),
			fmt.Sprintf("%.0f", ops),
			fmt.Sprintf("%.0f", scans),
		})
	}
	return t
}

// Quick returns every experiment at laptop-quick sizes; cmd/tipbench's
// -full flag widens them.
func Quick() []*Table {
	return []*Table{
		E1([]int{16, 64, 256, 1024, 4096}),
		E2([]int{50, 100, 200, 400, 800}, 200),
		E3([]int{50, 100, 200, 400, 800}, 400),
		E4(),
		E5(),
		E6(2000, []int{1, 7, 30, 120, 720}),
		E7(1000),
		E8([]int{100, 200, 400, 800}),
		E9([]int{1, 2, 4}, 2000, 400*time.Millisecond),
	}
}

// Full returns the experiments at paper-scale sizes.
func Full() []*Table {
	return []*Table{
		E1([]int{16, 64, 256, 1024, 4096, 16384, 65536}),
		E2([]int{50, 100, 200, 400, 800, 1600, 3200}, 400),
		E3([]int{50, 100, 200, 400, 800, 1600, 3200}, 800),
		E4(),
		E5(),
		E6(10000, []int{1, 7, 30, 120, 720}),
		E7(5000),
		E8([]int{100, 200, 400, 800, 1600, 3200}),
		E9([]int{1, 2, 4, 8}, 5000, time.Second),
	}
}

// ByID runs one experiment by its id at quick sizes.
func ByID(id string) (*Table, error) {
	switch strings.ToUpper(id) {
	case "E1":
		return E1([]int{16, 64, 256, 1024, 4096}), nil
	case "E2":
		return E2([]int{50, 100, 200, 400, 800}, 200), nil
	case "E3":
		return E3([]int{50, 100, 200, 400, 800}, 400), nil
	case "E4":
		return E4(), nil
	case "E5":
		return E5(), nil
	case "E6":
		return E6(2000, []int{1, 7, 30, 120, 720}), nil
	case "E7":
		return E7(1000), nil
	case "E8":
		return E8([]int{100, 200, 400, 800}), nil
	case "E9":
		return E9([]int{1, 2, 4}, 2000, 400*time.Millisecond), nil
	default:
		return nil, fmt.Errorf("bench: unknown experiment %q (want E1..E9)", id)
	}
}
