package main

import (
	"fmt"
	"sort"
	"strings"

	"tip/internal/bench"
	"tip/internal/engine"
	"tip/internal/exec"
	"tip/internal/temporal"
	"tip/internal/types"
	"tip/internal/workload"
)

// reference holds temporal_analytics' answers computed directly with
// internal/temporal from the generated rows, never through the engine.
type reference struct {
	coalesce map[string]temporal.Span // patient -> length(group_union(valid))
	probe    map[string]int64         // period literal -> rows overlapping it
	now      int64                    // rows whose valid time contains NOW
	join     map[string][]string      // join SQL -> sorted "patient|intersection"
}

func buildReference(rows []workload.Prescription) (*reference, error) {
	now := bench.PinnedNow
	ref := &reference{
		coalesce: make(map[string]temporal.Span),
		probe:    make(map[string]int64),
		join:     make(map[string][]string),
	}
	union := make(map[string]temporal.Element)
	for _, r := range rows {
		union[r.Patient] = union[r.Patient].Union(r.Valid, now)
		if r.Valid.ContainsChronon(now, now) {
			ref.now++
		}
	}
	for p, e := range union {
		ref.coalesce[p] = e.Length(now)
	}
	for _, lit := range probeMonths() {
		per, err := temporal.ParsePeriod(lit)
		if err != nil {
			return nil, fmt.Errorf("probe literal %s: %w", lit, err)
		}
		window := temporal.MustElement(per)
		for _, r := range rows {
			if r.Valid.Overlaps(window, now) {
				ref.probe[lit]++
			}
		}
	}
	byDrug := make(map[string][]workload.Prescription)
	for _, r := range rows {
		byDrug[r.Drug] = append(byDrug[r.Drug], r)
	}
	for _, pair := range joinPairs {
		var out []string
		for _, a := range byDrug[pair[0]] {
			for _, b := range byDrug[pair[1]] {
				if a.Patient == b.Patient && a.Valid.Overlaps(b.Valid, now) {
					out = append(out, a.Patient+"|"+a.Valid.Intersect(b.Valid, now).BoundElement(now).String())
				}
			}
		}
		sort.Strings(out)
		ref.join[qOverlapJoin(pair[0], pair[1])] = out
	}
	return ref, nil
}

// quick compares the parts of an answer that cost nothing to read: the
// row count, or the COUNT(*) value. It runs on every operation.
func (ref *reference) quick(o *op, res *exec.Result) error {
	switch o.class {
	case clsCoalesceAll:
		return wantInt("groups", int64(len(res.Rows)), int64(len(ref.coalesce)))
	case clsWindowProbe:
		return wantCount(res, ref.probe[o.probe])
	case clsNowContains:
		return wantCount(res, ref.now)
	case clsOverlapJoin:
		return wantInt("join pairs", int64(len(res.Rows)), int64(len(ref.join[o.stmts[0]])))
	}
	return nil
}

// full compares every value of an answer. It runs once per distinct
// statement text, before the timed pass.
func (ref *reference) full(o *op, res *exec.Result) error {
	if err := ref.quick(o, res); err != nil {
		return err
	}
	now := bench.PinnedNow
	switch o.class {
	case clsCoalesceAll:
		for _, row := range res.Rows {
			got, ok := row[1].Obj().(temporal.Span)
			want, found := ref.coalesce[row[0].Str()]
			if !ok || !found || got != want {
				return fmt.Errorf("coalesced length of %s = %s, want %s", row[0].Str(), row[1].Format(), want)
			}
		}
	case clsOverlapJoin:
		got := make([]string, 0, len(res.Rows))
		for _, row := range res.Rows {
			e, ok := row[1].Obj().(temporal.Element)
			if !ok {
				return fmt.Errorf("join column is %s, not an Element", row[1].T)
			}
			got = append(got, row[0].Str()+"|"+e.BoundElement(now).String())
		}
		sort.Strings(got)
		want := ref.join[o.stmts[0]]
		for i := range got {
			if got[i] != want[i] {
				return fmt.Errorf("join pair %d = %s, want %s", i, got[i], want[i])
			}
		}
	}
	return nil
}

func wantInt(what string, got, want int64) error {
	if got != want {
		return fmt.Errorf("%s = %d, want %d", what, got, want)
	}
	return nil
}

func wantCount(res *exec.Result, want int64) error {
	if len(res.Rows) != 1 || len(res.Rows[0]) != 1 {
		return fmt.Errorf("COUNT(*) returned %d rows", len(res.Rows))
	}
	return wantInt("COUNT(*)", res.Rows[0][0].Int(), want)
}

// verifyDistinct runs each distinct statement text once over the wire
// and checks the full answer. It also warms the statement cache and the
// lazily built period index before timing starts.
func verifyDistinct(ex executor, ops []op, ref *reference) []string {
	seen := make(map[string]bool)
	var bad []string
	for i := range ops {
		o := &ops[i]
		if o.write || seen[o.stmts[0]] {
			continue
		}
		seen[o.stmts[0]] = true
		res, err := ex.Exec(o.stmts[0], nil)
		if err != nil {
			bad = append(bad, fmt.Sprintf("%s: %v", o.class, err))
			continue
		}
		if err := ref.full(o, res); err != nil {
			bad = append(bad, fmt.Sprintf("%s %q: %v", o.class, o.stmts[0], err))
		}
	}
	return bad
}

// tableRow is one Prescription row rendered for comparison.
type tableRow struct {
	doctor, patient, drug, rest string
}

// dumpTable reads the whole Prescription table through an embedded
// session.
func dumpTable(db *engine.Database) ([]tableRow, error) {
	res, err := db.NewSession().Exec(`SELECT doctor, patient, drug, dosage, frequency, valid FROM Prescription`, nil)
	if err != nil {
		return nil, err
	}
	rows := make([]tableRow, len(res.Rows))
	for i, r := range res.Rows {
		rows[i] = tableRow{doctor: r[0].Str(), patient: r[1].Str(), drug: r[2].Str(),
			rest: formatValues(r[3:])}
	}
	return rows, nil
}

func formatValues(vs []types.Value) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = v.Format()
	}
	return strings.Join(parts, ",")
}

// tableIndex groups a table dump by the keys the writes touch.
type tableIndex struct {
	byTag map[string][]string // doctor -> rendered rows
	byKey map[string][]string // patient|drug -> sorted rendered rows
}

func indexTable(rows []tableRow) tableIndex {
	ix := tableIndex{byTag: make(map[string][]string), byKey: make(map[string][]string)}
	for _, r := range rows {
		line := r.doctor + "," + r.patient + "," + r.drug + "," + r.rest
		ix.byTag[r.doctor] = append(ix.byTag[r.doctor], line)
		k := r.patient + "|" + r.drug
		ix.byKey[k] = append(ix.byKey[k], line)
	}
	for _, v := range ix.byKey {
		sort.Strings(v)
	}
	return ix
}

// checkLive verifies the primary's final state against what the
// clients were told: every acknowledged new_rx row is present exactly
// once and no cancelled row is.
func checkLive(primary tableIndex, ops []op, out []outcome) []string {
	var bad []string
	for i := range ops {
		o := &ops[i]
		if !out[i].acked || o.tag == "" {
			continue
		}
		n := len(primary.byTag[o.tag])
		switch {
		case o.commits && n != 1:
			bad = append(bad, fmt.Sprintf("committed row %s present %d times", o.tag, n))
		case !o.commits && n != 0:
			bad = append(bad, fmt.Sprintf("rolled-back row %s present %d times", o.tag, n))
		}
	}
	return bad
}

// lostWrites counts acknowledged committed writes whose effect on the
// primary is missing from other (the recovered database or the
// replica): a new_rx row absent or different, or a close_rx key whose
// rows differ.
func lostWrites(primary, other tableIndex, ops []op, out []outcome) (lost, acked int) {
	for i := range ops {
		o := &ops[i]
		if !out[i].acked || !o.commits {
			continue
		}
		acked++
		var a, b []string
		if o.tag != "" {
			a, b = primary.byTag[o.tag], other.byTag[o.tag]
		} else {
			k := o.patient + "|" + o.drug
			a, b = primary.byKey[k], other.byKey[k]
		}
		if strings.Join(a, "\n") != strings.Join(b, "\n") {
			lost++
		}
	}
	return lost, acked
}

// recoverWAL rebuilds the primary from its checkpoint snapshot and WAL
// in a fresh engine, as a restart would. The replay error, if any, is
// returned beside whatever state the replay reached.
func recoverWAL(c *cluster) (*engine.Database, error) {
	db, _ := newEngine()
	if err := db.Load(c.snapPath); err != nil {
		return db, fmt.Errorf("load snapshot: %w", err)
	}
	return db, db.ReplayWAL(c.walPath)
}

// durability is the lost-write check's outcome.
type durability struct {
	against string // "recovered WAL" or "converged replica"
	lost    int
	acked   int
	err     string // recovery or convergence failure, reported not fatal
}

// checkDurability compares the primary's final state with the state a
// restart recovers (durable primary) or the replica converges to. The
// primary is released first, so the recovered copy reuses its memory
// instead of adding to the process's peak.
func checkDurability(s spec, c *cluster, primary tableIndex, ops []op, out []outcome) durability {
	var d durability
	other := c.rdb
	if s.replica {
		d.against = "converged replica"
		if seq := c.pdb.WALSeq(); !c.rep.WaitForSeq(seq, lagWait) {
			d.err = fmt.Sprintf("replica applied seq %d of %d after %s", c.rep.AppliedSeq(), seq, lagWait)
		}
		c.releasePrimary()
	} else {
		d.against = "recovered WAL"
		c.releasePrimary()
		var err error
		other, err = recoverWAL(c)
		if err != nil {
			d.err = err.Error()
		}
	}
	rows, err := dumpTable(other)
	if err != nil {
		// Nothing recovered at all: every acknowledged write is lost.
		rows = nil
		if d.err == "" {
			d.err = err.Error()
		}
	}
	d.lost, d.acked = lostWrites(primary, indexTable(rows), ops, out)
	return d
}
