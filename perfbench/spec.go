package main

import (
	"fmt"
	"math"
	"math/rand"

	"tip/internal/temporal"
	"tip/internal/workload"
)

// Statement classes. Read classes return rows; write classes are
// transactions or autocommit DML, each counted as one operation.
const (
	clsCoalesceAll     = "coalesce_all"
	clsWindowProbe     = "window_probe"
	clsNowContains     = "now_contains"
	clsOverlapJoin     = "overlap_join"
	clsHistory         = "history"
	clsPatientCoalesce = "patient_coalesce"
	clsNewRx           = "new_rx"
	clsCloseRx         = "close_rx"
	clsCancelRx        = "cancel_rx"
)

// readClasses and writeClasses list every class any workload runs; the
// per-class metric names are built from them.
var (
	readClasses  = []string{clsCoalesceAll, clsWindowProbe, clsNowContains, clsOverlapJoin, clsHistory, clsPatientCoalesce}
	writeClasses = []string{clsNewRx, clsCloseRx, clsCancelRx}
)

// classWeight is one entry of a workload's operation mix.
type classWeight struct {
	class  string
	weight float64
}

// spec describes one workload: the data, the cluster and the mix.
type spec struct {
	name    string
	rows    int     // generated Prescription rows loaded at set-up
	clients int     // closed-loop clients
	durable bool    // WAL-backed primary under the checkpoint fsync policy (see walPolicy)
	replica bool    // one snapshot-bootstrapped replica behind a client.Router
	opsPerS float64 // sizes the fixed sequence: ops = seconds × opsPerS
	mix     []classWeight
}

// clinicMix is shared by clinic_oltp and replica_reads.
var clinicMix = []classWeight{
	{clsHistory, 0.55},
	{clsPatientCoalesce, 0.20},
	{clsNewRx, 0.20},
	{clsCloseRx, 0.04},
	{clsCancelRx, 0.01},
}

var specs = []spec{
	{
		name: "temporal_analytics", rows: 20000, clients: 2, opsPerS: 90,
		mix: []classWeight{
			{clsCoalesceAll, 0.25},
			{clsWindowProbe, 0.35},
			{clsNowContains, 0.20},
			{clsOverlapJoin, 0.20},
		},
	},
	{name: "clinic_oltp", rows: 5000, clients: 2, durable: true, opsPerS: 2500, mix: clinicMix},
	{name: "replica_reads", rows: 5000, clients: 1, durable: true, replica: true, opsPerS: 1600, mix: clinicMix},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// op is one closed-loop operation: the statements a client sends back
// to back, waiting for each reply.
type op struct {
	id    int
	class string
	write bool
	stmts []string

	// For the correctness and lost-write checks.
	tag     string // doctor column of the row new_rx/cancel_rx inserts
	patient string // close_rx key
	drug    string // close_rx key
	commits bool   // the operation commits a change (new_rx, close_rx)

	// probe is window_probe's period literal, re-cast by the traced run.
	probe string
}

// Fixed statement texts of temporal_analytics. The probe months and
// join drug pairs come from small sets, so every distinct text fits in
// the engine's statement cache.
const (
	qCoalesceAll = `SELECT patient, length(group_union(valid)) FROM Prescription GROUP BY patient`
	qNowContains = `SELECT COUNT(*) FROM Prescription WHERE contains(valid, now())`
)

func qWindowProbe(lit string) string {
	return fmt.Sprintf(`SELECT COUNT(*) FROM Prescription WHERE overlaps(valid, '%s')`, lit)
}

func qOverlapJoin(d1, d2 string) string {
	return fmt.Sprintf(`SELECT p1.patient, intersect(p1.valid, p2.valid) FROM Prescription p1, Prescription p2 WHERE p1.drug = '%s' AND p2.drug = '%s' AND p1.patient = p2.patient AND overlaps(p1.valid, p2.valid)`, d1, d2)
}

// probeMonths are window_probe's literals: the months of 1998, inside
// the generated history.
func probeMonths() []string {
	var lits []string
	for m := 1; m <= 12; m++ {
		lo := temporal.MustDate(1998, m, 1)
		hi := temporal.MustDate(1998, m, 28)
		lits = append(lits, fmt.Sprintf("[%s, %s]", day(lo), day(hi)))
	}
	return lits
}

// joinPairs are overlap_join's drug pairs.
var joinPairs = [][2]string{{"Diabeta", "Aspirin"}, {"Insulin", "Lipitor"}, {"Prozac", "Ambien"}, {"Tylenol", "Motrin"}}

// day renders a chronon as a date literal.
func day(c temporal.Chronon) string {
	y, m, d, _, _, _ := c.Civil()
	return fmt.Sprintf("%04d-%02d-%02d", y, m, d)
}

// dataConfig is the generator configuration for a workload and seed.
func dataConfig(s spec, seed int64) workload.Config {
	cfg := workload.DefaultConfig(s.rows)
	cfg.Seed = seed
	return cfg
}

// numOps sizes a run's fixed operation sequence.
func numOps(s spec, seconds float64) int {
	return max(1, int(math.Round(seconds*s.opsPerS)))
}

// genOps builds the fixed operation sequence for a workload from the
// seed. The sequence, not the clock, bounds a run, so every run of a
// seed commits the same writes against the same data.
func genOps(s spec, seed int64, n int, rows []workload.Prescription) []op {
	r := rand.New(rand.NewSource(seed*7919 + int64(len(s.name))))
	var total float64
	for _, cw := range s.mix {
		total += cw.weight
	}
	months := probeMonths()
	patients := workload.DefaultConfig(s.rows).Patients
	ops := make([]op, n)
	for i := range ops {
		x := r.Float64() * total
		class := s.mix[len(s.mix)-1].class
		for _, cw := range s.mix {
			if x < cw.weight {
				class = cw.class
				break
			}
			x -= cw.weight
		}
		o := op{id: i, class: class}
		patient := fmt.Sprintf("patient%04d", r.Intn(patients))
		switch class {
		case clsCoalesceAll:
			o.stmts = []string{qCoalesceAll}
		case clsWindowProbe:
			o.probe = months[r.Intn(len(months))]
			o.stmts = []string{qWindowProbe(o.probe)}
		case clsNowContains:
			o.stmts = []string{qNowContains}
		case clsOverlapJoin:
			p := joinPairs[r.Intn(len(joinPairs))]
			o.stmts = []string{qOverlapJoin(p[0], p[1])}
		case clsHistory:
			o.stmts = []string{fmt.Sprintf(`SELECT drug, dosage, valid FROM Prescription WHERE patient = '%s'`, patient)}
		case clsPatientCoalesce:
			o.stmts = []string{fmt.Sprintf(`SELECT patient, length(group_union(valid)) FROM Prescription WHERE patient = '%s' GROUP BY patient`, patient)}
		case clsNewRx, clsCancelRx:
			o.write = true
			o.commits = class == clsNewRx
			o.tag = fmt.Sprintf("rx%07d", i)
			start := temporal.MustDate(1999, 1, 1) + temporal.Chronon(r.Intn(300)*86400)
			dob := temporal.MustDate(1930, 1, 1) + temporal.Chronon(r.Intn(25000)*86400)
			ins := fmt.Sprintf(`INSERT INTO Prescription VALUES ('%s', '%s', '%s', '%s', %d, '0 %02d:00:00', '{[%s, NOW]}')`,
				o.tag, patient, day(dob), workload.Drugs[r.Intn(len(workload.Drugs))], 1+r.Intn(4), 1+r.Intn(23), day(start))
			end := "COMMIT"
			if class == clsCancelRx {
				end = "ROLLBACK"
			}
			o.stmts = []string{"BEGIN", ins, end}
		case clsCloseRx:
			// Close an existing prescription's valid time: pick a
			// generated row so the UPDATE matches.
			row := rows[r.Intn(len(rows))]
			o.write, o.commits = true, true
			o.patient, o.drug = row.Patient, row.Drug
			lo := temporal.MustDate(1998, 1, 1) + temporal.Chronon(r.Intn(300)*86400)
			hi := temporal.MustDate(1999, 1, 1) + temporal.Chronon(r.Intn(300)*86400)
			o.stmts = []string{fmt.Sprintf(`UPDATE Prescription SET valid = '{[%s, %s]}' WHERE patient = '%s' AND drug = '%s'`,
				day(lo), day(hi), o.patient, o.drug)}
		}
		ops[i] = o
	}
	return ops
}
