// Command perfbench is TIP's end-to-end benchmark. It stands up an
// in-process TIP server (and, for replica_reads, a replica) on real TCP,
// drives it with closed-loop clients through internal/client, checks
// the answers, and prints every metric by name with its unit and sample
// count. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Workloads (see BENCHMARK.json for why each was chosen):
//
//   - temporal_analytics: read-only paper query shapes over ~20k rows.
//   - clinic_oltp: short literal statements and prescription
//     transactions against a WAL-backed primary, ~5k rows.
//   - replica_reads: the clinic_oltp mix through a client.Router over a
//     primary and one snapshot-bootstrapped replica.
//
// The seed generates both the data (internal/workload's Prescription
// generator, NOW pinned to bench.PinnedNow) and a fixed operation
// sequence. The sequence, not the clock, ends a pass: inserts grow the
// table, so a fixed sequence makes every pass of a seed do the same work
// on the same data. A --trace 0 run makes three passes, each on a
// freshly set-up cluster; the sequence holds --seconds / 3 × the
// workload's nominal rate operations, so a run measures about --seconds
// on the reference host (2 vCPUs).
//
// Read p50, peak RSS and setup_s are the gated end-to-end metrics. The
// report also prints, with sample counts, throughput, read p99, write
// p50/p99, error rate, lost-write ratio and replica lag p50/p99; they
// exist only on some workloads or repeat too loosely between runs on a
// shared host to gate on, so the traced run carries them among the
// per-layer metrics. No gated metric sees the write path.
//
// With --trace 0 the JSON holds the end-to-end metrics. With --trace 1
// the sequence runs once in each of three ways: untraced (the baseline of
// trace.overhead_ratio and the source of the write, lag, error and
// lost-write figures), traced (a span around every client call and
// replica-lag wait), and decomposed: after the load stops, a sample of
// the sequence's statements is re-issued one at a time with a span
// around each exported call the statement crosses — protocol encode and
// decode, sql/parse, the embedded engine Session.Exec, EXPLAIN ANALYZE
// for the exec operators, and the internal/temporal kernels. Spans are
// kept in memory and written to <state-dir>/spans-<workload>-<seed>.jsonl
// when the run ends; per-layer self times are derived from them. A
// per-class metric of a statement class the workload does not run
// reports 0.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"

	"tip/internal/bench"
	"tip/internal/exec"
	"tip/internal/workload"
)

// A --trace 0 run measures the operation sequence in rounds, each on a
// freshly set-up cluster, and reports the median over rounds of each
// round's throughput and latency percentiles, so one disturbed round
// does not move the result. After the rounds, setupReps more set-ups
// are timed back to back; setup_s is the median of their CPU times.
const (
	rounds    = 3
	setupReps = 11
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are the command-line settings.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	stateDir string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload name")
	fs.Int64Var(&o.seed, "seed", 1, "seed for the data and the operation sequence")
	fs.Float64Var(&o.seconds, "seconds", 10, "run length in seconds on the reference host (sizes the operation sequence)")
	fs.IntVar(&trace, "trace", 0, "1 = traced run emitting per-layer metrics")
	fs.StringVar(&o.stateDir, "state-dir", ".bench_build/perfbench", "directory for WAL, snapshot and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = trace == 1
	s, ok := specByName(o.workload)
	if !ok || o.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", o.workload, o.seconds, trace)
		return 2
	}
	r, err := execute(s, o, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !r.Correct {
		return 1
	}
	return 0
}

// report collects the human-readable lines and the JSON metrics.
type report struct {
	w       io.Writer
	metrics map[string]metric
}

func (rp *report) note(format string, args ...any) {
	fmt.Fprintf(rp.w, "# "+format+"\n", args...)
}

// put records a JSON metric and prints it with its sample count.
func (rp *report) put(name, unit string, v float64, n int) {
	rp.metrics[name] = metric{Value: v, Unit: unit}
	fmt.Fprintf(rp.w, "%-44s %14.6g %-6s n=%d\n", name, v, unit, n)
}

// show prints a metric that is not part of this mode's JSON.
func (rp *report) show(name, unit string, v float64, n int, extra string) {
	fmt.Fprintf(rp.w, "%-44s %14.6g %-6s n=%d %s\n", name, v, unit, n, extra)
}

func execute(s spec, o options, w io.Writer) (*result, error) {
	if err := os.MkdirAll(o.stateDir, 0o755); err != nil {
		return nil, err
	}
	cfg := dataConfig(s, o.seed)
	rows := workload.Generate(cfg)
	ops := genOps(s, o.seed, numOps(s, o.seconds/rounds), rows)
	rp := &report{w: w, metrics: make(map[string]metric)}
	mode := "end-to-end (untraced)"
	if o.trace {
		mode = "per-layer (untraced, traced and decomposed passes)"
	}
	rp.note("perfbench workload=%s seed=%d mode=%s", s.name, o.seed, mode)
	rp.note("machine: cpus=%d GOMAXPROCS=%d go=%s %s/%s", runtime.NumCPU(), runtime.GOMAXPROCS(0),
		runtime.Version(), runtime.GOOS, runtime.GOARCH)
	rp.note("data: NOW pinned to %s; Prescription rows=%d patients=%d (generator seed %d); indexes: period on valid, hash on patient",
		bench.PinnedNow, s.rows, cfg.Patients, o.seed)
	fsync := "none (in-memory primary)"
	if s.durable {
		fsync = "checkpoint (each commit appended and flushed to the OS before it is acknowledged; fsync at checkpoint)"
	}
	rp.note("primary: WAL fsync policy %s; replicas=%d", fsync, btoi(s.replica))
	var mix []string
	for _, cw := range s.mix {
		mix = append(mix, fmt.Sprintf("%s %.0f%%", cw.class, cw.weight*100))
	}
	client := "client.Conn"
	if s.replica {
		client = "client.Router (ReadYourWrites) holding one primary and one replica connection"
	}
	rp.note("load: closed loop, %d client(s) via %s; each client sends an operation's statements one at a time, waiting for each reply, then takes the next operation", s.clients, client)
	rp.note("sequence: %d operations fixed by the seed (%.3g s / %d rounds x %.0f ops/s nominal), each pass on a fresh cluster; mix: %s",
		len(ops), o.seconds, rounds, s.opsPerS, strings.Join(mix, ", "))

	var ref *reference
	if s.name == "temporal_analytics" {
		var err error
		if ref, err = buildReference(rows); err != nil {
			return nil, err
		}
	}
	// Each pass stops at its deadline so the whole run ends well within
	// three minutes even on a slow host; a cut pass fails the run.
	deadline := time.Duration(math.Min(40, 8*o.seconds/rounds) * float64(time.Second))
	if o.trace {
		return traced(s, o, rows, ops, ref, deadline, rp)
	}
	return endToEnd(s, o, rows, ops, ref, deadline, rp)
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// runDir is a fresh directory for one cluster's files.
func runDir(o options, k int) string {
	return filepath.Join(o.stateDir, fmt.Sprintf("run-%d-%d", os.Getpid(), k))
}

// freeMemory returns a discarded cluster's memory to the OS so the next
// measured pass starts from the same resident set and peak RSS reflects
// one cluster.
func freeMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}

// loadOutcome is everything one untraced pass and its checks produce.
type loadOutcome struct {
	bad     []string // correctness failures
	dur     durability
	reads   []float64 // ms
	writes  []float64 // ms
	lags    []float64 // ms
	lagMiss int
	tputs   []float64 // completed operations per second, per pass
	p50s    []float64 // read p50 per pass, ms
	p99s    []float64 // read p99 per pass, ms
	rssMB   float64   // peak RSS at the end of the last pass, before its checks
	ops     int       // operations attempted
	failed  int
	errText string
}

// add pools another pass's outcome into lo.
func (lo *loadOutcome) add(other *loadOutcome) {
	lo.bad = append(lo.bad, other.bad...)
	lo.reads = append(lo.reads, other.reads...)
	lo.writes = append(lo.writes, other.writes...)
	lo.lags = append(lo.lags, other.lags...)
	lo.lagMiss += other.lagMiss
	lo.tputs = append(lo.tputs, other.tputs...)
	lo.p50s = append(lo.p50s, other.p50s...)
	lo.p99s = append(lo.p99s, other.p99s...)
	lo.rssMB = max(lo.rssMB, other.rssMB)
	lo.ops += other.ops
	lo.failed += other.failed
	if lo.errText == "" {
		lo.errText = other.errText
	}
	lo.dur.against = other.dur.against
	lo.dur.lost += other.dur.lost
	lo.dur.acked += other.dur.acked
	if lo.dur.err == "" {
		lo.dur.err = other.dur.err
	}
}

// measure runs one untraced pass on a set-up cluster and checks it.
func measure(s spec, c *cluster, ops []op, ref *reference, deadline time.Duration) (*loadOutcome, error) {
	lo := &loadOutcome{}
	if ref != nil {
		ex, err := connect(s, c, nil)
		if err != nil {
			return nil, err
		}
		lo.bad = append(lo.bad, verifyDistinct(ex, ops, ref)...)
		_ = ex.Close()
	}
	p, err := runPass(s, c, ops, nil, deadline, refCheck(ref))
	if err != nil {
		return nil, err
	}
	lo.rssMB = peakRSSMB() // before the checks, so their memory is not counted
	lo.ops = len(ops)
	lo.lagMiss = p.lagMiss
	for _, ns := range p.lagNs {
		lo.lags = append(lo.lags, float64(ns)/1e6)
	}
	lo.bad = append(lo.bad, p.mismatch...)
	if p.stopped {
		lo.bad = append(lo.bad, fmt.Sprintf("deadline %s passed before the sequence finished", deadline))
	}
	for i, out := range p.outcomes {
		switch {
		case !out.acked:
			lo.failed++
			if lo.errText == "" {
				lo.errText = out.err
			}
		case ops[i].write:
			lo.writes = append(lo.writes, float64(out.ns)/1e6)
		default:
			lo.reads = append(lo.reads, float64(out.ns)/1e6)
		}
	}
	lo.tputs = []float64{float64(len(ops)-lo.failed) / p.elapsed.Seconds()}
	lo.p50s = []float64{quantile(lo.reads, 0.50)}
	lo.p99s = []float64{quantile(lo.reads, 0.99)}
	if hasWrites(s) {
		primary, err := dumpTable(c.pdb)
		if err != nil {
			return nil, fmt.Errorf("read primary: %w", err)
		}
		pix := indexTable(primary)
		lo.bad = append(lo.bad, checkLive(pix, ops, p.outcomes)...)
		lo.dur = checkDurability(s, c, pix, ops, p.outcomes)
	}
	return lo, nil
}

func hasWrites(s spec) bool {
	for _, cw := range s.mix {
		for _, wc := range writeClasses {
			if cw.class == wc {
				return true
			}
		}
	}
	return false
}

// refCheck adapts the reference's per-operation check; nil when the
// workload has no reference.
func refCheck(ref *reference) func(*op, *exec.Result) error {
	if ref == nil {
		return nil
	}
	return ref.quick
}

// printEndToEnd prints the end-to-end metrics of the untraced passes;
// inJSON selects which go into the JSON.
func printEndToEnd(rp *report, s spec, lo *loadOutcome, inJSON map[string]bool) {
	emit := func(name, unit string, v float64, n int, extra string) {
		if inJSON[name] {
			rp.put(name, unit, v, n)
			if extra != "" {
				rp.note("%s: %s", name, extra)
			}
			return
		}
		rp.show(name, unit, v, n, extra)
	}
	attempted := lo.ops
	emit("throughput_ops_s", "1/s", quantile(lo.tputs, 0.5), attempted-lo.failed,
		fmt.Sprintf("(median over passes of: %s)", fmtList(lo.tputs)))
	emit("read_p50_ms", "ms", quantile(lo.p50s, 0.5), len(lo.reads), fmt.Sprintf("(median over passes of: %s)", fmtList(lo.p50s)))
	emit("read_p99_ms", "ms", quantile(lo.p99s, 0.5), len(lo.reads), fmt.Sprintf("(median over passes of: %s)", fmtList(lo.p99s)))
	wnote := ""
	if len(lo.writes) == 0 {
		wnote = "(no writes in this workload)"
	}
	emit("write_p50_ms", "ms", quantile(lo.writes, 0.50), len(lo.writes), wnote)
	emit("write_p99_ms", "ms", quantile(lo.writes, 0.99), len(lo.writes), wnote)
	errNote := ""
	if lo.errText != "" {
		errNote = "first error: " + lo.errText
	}
	emit("error_rate", "ratio", float64(lo.failed)/float64(attempted), attempted, errNote)
	lost, lnote := 0.0, "(no writes in this workload)"
	if lo.dur.against != "" {
		if lo.dur.acked > 0 {
			lost = float64(lo.dur.lost) / float64(lo.dur.acked)
		}
		lnote = fmt.Sprintf("(%d of %d acknowledged committed writes missing from the %s)", lo.dur.lost, lo.dur.acked, lo.dur.against)
		if lo.dur.err != "" {
			lnote += "; " + lo.dur.err
		}
	}
	emit("lost_write_ratio", "ratio", lost, lo.dur.acked, lnote)
	lagNote := "(no replica in this workload)"
	if s.replica {
		lagNote = fmt.Sprintf("(Replica.WaitForSeq polls every 1 ms; %d writes never seen)", lo.lagMiss)
	}
	emit("replica_lag_p50_ms", "ms", quantile(lo.lags, 0.50), len(lo.lags), lagNote)
	emit("replica_lag_p99_ms", "ms", quantile(lo.lags, 0.99), len(lo.lags), lagNote)
}

// endToEndJSON is the --trace 0 metric set: the end-to-end metrics that
// exist, are never zero, and repeat closely enough between runs on every
// workload to gate a change on. Closed-loop throughput and read p99
// follow the tail, which on a shared 2-vCPU host moved clinic_oltp's and
// replica_reads' throughput by a fifth between runs minutes apart; they
// are printed every run and carried, ungated, among the per-layer
// metrics. Write p50 exists only where there are writes; a mix-weighted
// mean of per-class medians, writes included, spread by a quarter
// across seeds on replica_reads while the host was busy, because the
// CPU-bound close_rx scans dominate it, so it is not gated either.
var endToEndJSON = map[string]bool{"read_p50_ms": true, "setup_s": true, "peak_rss_mb": true}

func endToEnd(s spec, o options, rows []workload.Prescription, ops []op, ref *reference,
	deadline time.Duration, rp *report) (*result, error) {
	all := &loadOutcome{}
	var cold []float64
	for k := 0; k < rounds; k++ {
		c, err := setup(s, rows, runDir(o, k))
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		cold = append(cold, c.setupS)
		lo, err := measure(s, c, ops, ref, deadline)
		c.remove()
		if err != nil {
			return nil, err
		}
		all.add(lo)
		freeMemory()
	}
	// setup_s is the CPU time set-up costs the process, all threads
	// counted. Its wall time follows how much of the second CPU the
	// garbage collector and the replica get: on a 2-vCPU host shared
	// with other load, one seed's median wall time differed 2x between
	// runs, and across seeds the wall-time spread (quartile distance
	// over median) was 0.16-0.58 where the CPU time's was 0.03-0.21. The
	// timed set-ups run after the passes, so peak RSS is already read,
	// and each reuses the heap the previous one freed: a set-up on
	// memory just returned to the OS faults its heap back in, at a cost
	// that follows the host.
	var walls, cpus []float64
	for k := 0; k < setupReps; k++ {
		c, err := setup(s, rows, runDir(o, rounds+k))
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		walls = append(walls, c.setupS)
		cpus = append(cpus, c.setupCPU)
		c.remove()
	}
	printEndToEnd(rp, s, all, endToEndJSON)
	rp.put("setup_s", "s", quantile(cpus, 0.5), len(cpus))
	rp.note("setup_s: median CPU time of %d back-to-back set-ups (load, index build, replica bootstrap): %s",
		len(cpus), fmtList(cpus))
	rp.show("setup_wall_s", "s", quantile(walls, 0.5), len(walls),
		fmt.Sprintf("(wall time of the same set-ups: %s; the passes' own set-ups on a fresh heap: %s)", fmtList(walls), fmtList(cold)))
	rp.put("peak_rss_mb", "MB", all.rssMB, 1)
	rp.note("peak_rss_mb: process peak RSS read as each measured pass ends, before its checks (which run with the primary released)")
	for _, b := range all.bad {
		rp.note("CHECK FAILED: %s", b)
	}
	rp.note("checks: %s", checkSummary(s, all))
	return &result{Correct: len(all.bad) == 0, Attempted: all.ops, Failed: all.failed, Metrics: rp.metrics}, nil
}

func checkSummary(s spec, lo *loadOutcome) string {
	var parts []string
	if s.name == "temporal_analytics" {
		parts = append(parts, "every answer matches the internal/temporal reference (full on each distinct statement, count on every operation)")
	}
	if hasWrites(s) {
		parts = append(parts, "acknowledged new_rx rows present once and cancel_rx rows absent on the primary")
		parts = append(parts, fmt.Sprintf("lost writes measured against the %s", lo.dur.against))
	}
	status := "passed"
	if len(lo.bad) > 0 {
		status = fmt.Sprintf("FAILED (%d)", len(lo.bad))
	}
	return status + ": " + strings.Join(parts, "; ")
}

func fmtList(vs []float64) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = fmt.Sprintf("%.4f", v)
	}
	return strings.Join(parts, " ")
}

// quantile is the linearly interpolated q-quantile of vs (0 when empty).
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}
