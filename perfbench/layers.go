package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"tip/internal/bench"
	"tip/internal/blade"
	"tip/internal/client"
	"tip/internal/core"
	"tip/internal/engine"
	"tip/internal/protocol"
	"tip/internal/sql/parse"
	"tip/internal/temporal"
	"tip/internal/workload"
)

// Decomposition sample: every stride-th operation of the sequence, about
// decomposeOps in all, topped up so each class the workload runs has at
// least minPerClass operations.
const (
	decomposeOps = 120
	minPerClass  = 10
	kernelReps   = 5 // repetitions of each temporal kernel measurement
)

// plannerChoices are the planner decisions the engine counts as
// planner.<choice>.
var plannerChoices = []string{"scan.full", "scan.hash", "scan.period", "coalesce.hash", "coalesce.sort_merge", "agg.generic", "sort.topk"}

// layerMetric is one per-layer metric: its name, unit, which direction
// is better, and the end-to-end metric and workload it should move.
type layerMetric struct{ name, unit, better, moves string }

// Shorthands for where a layer's cost shows end to end.
const (
	movesTA     = "throughput_ops_s on temporal_analytics"
	movesClinic = "read_p50_ms on clinic_oltp"
	movesWrites = "write_p50_ms and write_p99_ms on clinic_oltp; replica_lag_p50_ms on replica_reads"
	movesRepl   = "replica_lag_p99_ms and setup_s on replica_reads"
)

// classMoves is the end-to-end metric a per-class engine or exec cost
// should move.
func classMoves(class string) string {
	switch class {
	case clsHistory, clsPatientCoalesce:
		return "read_p50_ms on clinic_oltp and replica_reads"
	case clsNewRx, clsCloseRx, clsCancelRx:
		return "write_p50_ms on clinic_oltp"
	}
	return movesTA
}

// perLayerMetrics lists every metric the traced run emits, in report
// order. BENCHMARK.json's per_layer list is this list.
func perLayerMetrics() []layerMetric {
	var m []layerMetric
	add := func(name, unit, better, moves string) { m = append(m, layerMetric{name, unit, better, moves}) }
	all := append(append([]string{}, readClasses...), writeClasses...)
	// End-to-end figures that exist only on some workloads or repeat too
	// loosely to gate on, from the untraced pass of the traced run.
	add("throughput_ops_s", "1/s", "higher", "(end to end) all workloads")
	add("read_p99_ms", "ms", "lower", "(end to end) all workloads")
	add("write_p50_ms", "ms", "lower", "(end to end) clinic_oltp, replica_reads")
	add("write_p99_ms", "ms", "lower", "(end to end) clinic_oltp, replica_reads")
	add("error_rate", "ratio", "lower", "(end to end) all workloads")
	add("lost_write_ratio", "ratio", "lower", "(end to end) clinic_oltp, replica_reads")
	add("replica_lag_p50_ms", "ms", "lower", "(end to end) replica_reads")
	add("replica_lag_p99_ms", "ms", "lower", "(end to end) replica_reads")
	add("client.retries_per_kop", "count", "lower", "error_rate on all workloads")
	add("client.router.replica_read_ratio", "ratio", "higher", "read_p50_ms on replica_reads")
	add("client.router.failovers", "count", "lower", "error_rate and read_p50_ms on replica_reads")
	add("protocol.encode_query_us", "us", "lower", movesClinic+"; flat on temporal_analytics")
	add("protocol.decode_query_us", "us", "lower", movesClinic+"; flat on temporal_analytics")
	for _, c := range readClasses {
		add("protocol.encode_result_us."+c, "us", "lower", "read_p50_ms on temporal_analytics, mainly coalesce_all")
		add("protocol.decode_result_us."+c, "us", "lower", "read_p50_ms on temporal_analytics, mainly coalesce_all")
		add("protocol.result_bytes."+c, "bytes", "lower", "read_p50_ms on temporal_analytics, mainly coalesce_all")
	}
	for _, c := range all {
		add("server.overhead_us."+c, "us", "lower", movesClinic)
	}
	add("server.shed_per_kop", "count", "lower", "error_rate on all workloads")
	add("server.errors_per_kop", "count", "lower", "error_rate on all workloads")
	add("sql.parse_us", "us", "lower", "read_p50_ms and write_p50_ms on clinic_oltp; flat on temporal_analytics")
	add("engine.plancache_hit_ratio", "ratio", "higher", "read_p50_ms and write_p50_ms on clinic_oltp (low); flat on temporal_analytics (near 1)")
	for _, c := range all {
		add("engine.stmt_p50_us."+c, "us", "lower", classMoves(c))
		add("engine.allocs_per_stmt."+c, "count", "lower", classMoves(c)+" (per-statement arena)")
		add("engine.alloc_bytes_per_stmt."+c, "bytes", "lower", classMoves(c)+" (per-statement arena)")
	}
	for _, c := range readClasses {
		add("engine.stmt_mem_peak_bytes."+c, "bytes", "lower", "peak_rss_mb on temporal_analytics")
	}
	add("engine.lock_wait_mean_us", "us", "lower", movesWrites)
	add("engine.wal_appends_per_txn", "count", "lower", movesWrites)
	add("engine.wal_bytes_per_txn", "bytes", "lower", movesWrites)
	add("engine.wal_fsyncs_per_s", "1/s", "lower", movesWrites)
	for _, c := range readClasses {
		add("exec.scan_self_us."+c, "us", "lower", classMoves(c))
	}
	add("exec.join_self_us.overlap_join", "us", "lower", movesTA)
	for _, c := range []string{clsCoalesceAll, clsWindowProbe, clsNowContains, clsPatientCoalesce} {
		add("exec.aggregate_self_us."+c, "us", "lower", classMoves(c))
	}
	for _, c := range readClasses {
		add("exec.rows_examined_per_returned."+c, "ratio", "lower", classMoves(c))
	}
	for _, p := range plannerChoices {
		add("exec.planner."+p, "count", "higher", movesTA+"; "+movesClinic+" (which access paths and coalesce strategies run)")
	}
	add("index.period_scan_self_us.window_probe", "us", "lower", movesTA)
	add("index.hash_scan_self_us.history", "us", "lower", movesClinic)
	add("temporal.literal_cast_us", "us", "lower", movesTA+" (window_probe)")
	add("temporal.union_ns_per_period", "ns", "lower", movesTA+" (coalesce_all)")
	add("temporal.intersect_ns_per_period", "ns", "lower", movesTA+" (overlap_join)")
	add("temporal.contains_now_ns", "ns", "lower", movesTA+" (now_contains)")
	add("storage.heap_bytes_per_row", "bytes", "lower", "peak_rss_mb and setup_s on all workloads")
	add("repl.frames_per_txn", "count", "lower", movesRepl)
	add("repl.lag_seq_max", "count", "lower", movesRepl)
	add("repl.bootstrap_s", "s", "lower", movesRepl)
	add("trace.overhead_ratio", "ratio", "lower", "(traced vs untraced throughput, per workload)")
	return m
}

// perLayerE2E are the end-to-end figures the traced run's JSON carries.
var perLayerE2E = map[string]bool{
	"throughput_ops_s": true, "read_p99_ms": true, "write_p50_ms": true, "write_p99_ms": true, "error_rate": true,
	"lost_write_ratio": true, "replica_lag_p50_ms": true, "replica_lag_p99_ms": true,
}

// traced is the --trace 1 run: an untraced pass, a traced pass and a
// decomposition of the traced pass's statements.
func traced(s spec, o options, rows []workload.Prescription, ops []op, ref *reference,
	deadline time.Duration, rp *report) (*result, error) {
	c, err := setup(s, rows, runDir(o, 0))
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	lo, err := measure(s, c, ops, ref, deadline)
	c.remove()
	if err != nil {
		return nil, err
	}
	freeMemory()
	rp.note("untraced pass:")
	printEndToEnd(rp, s, lo, perLayerE2E)
	bad := append([]string(nil), lo.bad...)

	c, err = setup(s, rows, runDir(o, 1))
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	defer c.remove()
	if ref != nil {
		// The same warm-up and full answer check as the untraced pass.
		ex, err := connect(s, c, nil)
		if err != nil {
			return nil, err
		}
		bad = append(bad, verifyDistinct(ex, ops, ref)...)
		_ = ex.Close()
	}
	before := engineCounters(c)
	tr := newTracer()
	tp, err := runPass(s, c, ops, tr, deadline, refCheck(ref))
	if err != nil {
		return nil, err
	}
	after := engineCounters(c)
	bad = append(bad, tp.mismatch...)
	if tp.stopped {
		bad = append(bad, fmt.Sprintf("traced pass: deadline %s passed before the sequence finished", deadline))
	}
	d, err := decompose(s, c, ops, rows, tr)
	if err != nil {
		return nil, fmt.Errorf("decompose: %w", err)
	}
	spans := append(tp.spans, d.spans...)
	path := filepath.Join(o.stateDir, fmt.Sprintf("spans-%s-%d.jsonl", s.name, o.seed))
	if err := writeSpans(path, spans); err != nil {
		return nil, err
	}
	rp.note("traced pass and decomposition: %d spans written to %s", len(spans), path)

	vals := layerValues(s, c, ops, lo, tp, d, before, after)
	for _, m := range perLayerMetrics() {
		if perLayerE2E[m.name] {
			continue // put by printEndToEnd
		}
		v := vals[m.name]
		rp.put(m.name, m.unit, v.v, v.n)
	}
	rp.note("what each per-layer metric should move:")
	for _, m := range perLayerMetrics() {
		rp.note("  %s (%s is better) -> %s", m.name, m.better, m.moves)
	}
	for _, b := range bad {
		rp.note("CHECK FAILED: %s", b)
	}
	rp.note("checks: %s", checkSummary(s, lo))
	return &result{Correct: len(bad) == 0, Attempted: len(ops), Failed: lo.failed, Metrics: rp.metrics}, nil
}

// counters is a sum of engine-registry values over the cluster's
// databases (primary and replica).
type counters map[string]float64

func engineCounters(c *cluster) counters {
	out := make(counters)
	for i, db := range []*engine.Database{c.pdb, c.rdb} {
		if db == nil {
			continue
		}
		for _, st := range db.Metrics().Snapshot() {
			out[st.Name] += st.Value
			if i == 0 {
				out["primary."+st.Name] = st.Value
			}
		}
	}
	return out
}

// valueN is a metric value and its sample count.
type valueN struct {
	v float64
	n int
}

// layerValues derives every per-layer metric.
func layerValues(s spec, c *cluster, ops []op, lo *loadOutcome, tp *pass, d *decomposition, before, after counters) map[string]valueN {
	vals := make(map[string]valueN)
	delta := func(name string) float64 { return after[name] - before[name] }
	nOps := len(ops)
	writes := 0
	for i := range ops {
		if ops[i].write {
			writes++
		}
	}
	perKop := func(x float64) valueN { return valueN{x / float64(nOps) * 1000, nOps} }
	perWrite := func(x float64) valueN {
		if writes == 0 {
			return valueN{0, 0}
		}
		return valueN{x / float64(writes), writes}
	}
	cm := tp.metrics.Snapshot()
	get := func(name string) float64 { v, _ := cm.Get(name); return v }

	vals["client.retries_per_kop"] = perKop(get("client.retries"))
	if rr, pr := get("router.reads.replica"), get("router.reads.primary"); rr+pr > 0 {
		vals["client.router.replica_read_ratio"] = valueN{rr / (rr + pr), int(rr + pr)}
	}
	vals["client.router.failovers"] = valueN{get("router.failovers"), nOps}
	vals["server.shed_per_kop"] = perKop(delta("server.shed"))
	vals["server.errors_per_kop"] = perKop(delta("server.errors"))
	if h, m := delta("plancache.hits"), delta("plancache.misses"); h+m > 0 {
		vals["engine.plancache_hit_ratio"] = valueN{h / (h + m), int(h + m)}
	}
	if n := delta("primary.lock.wait.count"); n > 0 {
		vals["engine.lock_wait_mean_us"] = valueN{delta("primary.lock.wait.sum") / n / 1e3, int(n)}
	}
	vals["engine.wal_appends_per_txn"] = perWrite(delta("primary.wal.appends"))
	vals["engine.wal_bytes_per_txn"] = perWrite(delta("primary.wal.bytes"))
	vals["engine.wal_fsyncs_per_s"] = valueN{delta("primary.wal.fsyncs") / tp.elapsed.Seconds(), int(delta("primary.wal.fsyncs"))}
	for _, p := range plannerChoices {
		vals["exec.planner."+p] = valueN{delta("planner." + p), nOps}
	}
	vals["repl.frames_per_txn"] = perWrite(delta("primary.repl.frames_shipped"))
	vals["repl.lag_seq_max"] = valueN{float64(tp.lagSeq), writes}
	vals["repl.bootstrap_s"] = valueN{c.bootstrapS, btoi(s.replica)}
	vals["storage.heap_bytes_per_row"] = valueN{c.heapPerRow, c.tableRows}
	untraced := lo.tputs[0]
	tracedDone := 0
	for _, out := range tp.outcomes {
		if out.acked {
			tracedDone++
		}
	}
	tracedTput := float64(tracedDone) / tp.elapsed.Seconds()
	vals["trace.overhead_ratio"] = valueN{untraced / tracedTput, len(tp.outcomes)}
	for k, v := range d.values {
		vals[k] = v
	}
	return vals
}

// stmtSample is what decomposing one operation measured.
type stmtSample struct {
	op      *op
	inMix   bool             // part of the stride sample (non-class metrics use only these)
	self    map[string]int64 // span name -> summed self ns over the op's statements
	stmtNs  map[string][]int64
	allocs  uint64
	bytes   uint64
	memPeak int64
	result  int // encoded result bytes
	plan    planTotals
}

// planTotals sums EXPLAIN ANALYZE operator self times over an
// operation's SELECT statements.
type planTotals struct {
	scan, join, agg, periodScan, hashScan int64 // ns
	examined, returned                    int64
}

// decomposition is the decomposed pass's spans and derived values.
type decomposition struct {
	spans  []span
	values map[string]valueN
}

// sampleOps picks the decomposition sample.
func sampleOps(ops []op) (sample []int, inMix map[int]bool) {
	stride := max(1, len(ops)/decomposeOps)
	inMix = make(map[int]bool)
	perClass := make(map[string]int)
	for i := 0; i < len(ops); i += stride {
		sample = append(sample, i)
		inMix[i] = true
		perClass[ops[i].class]++
	}
	for i := range ops {
		if !inMix[i] && perClass[ops[i].class] < minPerClass {
			sample = append(sample, i)
			perClass[ops[i].class]++
		}
	}
	return sample, inMix
}

// decompose re-issues the sampled operations one at a time on the idle
// cluster: first over the wire, then through each layer's exported call
// with a span around it. Writes are repeated, so it runs after the
// checks and its cluster is discarded.
func decompose(s spec, c *cluster, ops []op, rows []workload.Prescription, tr *tracer) (*decomposition, error) {
	reg := blade.NewRegistry()
	core.MustRegister(reg)
	wire, err := client.Connect(c.psrv.Addr(), reg)
	if err != nil {
		return nil, err
	}
	defer wire.Close()
	sess := c.pdb.NewSession()
	tableRows, err := countRows(sess)
	if err != nil {
		return nil, err
	}
	b := tr.buf()
	idx, inMix := sampleOps(ops)
	var samples []*stmtSample
	for _, i := range idx {
		o := &ops[i]
		sm := &stmtSample{op: o, inMix: inMix[i], self: make(map[string]int64), stmtNs: make(map[string][]int64)}
		root := b.begin(o.id, 0, "decompose", o.class)
		rid := b.id(root)
		timed := func(name string, fn func() error) error {
			sp := b.begin(o.id, rid, name, o.class)
			err := fn()
			b.end(sp)
			return err
		}
		for _, st := range o.stmts {
			if err := timed("client", func() error { _, err := wire.Exec(st, nil); return err }); err != nil {
				return nil, fmt.Errorf("%s over the wire: %w", o.class, err)
			}
		}
		for _, st := range o.stmts {
			var q []byte
			_ = timed("protocol.encode_query", func() error { q = protocol.EncodeQuery(protocol.Query{SQL: st}); return nil })
			if err := timed("protocol.decode_query", func() error { _, err := protocol.DecodeQuery(reg, q[1:]); return err }); err != nil {
				return nil, err
			}
			if err := timed("sql/parse", func() error { _, err := parse.Parse(st); return err }); err != nil {
				return nil, err
			}
			var ms0, ms1 runtime.MemStats
			runtime.ReadMemStats(&ms0)
			sp := b.begin(o.id, rid, "engine", o.class)
			res, err := sess.Exec(st, nil)
			b.end(sp)
			runtime.ReadMemStats(&ms1)
			if err != nil {
				return nil, fmt.Errorf("%s embedded: %w", o.class, err)
			}
			sm.allocs += ms1.Mallocs - ms0.Mallocs
			sm.bytes += ms1.TotalAlloc - ms0.TotalAlloc
			sm.memPeak = max(sm.memPeak, sess.MemPeak())
			var enc []byte
			_ = timed("protocol.encode_result", func() error { enc = protocol.EncodeResult(res); return nil })
			sm.result += len(enc)
			if err := timed("protocol.decode_result", func() error { _, err := protocol.DecodeResult(reg, enc[1:]); return err }); err != nil {
				return nil, err
			}
			if strings.HasPrefix(st, "SELECT") {
				var plan []string
				err := timed("exec", func() error {
					res, err := sess.Exec("EXPLAIN ANALYZE "+st, nil)
					if err != nil {
						return err
					}
					for _, r := range res.Rows {
						plan = append(plan, r[0].Str())
					}
					return nil
				})
				if err != nil {
					return nil, fmt.Errorf("%s EXPLAIN ANALYZE: %w", o.class, err)
				}
				sm.plan.add(readPlan(plan, tableRows))
			}
		}
		if o.probe != "" {
			_ = timed("temporal.literal_cast", func() error {
				// What the Element cast hook does with a period literal:
				// try it as an Element, then as a Period.
				if _, err := temporal.ParseElement(o.probe); err == nil {
					return nil
				}
				_, err := temporal.ParsePeriod(o.probe)
				return err
			})
		}
		b.end(root)
		samples = append(samples, sm)
	}
	// Per-op self times from the spans.
	self := selfTimes(b.spans)
	byOp := make(map[int]*stmtSample, len(samples))
	for _, sm := range samples {
		byOp[sm.op.id] = sm
	}
	for _, sp := range b.spans {
		sm := byOp[sp.Op]
		if sm == nil || sp.Parent == 0 {
			continue
		}
		sm.self[sp.Name] += self[sp.ID]
		sm.stmtNs[sp.Name] = append(sm.stmtNs[sp.Name], self[sp.ID])
	}
	d := &decomposition{values: make(map[string]valueN)}
	d.derive(samples)
	d.kernels(b, rows)
	d.spans = b.spans
	return d, nil
}

func countRows(sess *engine.Session) (int64, error) {
	res, err := sess.Exec(`SELECT COUNT(*) FROM Prescription`, nil)
	if err != nil {
		return 0, err
	}
	return res.Rows[0][0].Int(), nil
}

// derive turns the decomposed samples into per-class and per-statement
// metrics: each per-class value is the median over the class's sampled
// operations.
func (d *decomposition) derive(samples []*stmtSample) {
	byClass := make(map[string][]*stmtSample)
	for _, sm := range samples {
		byClass[sm.op.class] = append(byClass[sm.op.class], sm)
	}
	median := func(ss []*stmtSample, f func(*stmtSample) float64) valueN {
		vs := make([]float64, len(ss))
		for i, sm := range ss {
			vs[i] = f(sm)
		}
		return valueN{quantile(vs, 0.5), len(vs)}
	}
	us := func(name string) func(*stmtSample) float64 {
		return func(sm *stmtSample) float64 { return float64(sm.self[name]) / 1e3 }
	}
	for class, ss := range byClass {
		nStmts := func(sm *stmtSample) float64 { return float64(len(sm.op.stmts)) }
		d.values["engine.stmt_p50_us."+class] = median(ss, us("engine"))
		d.values["engine.allocs_per_stmt."+class] = median(ss, func(sm *stmtSample) float64 { return float64(sm.allocs) / nStmts(sm) })
		d.values["engine.alloc_bytes_per_stmt."+class] = median(ss, func(sm *stmtSample) float64 { return float64(sm.bytes) / nStmts(sm) })
		wire := median(ss, us("client"))
		d.values["server.overhead_us."+class] = valueN{wire.v - d.values["engine.stmt_p50_us."+class].v, wire.n}
		if ss[0].op.write {
			continue
		}
		d.values["engine.stmt_mem_peak_bytes."+class] = median(ss, func(sm *stmtSample) float64 { return float64(sm.memPeak) })
		d.values["protocol.encode_result_us."+class] = median(ss, us("protocol.encode_result"))
		d.values["protocol.decode_result_us."+class] = median(ss, us("protocol.decode_result"))
		d.values["protocol.result_bytes."+class] = median(ss, func(sm *stmtSample) float64 { return float64(sm.result) })
		d.values["exec.scan_self_us."+class] = median(ss, func(sm *stmtSample) float64 { return float64(sm.plan.scan) / 1e3 })
		d.values["exec.rows_examined_per_returned."+class] = median(ss, func(sm *stmtSample) float64 {
			return float64(sm.plan.examined) / float64(max(1, sm.plan.returned))
		})
		switch class {
		case clsOverlapJoin:
			d.values["exec.join_self_us."+class] = median(ss, func(sm *stmtSample) float64 { return float64(sm.plan.join) / 1e3 })
		case clsWindowProbe:
			d.values["index.period_scan_self_us."+class] = median(ss, func(sm *stmtSample) float64 { return float64(sm.plan.periodScan) / 1e3 })
			d.values["temporal.literal_cast_us"] = median(ss, us("temporal.literal_cast"))
		case clsHistory:
			d.values["index.hash_scan_self_us."+class] = median(ss, func(sm *stmtSample) float64 { return float64(sm.plan.hashScan) / 1e3 })
		}
		if class != clsOverlapJoin && class != clsHistory {
			d.values["exec.aggregate_self_us."+class] = median(ss, func(sm *stmtSample) float64 { return float64(sm.plan.agg) / 1e3 })
		}
	}
	// Per-statement layer costs over the mix-proportional sample.
	perStmt := func(name string) valueN {
		var vs []float64
		for _, sm := range samples {
			if sm.inMix {
				for _, ns := range sm.stmtNs[name] {
					vs = append(vs, float64(ns)/1e3)
				}
			}
		}
		return valueN{quantile(vs, 0.5), len(vs)}
	}
	d.values["protocol.encode_query_us"] = perStmt("protocol.encode_query")
	d.values["protocol.decode_query_us"] = perStmt("protocol.decode_query")
	d.values["sql.parse_us"] = perStmt("sql/parse")
}

// kernels times the internal/temporal kernels the workloads' statements
// lean on, over the workload's generated rows: coalescing (union), the
// overlap join's intersection and the NOW containment test. Each is
// measured kernelReps times; the median is reported.
func (d *decomposition) kernels(b *spanBuf, rows []workload.Prescription) {
	now := bench.PinnedNow
	byPatient := make(map[string][]temporal.Element)
	var keys []string
	periods := 0
	for _, r := range rows {
		if byPatient[r.Patient] == nil {
			keys = append(keys, r.Patient)
		}
		byPatient[r.Patient] = append(byPatient[r.Patient], r.Valid)
		periods += r.Valid.NumPeriods()
	}
	sort.Strings(keys)
	timeKernel := func(name string, per float64, fn func()) valueN {
		var vs []float64
		for k := 0; k < kernelReps; k++ {
			sp := b.begin(-1, 0, name, "")
			fn()
			b.end(sp)
			s := b.spans[sp]
			vs = append(vs, float64(s.End-s.Start)/per)
		}
		return valueN{quantile(vs, 0.5), kernelReps}
	}
	d.values["temporal.union_ns_per_period"] = timeKernel("temporal.union", float64(periods), func() {
		for _, k := range keys {
			var u temporal.Element
			for _, e := range byPatient[k] {
				u = u.Union(e, now)
			}
		}
	})
	pairPeriods := 0
	for _, k := range keys {
		es := byPatient[k]
		for i := 1; i < len(es); i++ {
			pairPeriods += es[i-1].NumPeriods() + es[i].NumPeriods()
		}
	}
	d.values["temporal.intersect_ns_per_period"] = timeKernel("temporal.intersect", float64(max(1, pairPeriods)), func() {
		for _, k := range keys {
			es := byPatient[k]
			for i := 1; i < len(es); i++ {
				es[i-1].Intersect(es[i], now)
			}
		}
	})
	d.values["temporal.contains_now_ns"] = timeKernel("temporal.contains_now", float64(len(rows)), func() {
		for _, r := range rows {
			r.Valid.ContainsChronon(now, now)
		}
	})
}

// planLine is one operator row of EXPLAIN ANALYZE output.
type planLine struct {
	indent int
	kind   string // select, scan, join, aggregate, sort, ...
	note   string
	rows   int64
	ns     int64
}

// readPlan sums operator self times from EXPLAIN ANALYZE output. An
// operator's self time is its reported time minus that of the operator
// rows nested directly under it. A full scan examines the whole table;
// an index scan examines the rows it reports.
func readPlan(plan []string, tableRows int64) planTotals {
	var lines []planLine
	for _, l := range plan {
		i := strings.LastIndex(l, " (actual rows=")
		if i < 0 {
			continue
		}
		var pl planLine
		head := l[:i]
		pl.indent = len(head) - len(strings.TrimLeft(head, " "))
		pl.note = strings.TrimSpace(head)
		pl.kind = strings.TrimSuffix(strings.Fields(pl.note)[0], ":")
		if pl.kind == "set" {
			pl.kind = "setop"
		}
		for _, f := range strings.Fields(strings.TrimSuffix(l[i+2:], ")")) {
			k, v, _ := strings.Cut(f, "=")
			switch k {
			case "rows":
				pl.rows, _ = strconv.ParseInt(v, 10, 64)
			case "time":
				if dur, err := time.ParseDuration(v); err == nil {
					pl.ns = dur.Nanoseconds()
				}
			}
		}
		lines = append(lines, pl)
	}
	var t planTotals
	for i, pl := range lines {
		self := pl.ns
		child := -1
		for j := i + 1; j < len(lines) && lines[j].indent > pl.indent; j++ {
			if child < 0 {
				child = lines[j].indent
			}
			if lines[j].indent == child {
				self -= lines[j].ns
			}
		}
		self = max(self, 0)
		switch pl.kind {
		case "scan":
			t.scan += self
			switch {
			case strings.Contains(pl.note, "period index"):
				t.periodScan += self
				t.examined += pl.rows
			case strings.Contains(pl.note, "hash index"):
				t.hashScan += self
				t.examined += pl.rows
			default:
				t.examined += tableRows
			}
		case "join":
			t.join += self
		case "aggregate":
			t.agg += self
		case "select":
			if pl.indent == 0 {
				t.returned += pl.rows
			}
		}
	}
	return t
}

func (t *planTotals) add(u planTotals) {
	t.scan += u.scan
	t.join += u.join
	t.agg += u.agg
	t.periodScan += u.periodScan
	t.hashScan += u.hashScan
	t.examined += u.examined
	t.returned += u.returned
}
