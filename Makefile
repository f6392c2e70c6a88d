GO ?= go

.PHONY: check vet build test race bench obs-smoke crash-smoke fuzz-smoke netfault-smoke mvcc-smoke plan-smoke repl-smoke parse-smoke mem-smoke

# check is what CI runs: static checks, a full build, the test suite
# under the race detector (the engine promises parallel execution across
# disjoint tables, so plain `go test` is not enough), the crash-recovery
# torture subset, the wire-fault torture subset, the MVCC snapshot
# smoke, the planner smoke, the replication smoke, the resource-
# governance smoke, and the metrics-overhead smoke.
check: vet build race parse-smoke crash-smoke netfault-smoke mvcc-smoke plan-smoke repl-smoke mem-smoke obs-smoke

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# bench regenerates the experiment tables (quick sizes).
bench:
	$(GO) run ./cmd/tipbench

# parse-smoke guards the SQL front end: the differential parity corpus
# (every statement in the test suites, examples and the workload
# generator must produce the same AST as the frozen pre-rewrite
# grammar), the committed FuzzParseParity/FuzzLexer seed corpora, the
# lexer/parser bug-sweep regressions (error line:column, malformed
# exponents), and the allocs-per-parse regression bound
# (testing.AllocsPerRun, so it runs without the race detector's
# allocation inflation).
parse-smoke:
	$(GO) test -run 'TestParseParity|TestParseScriptParity|TestParseError|TestParseMalformedExponents|TestParseAllocs|TestParseAcceptSweep|FuzzParseParity' -count=1 ./internal/sql/parse
	$(GO) test -run 'TestLexer|FuzzLexer' -count=1 ./internal/sql/scan

# crash-smoke replays the crash-torture battery (-short trims the
# random intra-frame cuts; every frame-boundary cut still runs): the WAL
# is cut at every byte offset that a real crash could leave behind and
# recovery must restore an exact prefix of committed units with no
# double-applies — including random interleaved multi-session
# BEGIN/DML/COMMIT/ROLLBACK scripts.
crash-smoke:
	$(GO) test -short -run 'TestCrashTorture|TestCheckpointCrashWindow|TestWALCorrupt|TestWALSeqGap|TestWALShortWrite|TestWALCrashSink' ./internal/engine

# netfault-smoke replays the wire-fault torture battery under the race
# detector: 1000 hostile connections (slowloris trickles, mid-frame
# severs, silent truncations, stalls) must leak no goroutines and keep
# memory bounded, cancellation racing writes must never half-apply a
# statement, and the lifecycle acceptance tests (MsgCancel and statement
# timeout under 100ms, shedding, graceful drain) must hold.
netfault-smoke:
	$(GO) test -race -run 'TestNetFault|TestLifecycle' ./internal/server

# fuzz-smoke gives each fuzz target (SQL surface and WAL frame decoder)
# a short randomized burst beyond the checked-in corpus.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzWALFrame -fuzztime 10s ./internal/engine

# mvcc-smoke exercises the MVCC snapshot layer and commit-unit
# transactions under the race detector: snapshot atomicity beside
# concurrent writers (plain, hash-index and period-index scans), no
# dirty reads, atomic multi-table commits, wait-die lock ordering, hash
# postings surviving a failed statement until ROLLBACK, the read check
# at commit (stale or dropped read tables conflict, autocommit
# statements re-run, recovery equals the live state), zero goroutine
# leaks and GC of superseded versions — then the multi-session
# transaction stress tests at 1, 2 and 4 CPUs (50 runs each), then the
# disjoint-writer benchmark with and without the scanning analyst so
# the analyst's cost to writers stays visible (scans never take locks,
# so any gap is pure CPU competition).
mvcc-smoke:
	$(GO) test -race -run 'TestMVCC|TestTxn|TestAutocommit' -count=1 ./internal/engine
	$(GO) test -race -cpu 1,2,4 -count=50 -run 'TestMultiSessionStress|TestConcurrentTransactionsPerSession' ./internal/server ./internal/engine
	$(GO) test -race -run '^$$' -bench 'BenchmarkDisjointWriters(PerTable|NoAnalyst)$$' -benchtime 200ms .

# plan-smoke exercises the cost-based planner and the batched executor
# under the race detector: the EXPLAIN/EXPLAIN ANALYZE planner-choice
# goldens (period-index probe kept and rejected by cost, sort-merge and
# hash coalesce, statistics flipping both decisions), the batched-vs-
# scalar parity property battery (GROUP BY/group_union/DISTINCT/ORDER
# BY/set ops over NULLs and period boundaries), and the layered-stratum
# agreement across every TIP coalesce plan variant (E2).
plan-smoke:
	$(GO) test -race -run 'TestPlanner|TestExplain|TestBatchedScalarParity' -count=1 ./internal/exec
	$(GO) test -race -run 'TestE2AgreesAndRuns|TestCoalescePlanVariants' -count=1 ./internal/bench ./internal/layered

# repl-smoke runs the replication torture battery under the race
# detector: a 3-node in-process cluster (durable primary + 2 snapshot-
# bootstrapped read replicas over real TCP) converging under load,
# killed replicas rejoining via snapshot + WAL catch-up, severed and
# stalled links resubscribing with exact-count (no-gap, no-double-apply)
# convergence, checkpoint truncation forcing snapshot re-bootstrap, the
# staleness-bounded read router failing over around dead and lagging
# replicas, and replica reads racing open, rolled-back and multi-row
# committed primary transactions (never an uncommitted or partial row).
repl-smoke:
	$(GO) test -race -count=1 ./internal/repl

# mem-smoke runs the resource-governance battery under the race
# detector: SET STATEMENT_MEMORY surface and budget aborts (typed
# error, all-or-nothing writes, reusable session, bounded overshoot),
# the accounting-leak invariant across the operator matrix under every
# ending (success, memory abort, timeout, interrupt, rollback), the
# >=90% accounting-coverage floor, bounded top-K parity and engagement,
# the memory-hog workload mix with and without a budget, and the wire
# layer: budget aborts as client.ErrResource on a connection that stays
# usable, memory-pressure shedding ridden out by the retry policy, the
# response frame cap, and an OOM storm with bounded heap and zero
# goroutine leaks.
mem-smoke:
	$(GO) test -race -run 'TestSetStatementMemory|TestBudgetAbort|TestMemAccountingLeakInvariant|TestAccountingCoverage' -count=1 ./internal/engine
	$(GO) test -race -run 'TestTopK' -count=1 ./internal/exec
	$(GO) test -race -run 'TestMemHog' -count=1 ./internal/workload
	$(GO) test -race -run 'TestBudgetAbortOverWire|TestMemShedThenRetry|TestResultFrameCapOverWire|TestOOMStorm' -count=1 ./internal/server

# obs-smoke compares writer throughput with the metrics subsystem on
# (BenchmarkDisjointWritersPerTable) and off (...PerTableNoObs). The
# observability overhead budget is <=5%; DESIGN.md ("Observability")
# records the measured numbers.
obs-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkDisjointWritersPerTable' -benchtime 300ms .
