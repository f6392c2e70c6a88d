// Command tipbench regenerates the experiment tables of DESIGN.md and
// EXPERIMENTS.md: the element-algebra scaling series (E1), the
// blade-vs-stratum comparisons (E2, E3), the NOW-semantics sweep (E4),
// the generated-SQL complexity table (E5), the period-index selection
// ablation (E6), the WAL durability ablation (E7), the temporal-join
// algorithm comparison (E8) and disjoint-table writer throughput beside
// a scanning analyst (E9).
//
// Usage:
//
//	tipbench              # every experiment, quick sizes
//	tipbench -exp E2      # one experiment
//	tipbench -full        # paper-scale sizes (several minutes)
//	tipbench -json .      # write machine-readable BENCH_<name>.json files
//	tipbench -json . -scenario parse   # regenerate just BENCH_parse.json
//
// -json runs the throughput scenarios with statement tracing forced on
// every statement, so the reported p50/p99 come from the engine's own
// latency histograms (internal/obs), not wall-clock division.
package main

import (
	"flag"
	"fmt"
	"os"

	"tip/internal/bench"
)

func main() {
	exp := flag.String("exp", "", "run a single experiment (E1..E9)")
	full := flag.Bool("full", false, "run the full-scale sweeps")
	jsonDir := flag.String("json", "", "write machine-readable BENCH_<name>.json files to this directory")
	scenario := flag.String("scenario", "", "with -json, write only the named scenario (e.g. parse)")
	flag.Parse()

	switch {
	case *jsonDir != "":
		var results []bench.Result
		if *scenario == "parse" {
			// The parse scenario needs no engine; skip the others.
			results = []bench.Result{bench.ParseResult()}
		} else {
			results = bench.JSONResults(2000)
			if *scenario != "" {
				kept := results[:0]
				for _, r := range results {
					if r.Name == *scenario {
						kept = append(kept, r)
					}
				}
				if len(kept) == 0 {
					fmt.Fprintf(os.Stderr, "tipbench: unknown scenario %q\n", *scenario)
					os.Exit(1)
				}
				results = kept
			}
		}
		paths, err := bench.WriteJSON(*jsonDir, results)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		for _, p := range paths {
			fmt.Println(p)
		}
	case *exp != "":
		tab, err := bench.ByID(*exp)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		tab.Fprint(os.Stdout)
	case *full:
		for _, tab := range bench.Full() {
			tab.Fprint(os.Stdout)
		}
	default:
		for _, tab := range bench.Quick() {
			tab.Fprint(os.Stdout)
		}
	}
}
