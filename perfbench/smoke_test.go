package main

// Tiny-size smoke run of the benchmark: every workload in both modes at
// a small table scale and a short sequence. Run with
//
//	cd perfbench && go test ./...

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"tip/internal/workload"
)

// benchmarkFile is the part of BENCHMARK.json the smoke test checks.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// tinySpecs shrinks every workload's table to a fiftieth for the rest
// of the test.
func tinySpecs(t *testing.T) {
	saved := specs
	specs = append([]spec(nil), specs...)
	for i := range specs {
		specs[i].rows = max(40, specs[i].rows/50)
	}
	t.Cleanup(func() { specs = saved })
}

// smoke runs the benchmark with a short sequence and returns its JSON
// line; callers shrink the tables with tinySpecs first.
func smoke(t *testing.T, workload, seed, trace string) result {
	t.Helper()
	var out, errOut bytes.Buffer
	code := run([]string{"--workload", workload, "--seed", seed, "--seconds", "0.2",
		"--trace", trace, "--state-dir", t.TempDir()}, &out, &errOut)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("%s: last line is not the result (exit %d): %v\n%s\n%s", workload, code, err, out.String(), errOut.String())
	}
	if code != 0 || !r.Correct || r.Failed != 0 || r.Attempted < 1 {
		t.Fatalf("%s trace=%s: exit %d, result %+v\n%s\n%s", workload, trace, code, r, out.String(), errOut.String())
	}
	return r
}

func metricUnits(r result) map[string]string {
	m := make(map[string]string, len(r.Metrics))
	for name, v := range r.Metrics {
		m[name] = v.Unit
	}
	return m
}

func TestSmokeEmitsEveryMetric(t *testing.T) {
	tinySpecs(t)
	bf := readBenchmarkFile(t)
	wantE2E := make(map[string]string)
	for _, m := range bf.EndToEnd {
		wantE2E[m.Name] = m.Unit
	}
	wantLayer := make(map[string]string)
	for _, m := range bf.PerLayer {
		wantLayer[m.Name] = m.Unit
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	var specNames []string
	for _, s := range specs {
		specNames = append(specNames, s.name)
	}
	if !reflect.DeepEqual(names, specNames) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, specNames)
	}
	for _, w := range names {
		if got := metricUnits(smoke(t, w, "1", "0")); !reflect.DeepEqual(got, wantE2E) {
			t.Errorf("%s end-to-end metrics %v, BENCHMARK.json lists %v", w, got, wantE2E)
		}
		if got := metricUnits(smoke(t, w, "1", "1")); !reflect.DeepEqual(got, wantLayer) {
			t.Errorf("%s per-layer metrics %v, BENCHMARK.json lists %v", w, got, wantLayer)
		}
	}
}

func TestPerLayerListMatchesBenchmarkFile(t *testing.T) {
	var got, want []string
	for _, m := range perLayerMetrics() {
		got = append(got, m.name+" "+m.unit)
	}
	for _, m := range readBenchmarkFile(t).PerLayer {
		want = append(want, m.Name+" "+m.Unit)
	}
	sort.Strings(got)
	sort.Strings(want)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("perLayerMetrics %v\nBENCHMARK.json per_layer %v", got, want)
	}
}

func TestSeedsChangeSequenceNotMetricNames(t *testing.T) {
	s, _ := specByName("clinic_oltp")
	s.rows = 100
	texts := func(seed int64) []string {
		rows := workload.Generate(dataConfig(s, seed))
		var out []string
		for _, o := range genOps(s, seed, 200, rows) {
			out = append(out, strings.Join(o.stmts, ";"))
		}
		return out
	}
	if reflect.DeepEqual(texts(1), texts(2)) {
		t.Error("seeds 1 and 2 generated the same operation sequence")
	}
	if !reflect.DeepEqual(texts(3), texts(3)) {
		t.Error("one seed generated two different operation sequences")
	}
	tinySpecs(t)
	a := metricUnits(smoke(t, "temporal_analytics", "1", "0"))
	b := metricUnits(smoke(t, "temporal_analytics", "2", "0"))
	if !reflect.DeepEqual(a, b) {
		t.Errorf("seed 1 metrics %v, seed 2 metrics %v", a, b)
	}
}

// TestReferenceCatchesWrongAnswers checks that the analytics check
// fails on an answer that differs from the reference.
func TestReferenceCatchesWrongAnswers(t *testing.T) {
	s, _ := specByName("temporal_analytics")
	s.rows = 400
	rows := workload.Generate(dataConfig(s, 1))
	ref, err := buildReference(rows)
	if err != nil {
		t.Fatal(err)
	}
	c, err := setup(s, rows, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer c.remove()
	ops := genOps(s, 1, 200, rows)
	ex, err := connect(s, c, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ex.Close()
	if bad := verifyDistinct(ex, ops, ref); len(bad) != 0 {
		t.Fatalf("correct answers flagged: %v", bad)
	}
	for p := range ref.coalesce {
		ref.coalesce[p]++
		break
	}
	for lit := range ref.probe {
		ref.probe[lit]++
	}
	ref.now++
	for q := range ref.join {
		ref.join[q] = append(ref.join[q], "extra|{}")
	}
	bad := verifyDistinct(ex, ops, ref)
	classes := make(map[string]bool)
	for _, b := range bad {
		classes[strings.Fields(b)[0]] = true
	}
	for _, cls := range []string{clsCoalesceAll, clsWindowProbe, clsNowContains, clsOverlapJoin} {
		if !classes[cls] {
			t.Errorf("a wrong %s answer passed the check (flagged: %v)", cls, bad)
		}
	}
}
