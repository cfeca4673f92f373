package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"

	"hetsyslog/bench/stat"
	"hetsyslog/internal/raceflag"
)

// skipUnderRace skips the tests that drive real traffic: the race
// detector slows the system tenfold, below the open-loop workloads' fixed
// rates, so they back up and the drain check fails for a reason that says
// nothing about the code. (The driver was run under -race once by hand
// with longer windows: no race was reported on any workload.)
func skipUnderRace(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("timing-dependent: the open-loop workloads overload under the race detector")
	}
}

// benchmarkNames reads the metric and workload names BENCHMARK.json
// promises.
func benchmarkNames(t *testing.T) (workloads, endToEndNames, perLayer []string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	for _, w := range bf.Workloads {
		workloads = append(workloads, w.Name)
	}
	for _, m := range bf.EndToEnd {
		endToEndNames = append(endToEndNames, m.Name)
	}
	for _, m := range bf.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return workloads, endToEndNames, perLayer
}

func sameSet(t *testing.T, what string, got, want []string) {
	t.Helper()
	g, w := append([]string(nil), got...), append([]string(nil), want...)
	sort.Strings(g)
	sort.Strings(w)
	if len(g) != len(w) {
		t.Fatalf("%s: driver has %v, BENCHMARK.json has %v", what, g, w)
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("%s: driver has %v, BENCHMARK.json has %v", what, g, w)
		}
	}
}

// TestEveryWorkloadRunsCorrect drives every workload for a second and
// requires the oracle green and every end-to-end metric present and
// non-zero.
func TestEveryWorkloadRunsCorrect(t *testing.T) {
	skipUnderRace(t)
	workloads, e2e, _ := benchmarkNames(t)
	sameSet(t, "workloads", workloadNames(), workloads)
	sameSet(t, "end-to-end metrics", endToEnd, e2e)
	for _, sp := range specs {
		res, err := runWorkload(runOptions{spec: sp, seed: 1, seconds: 1, setups: 1})
		if err != nil {
			t.Fatalf("%s: %v", sp.name, err)
		}
		if !res.Correct || res.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d: %v", sp.name, res.Correct, res.Attempted, res.Failed, res.Violations)
		}
		for _, name := range endToEnd {
			if m, ok := res.Metrics[name]; !ok || m.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %+v", sp.name, name, m)
			}
		}
	}
}

// TestTracedRunReportsEveryPerLayerMetric checks the traced run's metric
// names against BENCHMARK.json on a single-node and a cluster workload,
// and that the layer budget sums to one with its residual named.
func TestTracedRunReportsEveryPerLayerMetric(t *testing.T) {
	skipUnderRace(t)
	_, _, perLayer := benchmarkNames(t)
	for _, name := range []string{"ingest-zipf", "cluster-rw"} {
		sp, _ := specByName(name)
		res, err := measure(runOptions{spec: sp, seed: 2, seconds: 1, setups: 1, outDir: t.TempDir()}, true)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Correct {
			t.Errorf("%s: %v", name, res.Violations)
		}
		line := contractLine(res, true)["metrics"].(map[string]metric)
		sameSet(t, name+" per-layer metrics", sortedKeys(line), perLayer)
		sum := 0.0
		for _, row := range res.Budget {
			sum += row.Share
		}
		if len(res.Budget) != len(budgetLayers)+1 || sum < 0.98 || sum > 1.02 {
			t.Errorf("%s: budget %+v sums to %v", name, res.Budget, sum)
		}
	}
}

func summaryOf(unit string, values ...float64) *metricSummary {
	return &metricSummary{Unit: unit, Values: values, Summary: stat.Summarize(values)}
}

func TestCompareAppliesBoundsAndRefusesOtherHosts(t *testing.T) {
	var bf benchmarkFile
	if err := json.Unmarshal([]byte(`{"end_to_end":[
		{"name":"ingest_recs_per_s","better":"higher","bound":0.1},
		{"name":"refresh_p50_ms","better":"lower","bound":0.1}]}`), &bf); err != nil {
		t.Fatal(err)
	}
	host := hostStamp{NumCPU: 2, GOMAXPROCS: 2, GoVersion: "go1.24.0", CPUModel: "x"}
	mk := func(rate, refresh []float64) *report {
		return &report{Host: host, Workloads: []workloadReport{{Name: "w", Correct: true, EndToEnd: map[string]*metricSummary{
			"ingest_recs_per_s": summaryOf("rec/s", rate...),
			"refresh_p50_ms":    summaryOf("ms", refresh...),
		}}}}
	}
	steady := mk([]float64{100, 101, 99, 100, 100}, []float64{50, 50, 51, 49, 50})
	if got := compare(steady, mk([]float64{95, 96, 95, 94, 95}, []float64{52, 52, 53, 51, 52}), bf); got != 0 {
		t.Errorf("within bounds: exit %d, want 0", got)
	}
	if got := compare(steady, mk([]float64{85, 86, 85, 84, 85}, []float64{50, 50, 51, 49, 50}), bf); got != 1 {
		t.Errorf("throughput down 15%%: exit %d, want 1", got)
	}
	if got := compare(steady, mk([]float64{100, 101, 99, 100, 100}, []float64{58, 58, 59, 57, 58}), bf); got != 1 {
		t.Errorf("refresh up 16%%: exit %d, want 1", got)
	}
	// A pair too noisy to resolve the bound is not a regression, and not
	// "unchanged" either; it must not fail the comparison on its own.
	noisy := mk([]float64{60, 140, 80, 120, 100}, []float64{50, 50, 51, 49, 50})
	if got := compare(steady, noisy, bf); got != 0 {
		t.Errorf("unresolved pair: exit %d, want 0", got)
	}
	// Measuring less is not a way to pass: a workload or a metric that the
	// parent has and the change lacks fails the comparison.
	noWorkload := mk([]float64{100, 101, 99, 100, 100}, []float64{50, 50, 51, 49, 50})
	noWorkload.Workloads[0].Name = "renamed"
	if got := compare(steady, noWorkload, bf); got != 1 {
		t.Errorf("workload missing from b: exit %d, want 1", got)
	}
	noMetric := mk([]float64{100, 101, 99, 100, 100}, []float64{50, 50, 51, 49, 50})
	delete(noMetric.Workloads[0].EndToEnd, "refresh_p50_ms")
	if got := compare(steady, noMetric, bf); got != 1 {
		t.Errorf("metric missing from b: exit %d, want 1", got)
	}
	if got := compare(noMetric, steady, bf); got != 0 {
		t.Errorf("metric new in b: exit %d, want 0", got)
	}
	// failed_ratio may not rise, whatever the correct flag says.
	failing := mk([]float64{100, 101, 99, 100, 100}, []float64{50, 50, 51, 49, 50})
	failing.Workloads[0].Attempted, failing.Workloads[0].Failed = 1000, 1
	if got := compare(steady, failing, bf); got != 1 {
		t.Errorf("failed_ratio rose: exit %d, want 1", got)
	}
	other := mk([]float64{100}, []float64{50})
	other.Host.NumCPU = 1
	if got := compare(steady, other, bf); got != 2 {
		t.Errorf("different hosts: exit %d, want 2 (refused)", got)
	}
}
