package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"hetsyslog/bench/stat"
	"hetsyslog/bench/trace"
)

// hostStamp names the machine and build a number was measured on. Every
// output carries it, and compare refuses to set two hosts side by side: a
// number from a 1-core box is not evidence about a 2-core one.
type hostStamp struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
}

func stampHost() hostStamp {
	return hostStamp{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		CPUModel: cpuModel(), Commit: commit(),
	}
}

func (h hostStamp) String() string {
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d %s cpu=%q commit=%s", h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.CPUModel, h.Commit)
}

// sameHost reports whether two stamps describe comparable machines. The
// commit is what a comparison varies, so it is not part of the test.
func (h hostStamp) sameHost(o hostStamp) bool {
	return h.NumCPU == o.NumCPU && h.GOMAXPROCS == o.GOMAXPROCS && h.GoVersion == o.GoVersion && h.CPUModel == o.CPUModel
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit reads the checked-out commit from .git without running git; a
// checkout that is not a repository reports "unknown".
func commit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if name, ok := strings.CutPrefix(ref, "ref: "); ok {
		data, err := os.ReadFile(filepath.Join(".git", name))
		if err != nil {
			return "unknown"
		}
		ref = strings.TrimSpace(string(data))
	}
	if len(ref) > 12 {
		ref = ref[:12]
	}
	return ref
}

// metricSummary is one metric over the runs of a report.
type metricSummary struct {
	Unit   string    `json:"unit"`
	N      int64     `json:"samples"`
	Values []float64 `json:"values"`
	stat.Summary
}

type workloadReport struct {
	Name       string                    `json:"name"`
	Why        string                    `json:"why"`
	Correct    bool                      `json:"correct"`
	Attempted  int64                     `json:"attempted"`
	Failed     int64                     `json:"failed"`
	Violations []string                  `json:"violations,omitempty"`
	EndToEnd   map[string]*metricSummary `json:"end_to_end"`
	PerLayer   map[string]*metricSummary `json:"per_layer,omitempty"`
	Budget     []trace.Share             `json:"budget,omitempty"`
}

func (w *workloadReport) add(res *runResult) {
	w.Correct = w.Correct && res.Correct
	w.Attempted += res.Attempted
	w.Failed += res.Failed
	w.Violations = append(w.Violations, res.Violations...)
	if res.Budget != nil {
		w.Budget = res.Budget
	}
	for name, m := range res.Metrics {
		into := &w.EndToEnd
		if !isEndToEnd(name) {
			into = &w.PerLayer
		}
		if *into == nil {
			*into = make(map[string]*metricSummary)
		}
		s := (*into)[name]
		if s == nil {
			s = &metricSummary{Unit: m.Unit}
			(*into)[name] = s
		}
		s.N = m.N
		s.Values = append(s.Values, m.Value)
		s.Summary = stat.Summarize(s.Values)
	}
}

func (w *workloadReport) failedRatio() float64 {
	return div(float64(w.Failed), float64(w.Attempted))
}

func (w *workloadReport) print() {
	fmt.Printf("\n== %s — %s\n", w.Name, w.Why)
	fmt.Printf("   correct=%v attempted=%d failed=%d failed_ratio=%.3g\n",
		w.Correct, w.Attempted, w.Failed, w.failedRatio())
	for _, v := range w.Violations {
		fmt.Printf("   VIOLATION %s\n", v)
	}
	sp, _ := specByName(w.Name)
	printMetrics := func(names []string, ms map[string]*metricSummary) {
		for _, name := range names {
			s := ms[name]
			if s == nil {
				continue
			}
			line := fmt.Sprintf("   %-36s %14.6g %-6s n=%d", name, s.Median, s.Unit, s.N)
			if len(s.Values) > 1 {
				line += fmt.Sprintf("  runs=%d q1=%.6g q3=%.6g iqr/median=%.1f%% (max-min)/median=%.1f%%",
					len(s.Values), s.Q1, s.Q3, 100*s.IQRShare(), 100*s.RangeShare())
			}
			if why := sp.pinned(name); why != "" {
				line += "  (pinned by " + why + ")"
			}
			fmt.Println(line)
		}
	}
	printMetrics(endToEnd, w.EndToEnd)
	printMetrics(sortedKeys(w.PerLayer), w.PerLayer)
	if len(w.Budget) > 0 {
		fmt.Println("   layer budget (ns per record over the pipeline's two goroutines; base = 2 x wall ns/record):")
		for _, row := range w.Budget {
			fmt.Printf("     %-10s %10.0f ns  %6.1f%%\n", row.Layer, row.NsPerRec, 100*row.Share)
		}
	}
}

type report struct {
	Host      hostStamp        `json:"host"`
	Seed      int64            `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Runs      int              `json:"runs"`
	Workloads []workloadReport `json:"workloads"`
}

func (r *report) write(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	data, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "report.json")
	return path, os.WriteFile(path, data, 0o644)
}

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// benchmarkFile is the part of BENCHMARK.json compare needs: each
// end-to-end metric's direction and regression bound.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// compareReports sets report b (the change) against report a (the
// parent), metric by metric and workload by workload, under the bounds
// BENCHMARK.json fixes. A pair whose own run-to-run spread is wider than
// the bound cannot show a change that small either way: it is labelled
// unresolved, never "unchanged". A workload or metric that a has and b
// lacks fails the comparison: a change may not pass by measuring less.
func compareReports(pathA, pathB string) int {
	a, err := readReport(pathA)
	if err == nil {
		var b *report
		if b, err = readReport(pathB); err == nil {
			var data []byte
			if data, err = os.ReadFile("BENCHMARK.json"); err == nil {
				var bf benchmarkFile
				if err = json.Unmarshal(data, &bf); err == nil {
					return compare(a, b, bf)
				}
			}
		}
	}
	fmt.Fprintf(os.Stderr, "bench: compare: %v\n", err)
	return 2
}

func compare(a, b *report, bf benchmarkFile) int {
	if !a.Host.sameHost(b.Host) {
		fmt.Fprintf(os.Stderr, "bench: compare: refusing to compare different hosts:\n  a: %s\n  b: %s\n", a.Host, b.Host)
		return 2
	}
	fmt.Printf("a: %s seed=%d seconds=%g runs=%d\nb: %s seed=%d seconds=%g runs=%d\n",
		a.Host, a.Seed, a.Seconds, a.Runs, b.Host, b.Seed, b.Seconds, b.Runs)
	byName := make(map[string]workloadReport)
	for _, w := range b.Workloads {
		byName[w.Name] = w
	}
	failures := 0
	for _, wa := range a.Workloads {
		fmt.Printf("\n== %s\n", wa.Name)
		wb, ok := byName[wa.Name]
		if !ok {
			fmt.Println("   MISSING from b")
			failures++
			continue
		}
		// failed_ratio may not rise, and is 0 on every workload at the seed:
		// a run with any failure fails the comparison, and its timings are
		// not evidence of anything.
		ra, rb := wa.failedRatio(), wb.failedRatio()
		fmt.Printf("   %-20s a=%-12.6g b=%-12.6g\n", "failed_ratio", ra, rb)
		if ra > 0 || rb > 0 || !wa.Correct || !wb.Correct {
			fmt.Println("   INCORRECT: timings of a run that failed its checks are not compared")
			failures++
			continue
		}
		sp, _ := specByName(wa.Name)
		for _, e := range bf.EndToEnd {
			sa, sb := wa.EndToEnd[e.Name], wb.EndToEnd[e.Name]
			if sa == nil {
				continue // a predates the metric: nothing to compare against
			}
			if sb == nil {
				fmt.Printf("   %-20s MISSING from b\n", e.Name)
				failures++
				continue
			}
			worse := div(sb.Median-sa.Median, sa.Median)
			if e.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			switch {
			case max(sa.IQRShare(), sb.IQRShare()) > e.Bound:
				verdict = "unresolved (run-to-run spread exceeds the bound)"
			case worse > e.Bound:
				verdict = "REGRESSED"
				failures++
			case sp.pinned(e.Name) != "":
				verdict = "pinned by " + sp.pinned(e.Name) + ": not evidence"
			case worse < -e.Bound:
				verdict = "improved"
			}
			fmt.Printf("   %-20s a=%-12.6g b=%-12.6g %+6.1f%% worse  bound %.0f%%  spread a=%.1f%% b=%.1f%%  %s\n",
				e.Name, sa.Median, sb.Median, 100*worse, 100*e.Bound, 100*sa.IQRShare(), 100*sb.IQRShare(), verdict)
		}
	}
	if failures > 0 {
		return 1
	}
	return 0
}
