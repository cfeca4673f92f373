// Command bench is the benchmark of record for the collector path: it
// assembles the deployed wiring in one process, drives it with seeded
// generated traffic from one sender and one dashboard user, checks what
// comes out against a brute-force reference, and prints every metric by
// name. See README.md beside this file.
//
// The contract the repository's driver runs it under:
//
//	bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// prints, as the last line of standard output, one JSON object with the
// keys correct, attempted, failed and metrics — the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		workloadName = fs.String("workload", "all", "workload to run: all, or one of "+strings.Join(workloadNames(), ", "))
		seed         = fs.Int64("seed", 1, "workload seed: the same seed gives the same traffic")
		seconds      = fs.Float64("seconds", 12, "measured seconds per run; scales every workload alike")
		traceOn      = fs.Int("trace", 0, "1 reruns each workload traced and reports the per-layer metrics")
		runs         = fs.Int("runs", 1, "repeat each workload this many times (seed, seed+1, ...) and report median, quartiles and spread")
		outDir       = fs.String("out", filepath.Join("bench", "out"), "directory for reports and traces")
		compare      = fs.Bool("compare", false, "compare two report files: bench -compare a.json b.json")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare takes two report files")
			return 2
		}
		return compareReports(fs.Arg(0), fs.Arg(1))
	}
	if *seconds <= 0 || *runs < 1 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintln(os.Stderr, "bench: -seconds and -runs must be positive, -trace 0 or 1")
		return 2
	}
	todo := specs
	if *workloadName != "all" {
		sp, ok := specByName(*workloadName)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q (have %s)\n", *workloadName, strings.Join(workloadNames(), ", "))
			return 2
		}
		todo = []spec{sp}
	}

	host := stampHost()
	rep := report{Host: host, Seed: *seed, Seconds: *seconds, Runs: *runs}
	fmt.Printf("host: %s\n", host)
	ok := true
	var last *runResult
	for _, sp := range todo {
		wr := workloadReport{Name: sp.name, Why: sp.why, Correct: true}
		for i := 0; i < *runs; i++ {
			o := runOptions{spec: sp, seed: *seed + int64(i), seconds: *seconds, setups: defaultSetups, outDir: *outDir}
			res, err := measure(o, *traceOn == 1)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", sp.name, err)
				return 1
			}
			wr.add(res)
			last = res
		}
		wr.print()
		ok = ok && wr.Correct
		rep.Workloads = append(rep.Workloads, wr)
	}
	path, err := rep.write(*outDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: writing report: %v\n", err)
		return 1
	}
	fmt.Printf("report: %s\n", path)

	if len(todo) == 1 && *runs == 1 {
		// The driver's contract: one JSON object as the last line.
		line, err := json.Marshal(contractLine(last, *traceOn == 1))
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
		fmt.Println(string(line))
	}
	if !ok {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var out []string
	for _, s := range specs {
		out = append(out, s.name)
	}
	return out
}

// measure runs one workload once. End-to-end numbers always come from an
// untraced run. With tracing asked for, the same process first measures a
// shorter untraced run for the headline figure, then the traced run for
// the per-layer numbers, reports their ratio as the tracing overhead, and
// keeps the untraced run's end-to-end figures. Both set the system up once.
func measure(o runOptions, traced bool) (*runResult, error) {
	if !traced {
		return runWorkload(o)
	}
	plain := o
	plain.seconds = min(o.seconds, max(2, o.seconds*0.4))
	plain.setups = 1
	base, err := runWorkload(plain)
	if err != nil {
		return nil, err
	}
	o.traced = true
	o.setups = 1
	res, err := runWorkload(o)
	if err != nil {
		return nil, err
	}
	res.Metrics["trace.overhead_ratio"] = metric{overhead(o.spec, base, res), "ratio", 0}
	for _, name := range endToEnd {
		res.Metrics[name] = base.Metrics[name]
	}
	res.Attempted += base.Attempted
	res.Failed += base.Failed
	res.Violations = append(res.Violations, base.Violations...)
	res.Correct = res.Failed == 0
	return res, nil
}

// overhead is the traced run's headline figure over the untraced run's,
// as a cost: time per record where the sender is closed-loop, the median
// refresh where the ingest rate is fixed by the schedule.
func overhead(sp spec, plain, traced *runResult) float64 {
	if sp.rate == 0 {
		return div(plain.Metrics["ingest_recs_per_s"].Value, traced.Metrics["ingest_recs_per_s"].Value)
	}
	return div(traced.Metrics["refresh_p50_ms"].Value, plain.Metrics["refresh_p50_ms"].Value)
}

// contractLine is the driver-facing result: the end-to-end metrics of an
// untraced run, or the per-layer metrics of a traced one.
func contractLine(res *runResult, traced bool) map[string]any {
	metrics := make(map[string]metric)
	for name, m := range res.Metrics {
		if isEndToEnd(name) != traced {
			metrics[name] = metric{Value: m.Value, Unit: m.Unit}
		}
	}
	return map[string]any{
		"correct": res.Correct, "attempted": res.Attempted, "failed": res.Failed, "metrics": metrics,
	}
}

func isEndToEnd(name string) bool {
	for _, n := range endToEnd {
		if n == name {
			return true
		}
	}
	return false
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
