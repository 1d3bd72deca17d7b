// Command benchdiff is the CI performance/correctness gate. It compares a
// fresh machine-readable run report (retrodns -report-json) plus `go test
// -bench` output against the committed baseline (BENCH_BASELINE.json) and
// exits non-zero when either
//
//   - any funnel count drifted — the seeded world is deterministic, so a
//     single-domain difference means the methodology changed, or
//   - a benchmark or a substantial pipeline stage regressed past the
//     tolerance (default 20%). A benchmark's repeated lines are folded to
//     one sample first: fastest ns/op, lowest allocs/op.
//
// It also gates serving throughput: repeatable -load flags merge
// cmd/loadgen reports (retrodns/load-report/v1) into the comparison, and
// a sample fails when its p99 regresses past the tolerance or its QPS
// falls below baseline × (1 - tolerance). -min-speedup asserts a
// committed benchmark improved by at least a factor (the zero-copy
// serve-path acceptance gate).
//
// Usage:
//
//	benchdiff -baseline BENCH_BASELINE.json -report run.json -bench bench.txt
//	benchdiff -update -baseline BENCH_BASELINE.json -report run.json -bench bench.txt
//	benchdiff -baseline LOAD_BASELINE.json -load load.json
//	benchdiff -update -baseline LOAD_BASELINE.json -load load.json
//	benchdiff -baseline BENCH_BASELINE.json -bench bench.txt -min-speedup 'BenchmarkServeQuery/hit=2.0'
//
// Exit codes: 0 gate passed, 1 gate failed, 2 usage or I/O error.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"retrodns/internal/report"
)

// multiFlag collects a repeatable string flag.
type multiFlag []string

func (m *multiFlag) String() string { return strings.Join(*m, ",") }

func (m *multiFlag) Set(v string) error {
	*m = append(*m, v)
	return nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		baselinePath = fs.String("baseline", "BENCH_BASELINE.json", "committed baseline run report")
		reportPath   = fs.String("report", "", "fresh run report (retrodns -report-json)")
		benchPath    = fs.String("bench", "", "fresh `go test -bench` output to merge into the comparison")
		tolerance    = fs.Float64("tolerance", 0.20, "allowed fractional timing regression before failing")
		update       = fs.Bool("update", false, "write -report (+ -bench/-load) as the new baseline instead of comparing")
	)
	var loadPaths multiFlag
	fs.Var(&loadPaths, "load", "cmd/loadgen report to merge into the comparison (repeatable)")
	var minSpeedups multiFlag
	fs.Var(&minSpeedups, "min-speedup", "require `Bench/name=factor` improvement over the baseline (repeatable)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *reportPath == "" && *benchPath == "" && len(loadPaths) == 0 {
		fmt.Fprintln(stderr, "benchdiff: need -report, -bench, and/or -load")
		return 2
	}
	speedups, err := parseMinSpeedups(minSpeedups)
	if err != nil {
		fmt.Fprintln(stderr, "benchdiff:", err)
		return 2
	}

	current, err := loadCurrent(*reportPath, *benchPath, loadPaths)
	if err != nil {
		fmt.Fprintln(stderr, "benchdiff:", err)
		return 2
	}

	if *update {
		// The baseline needs the funnel, stage timings, and bench samples;
		// the embedded metrics snapshot is scrape surface, not gate input,
		// and only bloats the committed file.
		current.Metrics = nil
		if err := current.WriteFile(*baselinePath); err != nil {
			fmt.Fprintln(stderr, "benchdiff:", err)
			return 2
		}
		fmt.Fprintf(stdout, "benchdiff: wrote baseline %s (%d funnel counts, %d stages, %d bench samples, %d load samples)\n",
			*baselinePath, len(current.Funnel), len(current.Stages), len(current.Bench), len(current.Load))
		return 0
	}

	baseline, err := loadReport(*baselinePath)
	if err != nil {
		fmt.Fprintln(stderr, "benchdiff:", err)
		return 2
	}
	result := compare(baseline, current, *tolerance)
	result.compareMinSpeedup(baseline, current, speedups)
	for _, line := range result.Info {
		fmt.Fprintln(stdout, "  "+line)
	}
	if len(result.Failures) > 0 {
		for _, line := range result.Failures {
			fmt.Fprintln(stderr, "FAIL: "+line)
		}
		fmt.Fprintf(stderr, "benchdiff: %d gate failure(s) against %s\n", len(result.Failures), *baselinePath)
		return 1
	}
	fmt.Fprintf(stdout, "benchdiff: ok against %s\n", *baselinePath)
	return 0
}

// loadCurrent assembles the fresh side of the comparison from a run
// report, raw bench output, and/or loadgen reports. Bench samples parsed
// from -bench replace any embedded in the report: the gate should see
// what this run measured, not what the report writer happened to embed.
// Load samples from every -load file are concatenated (runs are told
// apart by loadgen's -label prefix on the sample names).
func loadCurrent(reportPath, benchPath string, loadPaths []string) (*report.RunReport, error) {
	var current *report.RunReport
	if reportPath != "" {
		r, err := loadReport(reportPath)
		if err != nil {
			return nil, err
		}
		current = r
	} else {
		current = &report.RunReport{Schema: report.RunReportSchema}
	}
	if benchPath != "" {
		f, err := os.Open(benchPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		samples, err := report.ParseBench(f)
		if err != nil {
			return nil, err
		}
		if len(samples) == 0 {
			return nil, fmt.Errorf("%s: no benchmark samples found", benchPath)
		}
		current.Bench = foldBench(samples)
	}
	if len(loadPaths) > 0 {
		current.Load = nil
		seen := make(map[string]bool)
		for _, path := range loadPaths {
			lr, err := readLoadReport(path)
			if err != nil {
				return nil, err
			}
			if len(lr.Samples) == 0 {
				return nil, fmt.Errorf("%s: no load samples found", path)
			}
			for _, s := range lr.Samples {
				if seen[s.Name] {
					return nil, fmt.Errorf("%s: duplicate load sample %q (use -label to distinguish runs)", path, s.Name)
				}
				seen[s.Name] = true
				current.Load = append(current.Load, s)
			}
		}
	}
	return current, nil
}

func readLoadReport(path string) (*report.LoadReport, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r, err := report.ReadLoadReport(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return r, nil
}

// parseMinSpeedups parses repeated "BenchmarkName=factor" requirements.
func parseMinSpeedups(specs []string) (map[string]float64, error) {
	if len(specs) == 0 {
		return nil, nil
	}
	out := make(map[string]float64, len(specs))
	for _, spec := range specs {
		name, val, found := strings.Cut(spec, "=")
		if !found || name == "" {
			return nil, fmt.Errorf("min-speedup %q: want Benchmark/name=factor", spec)
		}
		var factor float64
		if _, err := fmt.Sscanf(val, "%g", &factor); err != nil || factor <= 0 {
			return nil, fmt.Errorf("min-speedup %q: bad factor %q", spec, val)
		}
		out[name] = factor
	}
	return out, nil
}

func loadReport(path string) (*report.RunReport, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r, err := report.ReadRunReport(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return r, nil
}
