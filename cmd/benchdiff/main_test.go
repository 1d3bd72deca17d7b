package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"retrodns/internal/report"
)

func loadFixture(t *testing.T, name string) *report.RunReport {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	r, err := report.ReadRunReport(f)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestCompareBaselineAgainstItself(t *testing.T) {
	b := loadFixture(t, "baseline.json")
	res := compare(b, loadFixture(t, "baseline.json"), 0.20)
	if len(res.Failures) != 0 {
		t.Errorf("baseline vs itself failed: %v", res.Failures)
	}
}

// TestCommittedBaselineSelfCompare is the acceptance pin: the committed
// BENCH_BASELINE.json must pass its own gate.
func TestCommittedBaselineSelfCompare(t *testing.T) {
	path := filepath.Join("..", "..", "BENCH_BASELINE.json")
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	b, err := report.ReadRunReport(f)
	if err != nil {
		t.Fatalf("committed baseline unreadable: %v", err)
	}
	if len(b.Funnel) == 0 || len(b.Bench) == 0 {
		t.Fatalf("committed baseline is hollow: %d funnel counts, %d bench samples", len(b.Funnel), len(b.Bench))
	}
	if res := compare(b, b, 0.20); len(res.Failures) != 0 {
		t.Errorf("committed baseline vs itself failed: %v", res.Failures)
	}
}

// TestSyntheticRegressionFails is the other acceptance pin: a 25% bench
// regression must trip the 20% gate, via the full CLI path.
func TestSyntheticRegressionFails(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-baseline", filepath.Join("testdata", "baseline.json"),
		"-bench", filepath.Join("testdata", "regressed_bench.txt"),
	}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit = %d, want 1\nstdout: %s\nstderr: %s", code, &stdout, &stderr)
	}
	if !strings.Contains(stderr.String(), "BenchmarkAddScan") {
		t.Errorf("failure does not name the regressed benchmark:\n%s", &stderr)
	}
}

func TestHealthyBenchPasses(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-baseline", filepath.Join("testdata", "baseline.json"),
		"-bench", filepath.Join("testdata", "healthy_bench.txt"),
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit = %d, want 0\nstderr: %s", code, &stderr)
	}
}

// TestRepeatedBenchLinesFold pins what repeated lines mean to the gate:
// one sample a benchmark, the fastest ns/op and the lowest allocs/op of its
// repeats. One slow repeat among fast ones is noise and passes; a benchmark
// slow (or allocating more) in every repeat fails, once.
func TestRepeatedBenchLinesFold(t *testing.T) {
	gate := func(bench string) (int, string) {
		path := filepath.Join(t.TempDir(), "bench.txt")
		if err := os.WriteFile(path, []byte(bench), 0o644); err != nil {
			t.Fatal(err)
		}
		var stdout, stderr bytes.Buffer
		code := run([]string{"-baseline", filepath.Join("testdata", "baseline.json"), "-bench", path}, &stdout, &stderr)
		return code, stderr.String()
	}
	if code, stderr := gate(`BenchmarkAddScan-8   6000   301000 ns/op   48456 B/op   787 allocs/op
BenchmarkAddScan-8   9000   189000 ns/op   48456 B/op   787 allocs/op
BenchmarkAddScan-8   7000   262000 ns/op   48456 B/op   787 allocs/op
`); code != 0 {
		t.Errorf("noisy repeats around an in-tolerance best failed the gate:\n%s", stderr)
	}
	code, stderr := gate(`BenchmarkAddScan-8   6000   301000 ns/op   48456 B/op   787 allocs/op
BenchmarkAddScan-8   7000   240000 ns/op   48456 B/op   787 allocs/op
BenchmarkAddScan-8   7000   262000 ns/op   48456 B/op   787 allocs/op
`)
	if code != 1 || strings.Count(stderr, "FAIL: ") != 1 || !strings.Contains(stderr, "188000 -> 240000 ns/op") {
		t.Errorf("exit = %d, want one failure naming the fastest repeat:\n%s", code, stderr)
	}

	folded := foldBench([]report.BenchSample{
		{Name: "A", N: 10, NsPerOp: 500, AllocsPerOp: 12},
		{Name: "B", N: 10, NsPerOp: 70},
		{Name: "A", N: 30, NsPerOp: 300, AllocsPerOp: 14},
		{Name: "A", N: 20, NsPerOp: 400, AllocsPerOp: 11},
	})
	want := []report.BenchSample{
		{Name: "A", N: 30, NsPerOp: 300, AllocsPerOp: 11},
		{Name: "B", N: 10, NsPerOp: 70},
	}
	if len(folded) != len(want) || folded[0] != want[0] || folded[1] != want[1] {
		t.Errorf("foldBench = %+v, want %+v", folded, want)
	}
	// The allocation floor is held to the baseline's like any single sample.
	b := &report.RunReport{Bench: []report.BenchSample{{Name: "A", N: 30, NsPerOp: 300, AllocsPerOp: 10}}}
	c := &report.RunReport{Bench: foldBench([]report.BenchSample{
		{Name: "A", N: 30, NsPerOp: 300, AllocsPerOp: 13}, {Name: "A", N: 30, NsPerOp: 310, AllocsPerOp: 14},
	})}
	if res := compare(b, c, 0.20); len(res.Failures) != 1 || !strings.Contains(res.Failures[0], "10 -> 13 allocs/op") {
		t.Errorf("failures = %v, want the lowest allocs/op held to the baseline's", res.Failures)
	}
}

func TestFunnelDriftFails(t *testing.T) {
	b := loadFixture(t, "baseline.json")
	c := loadFixture(t, "baseline.json")
	c.Funnel["hijacked_verdicts"]--
	res := compare(b, c, 0.20)
	if len(res.Failures) != 1 || !strings.Contains(res.Failures[0], "hijacked_verdicts") {
		t.Errorf("failures = %v, want one hijacked_verdicts drift", res.Failures)
	}

	// A vanished count is drift too, not a silent pass.
	c2 := loadFixture(t, "baseline.json")
	delete(c2.Funnel, "maps")
	if res := compare(b, c2, 0.20); len(res.Failures) == 0 {
		t.Error("missing funnel key passed the gate")
	}
}

func TestStageGateRespectsNoiseFloor(t *testing.T) {
	b := loadFixture(t, "baseline.json")

	// classify (200ms baseline) is above the floor: +50% wall fails.
	c := loadFixture(t, "baseline.json")
	c.Stages[0].WallNS = b.Stages[0].WallNS * 3 / 2
	res := compare(b, c, 0.20)
	if len(res.Failures) != 1 || !strings.Contains(res.Failures[0], "classify") {
		t.Errorf("failures = %v, want one classify regression", res.Failures)
	}

	// inspect (1ms baseline) is below minGatedStageWall: even a 10x blowup
	// is reported, not gated — single-run microsecond walls are noise.
	if time.Duration(b.Stages[1].WallNS) >= minGatedStageWall {
		t.Fatal("fixture stage no longer below the noise floor")
	}
	c2 := loadFixture(t, "baseline.json")
	c2.Stages[1].WallNS = b.Stages[1].WallNS * 10
	if res := compare(b, c2, 0.20); len(res.Failures) != 0 {
		t.Errorf("sub-floor stage regression gated: %v", res.Failures)
	}
}

// TestIOBoundBenchWiderGate pins the widened timing tolerance for
// page-cache-bound samples: a +50% ns/op swing on a segment-read
// benchmark is reported, not gated, while the same swing on a CPU-bound
// sample fails, and a genuine blowup past the widened gate still fails.
func TestIOBoundBenchWiderGate(t *testing.T) {
	b := loadFixture(t, "baseline.json")
	b.Bench = append(b.Bench, report.BenchSample{Name: "BenchmarkSegmentRead/mmap", NsPerOp: 1000})
	c := loadFixture(t, "baseline.json")
	c.Bench = append(c.Bench, report.BenchSample{Name: "BenchmarkSegmentRead/mmap", NsPerOp: 1500})
	if res := compare(b, c, 0.20); len(res.Failures) != 0 {
		t.Errorf("+50%% on io-bound bench gated: %v", res.Failures)
	}

	c2 := loadFixture(t, "baseline.json")
	c2.Bench = append(c2.Bench, report.BenchSample{Name: "BenchmarkSegmentRead/mmap", NsPerOp: 2500})
	res := compare(b, c2, 0.20)
	if len(res.Failures) != 1 || !strings.Contains(res.Failures[0], "BenchmarkSegmentRead/mmap") {
		t.Errorf("failures = %v, want one past-widened-gate regression", res.Failures)
	}

	c3 := loadFixture(t, "baseline.json")
	c3.Bench[0].NsPerOp *= 1.5 // CPU-bound sample: +50% still fails
	if res := compare(b, c3, 0.20); len(res.Failures) != 1 {
		t.Errorf("failures = %v, want the cpu-bound regression gated", res.Failures)
	}
}

// TestAllocRegressionFails pins the allocation gate: an allocs/op jump
// past allocTol fails even when ns/op is flat, in-tolerance growth
// passes, and a baseline that never measured allocations cannot gate
// them.
func TestAllocRegressionFails(t *testing.T) {
	b := loadFixture(t, "baseline.json")
	c := loadFixture(t, "baseline.json")
	for i := range b.Bench {
		b.Bench[i].AllocsPerOp = 1000
	}
	for i := range c.Bench {
		c.Bench[i].AllocsPerOp = 1000
	}
	c.Bench[0].AllocsPerOp = 1300 // +30%, ns/op untouched
	res := compare(b, c, 0.20)
	if len(res.Failures) != 1 || !strings.Contains(res.Failures[0], "allocs/op") {
		t.Errorf("failures = %v, want one allocs/op regression", res.Failures)
	}

	c.Bench[0].AllocsPerOp = 1100 // +10%: inside allocTol
	if res := compare(b, c, 0.20); len(res.Failures) != 0 {
		t.Errorf("in-tolerance alloc growth gated: %v", res.Failures)
	}

	for i := range b.Bench {
		b.Bench[i].AllocsPerOp = 0 // baseline predates -benchmem
	}
	c.Bench[0].AllocsPerOp = 90000
	if res := compare(b, c, 0.20); len(res.Failures) != 0 {
		t.Errorf("alloc gate fired without a baseline measurement: %v", res.Failures)
	}
}

func TestQuarantineDriftFails(t *testing.T) {
	b := loadFixture(t, "baseline.json")
	c := loadFixture(t, "baseline.json")
	c.Quarantine.Total = 7
	if res := compare(b, c, 0.20); len(res.Failures) == 0 {
		t.Error("quarantine drift passed the gate")
	}
}

func TestRunUsageErrors(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(nil, &stdout, &stderr); code != 2 {
		t.Errorf("no inputs: exit = %d, want 2", code)
	}
	if code := run([]string{"-report", "testdata/does-not-exist.json"}, &stdout, &stderr); code != 2 {
		t.Errorf("missing report: exit = %d, want 2", code)
	}
}

func loadSamples() []report.LoadSample {
	return []report.LoadSample{
		{Name: "replicas1/all", Requests: 10000, QPS: 5000, P50NS: 200_000, P90NS: 400_000, P99NS: 1_000_000, P999NS: 2_000_000},
		{Name: "replicas1/domain", Requests: 6000, QPS: 3000, P50NS: 220_000, P90NS: 450_000, P99NS: 1_100_000, P999NS: 2_100_000},
	}
}

func TestLoadGate(t *testing.T) {
	b := &report.RunReport{Schema: report.RunReportSchema, Load: loadSamples()}
	c := &report.RunReport{Schema: report.RunReportSchema, Load: loadSamples()}
	if res := compare(b, c, 0.20); len(res.Failures) != 0 {
		t.Fatalf("identical load failed: %v", res.Failures)
	}

	// p99 +25% trips the 20% gate.
	c = &report.RunReport{Schema: report.RunReportSchema, Load: loadSamples()}
	c.Load[0].P99NS = 1_250_000
	res := compare(b, c, 0.20)
	if len(res.Failures) != 1 || !strings.Contains(res.Failures[0], "p99") {
		t.Errorf("p99 regression: failures = %v", res.Failures)
	}

	// QPS -25% trips it too.
	c = &report.RunReport{Schema: report.RunReportSchema, Load: loadSamples()}
	c.Load[1].QPS = 2250
	res = compare(b, c, 0.20)
	if len(res.Failures) != 1 || !strings.Contains(res.Failures[0], "qps") {
		t.Errorf("qps regression: failures = %v", res.Failures)
	}

	// A baseline sample vanishing from the fresh run fails, not passes.
	c = &report.RunReport{Schema: report.RunReportSchema, Load: loadSamples()[:1]}
	if res := compare(b, c, 0.20); len(res.Failures) != 1 {
		t.Errorf("missing load sample: failures = %v", res.Failures)
	}

	// Error responses under load fail regardless of latency.
	c = &report.RunReport{Schema: report.RunReportSchema, Load: loadSamples()}
	c.Load[0].Errors = 3
	if res := compare(b, c, 0.20); len(res.Failures) != 1 {
		t.Errorf("load errors: failures = %v", res.Failures)
	}
}

func TestMinSpeedupGate(t *testing.T) {
	b := &report.RunReport{Schema: report.RunReportSchema,
		Bench: []report.BenchSample{{Name: "BenchmarkServeQuery/hit", N: 1000, NsPerOp: 10000}}}
	fast := &report.RunReport{Schema: report.RunReportSchema,
		Bench: []report.BenchSample{{Name: "BenchmarkServeQuery/hit", N: 1000, NsPerOp: 4000}}}
	slow := &report.RunReport{Schema: report.RunReportSchema,
		Bench: []report.BenchSample{{Name: "BenchmarkServeQuery/hit", N: 1000, NsPerOp: 6000}}}

	var res Result
	res.compareMinSpeedup(b, fast, map[string]float64{"BenchmarkServeQuery/hit": 2.0})
	if len(res.Failures) != 0 {
		t.Errorf("2.5x speedup failed a 2.0x requirement: %v", res.Failures)
	}
	res = Result{}
	res.compareMinSpeedup(b, slow, map[string]float64{"BenchmarkServeQuery/hit": 2.0})
	if len(res.Failures) != 1 {
		t.Errorf("1.67x speedup passed a 2.0x requirement: %v", res.Failures)
	}
	// Missing on either side is a failure, never a silent pass.
	res = Result{}
	res.compareMinSpeedup(b, &report.RunReport{}, map[string]float64{"BenchmarkServeQuery/hit": 2.0})
	if len(res.Failures) != 1 {
		t.Errorf("missing fresh sample passed: %v", res.Failures)
	}
	res = Result{}
	res.compareMinSpeedup(&report.RunReport{}, fast, map[string]float64{"BenchmarkServeQuery/hit": 2.0})
	if len(res.Failures) != 1 {
		t.Errorf("missing baseline sample passed: %v", res.Failures)
	}

	if _, err := parseMinSpeedups([]string{"NoEquals"}); err == nil {
		t.Error("malformed min-speedup accepted")
	}
	if _, err := parseMinSpeedups([]string{"B=0"}); err == nil {
		t.Error("zero factor accepted")
	}
}

// TestLoadCLIRoundTrip drives the full CLI: -update writes a baseline
// with load samples, a matching run passes, a regressed one fails.
func TestLoadCLIRoundTrip(t *testing.T) {
	dir := t.TempDir()
	writeLoad := func(name string, p99 int64, qps float64) string {
		path := filepath.Join(dir, name)
		lr := report.LoadReport{
			Schema: report.LoadReportSchema, Target: "http://test", Connections: 4,
			Samples: []report.LoadSample{{Name: "replicas1/all", Requests: 1000, QPS: qps, P50NS: 100_000, P99NS: p99}},
		}
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := lr.Encode(f); err != nil {
			t.Fatal(err)
		}
		f.Close()
		return path
	}
	good := writeLoad("good.json", 1_000_000, 5000)
	baseline := filepath.Join(dir, "LOAD_BASELINE.json")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-update", "-baseline", baseline, "-load", good}, &stdout, &stderr); code != 0 {
		t.Fatalf("update exit = %d\nstderr: %s", code, &stderr)
	}
	if code := run([]string{"-baseline", baseline, "-load", good}, &stdout, &stderr); code != 0 {
		t.Fatalf("self-compare exit = %d\nstderr: %s", code, &stderr)
	}
	bad := writeLoad("bad.json", 2_000_000, 5000)
	stderr.Reset()
	if code := run([]string{"-baseline", baseline, "-load", bad}, &stdout, &stderr); code != 1 {
		t.Fatalf("regressed load exit = %d, want 1\nstderr: %s", code, &stderr)
	}
	if !strings.Contains(stderr.String(), "p99") {
		t.Errorf("failure does not name p99:\n%s", &stderr)
	}
	// Duplicate sample names across -load files are a usage error.
	if code := run([]string{"-baseline", baseline, "-load", good, "-load", good}, &stdout, &stderr); code != 2 {
		t.Errorf("duplicate samples exit = %d, want 2", code)
	}
}

func TestUpdateWritesBaseline(t *testing.T) {
	out := filepath.Join(t.TempDir(), "baseline.json")
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-update", "-baseline", out,
		"-report", filepath.Join("testdata", "baseline.json"),
		"-bench", filepath.Join("testdata", "healthy_bench.txt"),
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("update exit = %d\nstderr: %s", code, &stderr)
	}
	// The freshly written baseline gates the same inputs cleanly.
	code = run([]string{
		"-baseline", out,
		"-report", filepath.Join("testdata", "baseline.json"),
		"-bench", filepath.Join("testdata", "healthy_bench.txt"),
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("self-compare after update: exit = %d\nstderr: %s", code, &stderr)
	}
}
