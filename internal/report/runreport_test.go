package report

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"retrodns/internal/core"
	"retrodns/internal/obsv"
	"retrodns/internal/pdns"
)

// runReportFixture runs the real pipeline over the deterministic test
// dataset with an attached registry — the seeded-world shape the golden
// and determinism tests pin.
func runReportFixture(t *testing.T) RunReport {
	t.Helper()
	reg := obsv.NewRegistry()
	ds := testDataset(reg)
	p := &core.Pipeline{
		Params: core.DefaultParams(), Dataset: ds, PDNS: pdns.NewDB(),
		Metrics: reg, Workers: 2,
	}
	res := p.Run()
	return BuildRunReport(res, ds.Quarantine(), reg)
}

func TestRunReportGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := runReportFixture(t).Canonical().Encode(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "golden_runreport.json")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with UPDATE_GOLDEN=1 to regenerate)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("canonical run report drifted from golden file:\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}
}

// TestRunReportDeterministic is the acceptance pin: two fresh runs over
// the seeded world must produce byte-identical canonical reports.
func TestRunReportDeterministic(t *testing.T) {
	encode := func() []byte {
		var buf bytes.Buffer
		if err := runReportFixture(t).Canonical().Encode(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := encode(), encode()
	if len(a) == 0 {
		t.Fatal("empty report")
	}
	if !bytes.Equal(a, b) {
		t.Errorf("canonical reports differ across identical runs:\n--- a ---\n%s\n--- b ---\n%s", a, b)
	}
}

// TestRunReportRoundTrip: the full report — timings, metrics, bench
// samples — survives Encode → ReadRunReport unchanged.
func TestRunReportRoundTrip(t *testing.T) {
	r := runReportFixture(t)
	r.Bench = []BenchSample{
		{Name: "BenchmarkPipelineRun", N: 120, NsPerOp: 9_500_000, AllocsPerOp: 900},
		{Name: "BenchmarkAppendScan", N: 44000, NsPerOp: 27_000.5},
	}
	var buf bytes.Buffer
	if err := r.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadRunReport(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*got, r) {
		t.Errorf("round trip changed the report:\n got %+v\nwant %+v", *got, r)
	}
}

func TestReadRunReportRejects(t *testing.T) {
	for name, doc := range map[string]string{
		"wrong schema":  `{"schema":"retrodns/run-report/v999","workers":1,"funnel":{},"stages":null,"cache":{"hits":0,"misses":0,"dirty_cells":0,"generation":0},"quarantine":{"total":0}}`,
		"unknown field": `{"schema":"retrodns/run-report/v1","surprise":1}`,
		"trailing data": `{"schema":"retrodns/run-report/v1","workers":1,"funnel":{},"stages":null,"cache":{"hits":0,"misses":0,"dirty_cells":0,"generation":0},"quarantine":{"total":0}} {}`,
		"not json":      `stage wall 12ms`,
	} {
		if _, err := ReadRunReport(strings.NewReader(doc)); !errors.Is(err, ErrBadReport) {
			t.Errorf("%s: err = %v, want ErrBadReport", name, err)
		}
	}
}

func TestParseBench(t *testing.T) {
	out := `goos: linux
goarch: amd64
pkg: retrodns/internal/core
cpu: AMD EPYC
BenchmarkPipelineRun-8   	     120	   9500000 ns/op	  120000 B/op	     900 allocs/op
BenchmarkAppendScan-16   	   44000	     27000 ns/op
PASS
ok  	retrodns/internal/core	3.1s
`
	samples, err := ParseBench(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	want := []BenchSample{
		{Name: "BenchmarkPipelineRun", N: 120, NsPerOp: 9500000, AllocsPerOp: 900},
		{Name: "BenchmarkAppendScan", N: 44000, NsPerOp: 27000},
	}
	if !reflect.DeepEqual(samples, want) {
		t.Errorf("samples = %+v, want %+v", samples, want)
	}

	// Malformed benchmark lines fail loudly instead of parsing as empty.
	for name, bad := range map[string]string{
		"bad count": "BenchmarkX-8 onehundred 5 ns/op",
		"no ns/op":  "BenchmarkX-8 100 5 MB/s",
	} {
		if _, err := ParseBench(strings.NewReader(bad)); err == nil {
			t.Errorf("%s: parsed without error", name)
		}
	}

	// A dashless or non-numeric suffix is a name, not a parallelism tag.
	if got := normalizeBenchName("BenchmarkRun-v2"); got != "BenchmarkRun-v2" {
		t.Errorf("normalizeBenchName(BenchmarkRun-v2) = %s", got)
	}
}

// TestRunReportCanonicalStripsTimings pins the canonicalization contract:
// stage nanoseconds zeroed, _seconds families gone, bench gone, and the
// deterministic fields untouched.
func TestRunReportCanonicalStripsTimings(t *testing.T) {
	r := runReportFixture(t)
	r.Bench = []BenchSample{{Name: "BenchmarkX", N: 1, NsPerOp: 1}}
	r.ShardSkew = 1.7
	c := r.Canonical()
	if c.Bench != nil {
		t.Error("canonical report kept bench samples")
	}
	if c.ShardSkew != 0 {
		t.Errorf("canonical report kept shard skew %.2f", c.ShardSkew)
	}
	for _, s := range c.Stages {
		if s.WallNS != 0 || s.BusyNS != 0 {
			t.Errorf("canonical stage %s kept timings: wall=%d busy=%d", s.Name, s.WallNS, s.BusyNS)
		}
	}
	for _, m := range c.Metrics {
		if strings.HasSuffix(m.Name, "_seconds") {
			t.Errorf("canonical report kept timing family %s", m.Name)
		}
	}
	if len(c.Metrics) == 0 {
		t.Error("canonical report dropped all metrics, not just timing families")
	}
	if !reflect.DeepEqual(c.Funnel, r.Funnel) {
		t.Error("canonicalization changed the funnel")
	}
	// The original keeps real timings for at least one stage.
	wall := int64(0)
	for _, s := range r.Stages {
		wall += s.WallNS
	}
	if wall == 0 {
		t.Error("full report carries no stage timings")
	}
}
