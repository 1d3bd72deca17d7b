//go:build linux

package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"
)

// The tests run every workload at a tiny scale: 200 domains x 8 scans, a
// fraction of a second of measuring each. Children run in-process.
const (
	testDomains = 200
	testScans   = 8
	testSeconds = 0.3
)

// inProcess stands in for spawnSelf: the child runs as a call, and its usage
// is the test process's own.
func inProcess(args ...string) (childUsage, error) {
	start := time.Now()
	code := dispatch(args, io.Discard, os.Stderr)
	u := childUsage{wall: time.Since(start)}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return u, err
	}
	u.maxRSSMB, u.userS, u.sysS = float64(ru.Maxrss)/1024, tvSeconds(ru.Utime), tvSeconds(ru.Stime)
	if code != 0 {
		return u, fmt.Errorf("%s: exit %d", args[0], code)
	}
	return u, nil
}

func tinySpec(t *testing.T, name string) workloadSpec {
	t.Helper()
	spec, ok := findWorkload(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	spec.Domains, spec.Scans = testDomains, testScans
	return spec
}

// TestWorkloadsTinyScale drives all four workloads through the parent, both
// passes, and requires every check to hold, every end-to-end metric to be
// positive, every per-layer metric to be reported, and the traced run's
// child spans to account for the end-to-end wall.
func TestWorkloadsTinyScale(t *testing.T) {
	var stdout bytes.Buffer
	records, err := runAll(runOptions{
		seed: 1, runs: 1, seconds: testSeconds,
		workdir: t.TempDir(), domains: testDomains, scans: testScans, spawn: inProcess,
	}, &stdout, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != len(workloads) {
		t.Fatalf("got %d records, want %d", len(records), len(workloads))
	}
	for _, rec := range records {
		for _, c := range rec.Checks {
			t.Errorf("%s: check %q failed: %s", rec.Workload, c.Name, c.Detail)
		}
		if !rec.Correct || rec.Failed != 0 || rec.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", rec.Workload, rec.Correct, rec.Attempted, rec.Failed)
		}
		spec, _ := findWorkload(rec.Workload)
		for _, m := range endToEnd {
			v, ok := rec.Metrics[m.Name]
			if !ok || !(v.Value > 0) || v.Unit != m.Unit {
				t.Errorf("%s: end-to-end metric %s = %+v", rec.Workload, m.Name, v)
			}
			// The reported value is the best of the repeats: of the prepares
			// for setup_s, of the processes that measure the metric otherwise
			// (all of them the one-shot path, the main one alone the rest; the
			// follow loop's processes are all whole, and its per-scan timings
			// are folded scan by scan). The peak is the whole processes' median.
			n := 1
			switch {
			case m.Name == "setup_s":
				n = setupRepeats
			case m.Name == "time_to_findings_s" || spec.wholeExtras():
				n = 1 + spec.Extras
			}
			if len(v.Repeats) != n {
				t.Errorf("%s: %s folded from %d repeats, want %d", rec.Workload, m.Name, len(v.Repeats), n)
			}
			want := m.best(v.Repeats)
			if m.Name == "peak_rss_mb" {
				want = median(v.Repeats)
			}
			perScan := spec.wholeExtras() && (m.Name == "time_to_findings_s" || m.Name == "classify_maps_per_s")
			if !perScan && v.Value != want {
				t.Errorf("%s: %s = %+v, want %v", rec.Workload, m.Name, v, want)
			}
		}
		for _, m := range perLayer {
			if _, ok := rec.Metrics[m.Name]; !ok {
				t.Errorf("%s: per-layer metric %s missing", rec.Workload, m.Name)
			}
		}
		if got := rec.Metrics["trace.accounted_share"].Value; got < 0.95 {
			t.Errorf("%s: child spans account for %.3f of the end-to-end span, want >= 0.95", rec.Workload, got)
		}
		if rec.Trace == nil || len(rec.Trace.Spans) == 0 || len(rec.Trace.Counters) == 0 {
			t.Errorf("%s: traced run recorded no spans or counters", rec.Workload)
		}
	}

	// The driver's contract: one JSON object per run, exactly these keys.
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if len(lines) != len(workloads) {
		t.Fatalf("stdout has %d lines, want %d", len(lines), len(workloads))
	}
	var last map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := last[key]; !ok {
			t.Errorf("result line lacks %q", key)
		}
	}
	if len(last) != 4 {
		t.Errorf("result line has %d keys, want 4", len(last))
	}
}

// TestRunFlags: the scale of the benchmark of record is not settable from
// the command line, and -trace takes the driver's two values only.
func TestRunFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-domains", "10"}, {"-scans", "2"}, {"-trace", "both"}, {"-trace", "0", "-trace-out", "t.json"}, {"stray"},
	} {
		if code := cmdRun(append(args, "-workdir", t.TempDir()), io.Discard, io.Discard); code == 0 {
			t.Errorf("bench run %v exited 0", args)
		}
	}
}

// TestGoldenCoversTinyCorpus pins the tiny corpus's digests: a change that
// moves findings or /v1 bytes fails here before anyone runs the full scale.
func TestGoldenCoversTinyCorpus(t *testing.T) {
	for _, w := range workloads {
		if _, ok := lookupGolden(tinySpec(t, w.Name), 1); !ok {
			t.Errorf("golden has no entry for %s", corpusKey(tinySpec(t, w.Name), 1))
		}
		if _, ok := lookupGolden(w, 1); !ok {
			t.Errorf("golden has no entry for %s", corpusKey(w, 1))
		}
	}
}

func treeDigest(t *testing.T, root string) map[string]string {
	t.Helper()
	out := map[string]string{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || d.Name() == "prepare.json" { // prepare.json carries timings
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		out[rel] = fmt.Sprintf("%x", sha256.Sum256(data))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestPrepareDeterministic: the same seed gives byte-identical inputs, a
// different seed different ones.
func TestPrepareDeterministic(t *testing.T) {
	for _, w := range workloads {
		spec := tinySpec(t, w.Name)
		dirs := []string{t.TempDir(), t.TempDir(), t.TempDir()}
		for i, seed := range []int64{7, 7, 8} {
			if _, err := runPrepare(spec, seed, dirs[i]); err != nil {
				t.Fatal(err)
			}
		}
		a, b, c := treeDigest(t, dirs[0]), treeDigest(t, dirs[1]), treeDigest(t, dirs[2])
		if len(a) == 0 || fmt.Sprint(a) != fmt.Sprint(b) {
			t.Errorf("%s: same seed, different prepare outputs:\n%v\n%v", w.Name, a, b)
		}
		if a[csvName] == c[csvName] {
			t.Errorf("%s: seeds 7 and 8 wrote the same %s", w.Name, csvName)
		}
	}
}

// TestCorruptedDigestFailsRun: an exec whose findings do not hash to the
// expected digest reports a failed check, and the run is not correct.
func TestCorruptedDigestFailsRun(t *testing.T) {
	for _, name := range []string{wlBatchArchive, wlBatchSpilled, wlFollowDurable} {
		spec := tinySpec(t, name)
		dir := t.TempDir()
		if _, err := runPrepare(spec, 3, dir); err != nil {
			t.Fatal(err)
		}
		exp, err := runOracle(3, dir)
		if err != nil {
			t.Fatal(err)
		}
		exp.FindingsSHA256 = strings.Repeat("0", 64)
		if err := writeJSONFile(filepath.Join(dir, "expected.json"), exp); err != nil {
			t.Fatal(err)
		}
		res, err := runExec(execConfig{Spec: spec, Seed: 3, Dir: dir, Seconds: testSeconds})
		if err != nil {
			t.Fatal(err)
		}
		failed := false
		for _, c := range res.Checks {
			if !c.OK && strings.Contains(c.Name, "findings == oracle") {
				failed = true
			}
		}
		if !failed || res.Failed == 0 {
			t.Errorf("%s: corrupted findings digest went unnoticed (failed=%d)", name, res.Failed)
		}
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkJSONMatchesSpec keeps the root BENCHMARK.json equal to
// `bench spec` and inside the benchmark contract's limits.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if code := cmdSpec(&want); code != 0 {
		t.Fatal("bench spec failed")
	}
	if !bytes.Equal(data, want.Bytes()) {
		t.Error("BENCHMARK.json differs from `go run ./bench spec`; regenerate it")
	}
	doc := specDocument()
	if n := len(doc.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	if n := len(doc.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(doc.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	seen := map[string]bool{}
	name := func(s string) {
		if !nameRE.MatchString(s) || seen[s] {
			t.Errorf("name %q is malformed or used twice", s)
		}
		seen[s] = true
	}
	for _, w := range doc.Workloads {
		name(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why is %d characters", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, m := range doc.EndToEnd {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) || m.Bound < 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end-to-end %+v", m)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric")
	}
	for _, m := range doc.PerLayer {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer %+v", m)
		}
	}
}

func TestBestOfRepeats(t *testing.T) {
	repeats := []float64{3, 1, 2}
	for name, want := range map[string]float64{
		"time_to_findings_s": 1, "read_qps": 3, "setup_s": 1, "classify_maps_per_s": 3,
	} {
		m, ok := boundOf(name)
		if !ok || m.best(repeats) != want {
			t.Errorf("best %s of %v = %v, want %v", name, repeats, m.best(repeats), want)
		}
	}
}

// TestFoldFollow: over a run's loops each scan counts with its fastest
// timing; scan -> visible is the median of those, the classify rate the
// loop's maps over their sum.
func TestFoldFollow(t *testing.T) {
	procs := []*execResult{
		{Values: map[string]float64{"follow.maps_total": 600}, Series: map[string][]float64{
			"follow.scan_to_visible_ms": {10, 40, 30}, "follow.cached_run_ms": {1, 4, 3},
		}},
		{Series: map[string][]float64{
			"follow.scan_to_visible_ms": {20, 20, 50}, "follow.cached_run_ms": {2, 2, 5},
		}},
	}
	if v, ok := foldFollow("time_to_findings_s", procs); !ok || v != 0.020 {
		t.Errorf("time_to_findings_s = %v, %v; want 0.020 (median of 10, 20, 30 ms)", v, ok)
	}
	if v, ok := foldFollow("classify_maps_per_s", procs); !ok || v != 100000 {
		t.Errorf("classify_maps_per_s = %v, %v; want 600 maps / 6 ms", v, ok)
	}
	if _, ok := foldFollow("read_qps", procs); ok {
		t.Error("read_qps is not a per-scan metric")
	}
}

func TestCutSegments(t *testing.T) {
	// Four segments of 100 ms: the third stalls (one reply), the second is
	// the quiet one.
	r := &loadResult{elapsed: 450 * time.Millisecond}
	add := func(segment, n int, us float64) {
		for i := 0; i < n; i++ {
			r.latUS = append(r.latUS, us)
			r.endUS = append(r.endUS, float64(segment)*1e5+float64(i)*9e4/float64(n-1+1))
		}
	}
	add(0, 10, 50) // replies 9 ms apart
	add(1, 19, 40) // 4.74 ms apart
	add(2, 1, 5)
	add(3, 10, 60)
	add(4, 3, 1) // the partial tail is left out
	r.cutSegments(100 * time.Millisecond)
	if got := fmt.Sprintf("%.0f %.0f", r.segP50, r.segQPS); got != "[50 40 60] [111 211 111]" {
		t.Errorf("segments = %s", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v", q1, q3)
	}
}

func setOf(workload, metric string, values ...float64) *resultsDoc {
	doc := &resultsDoc{}
	for i, v := range values {
		doc.Runs = append(doc.Runs, runRecord{
			Workload: workload, Seed: int64(i),
			Metrics: map[string]metricValue{metric: {Value: v, Unit: "ms"}},
		})
	}
	return doc
}

func TestCompareVerdicts(t *testing.T) {
	cases := []struct {
		metric string
		a, b   []float64
		want   string
	}{
		{"time_to_findings_s", []float64{100, 101, 99, 100}, []float64{102, 101, 100, 103}, "ok"},
		{"time_to_findings_s", []float64{100, 101, 99, 100}, []float64{130, 131, 129, 132}, "worse"},
		{"read_qps", []float64{100, 101, 99, 100}, []float64{70, 71, 69, 72}, "worse"},
		{"read_qps", []float64{100, 101, 99, 100}, []float64{120, 121, 119, 122}, "ok"},
		{"time_to_findings_s", []float64{100, 140, 70, 100}, []float64{104, 150, 60, 100}, "unresolved"},
		{"time_to_findings_s", []float64{100, 140, 70, 100}, []float64{50, 60, 40, 55}, "ok"},
	}
	for _, c := range cases {
		rows := compareDocs(setOf("w", c.metric, c.a...), setOf("w", c.metric, c.b...))
		if len(rows) != 1 || rows[0].verdict != c.want {
			t.Errorf("%s %v -> %v: got %+v, want %s", c.metric, c.a, c.b, rows, c.want)
		}
	}

	dir := t.TempDir()
	a, b := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")
	writeJSONFile(a, setOf("w", "time_to_findings_s", 100, 101))
	writeJSONFile(b, setOf("w", "time_to_findings_s", 150, 151))
	var out bytes.Buffer
	if code := cmdCompare([]string{a, b}, &out, io.Discard); code != 1 {
		t.Errorf("compare exit %d on a worse pair, want 1\n%s", code, out.String())
	}
	if code := cmdCompare([]string{a, a}, &out, io.Discard); code != 0 {
		t.Errorf("compare exit %d on identical sets, want 0", code)
	}

	// An exact count that differs for one (workload, seed) fails the
	// comparison even when every timing agrees.
	counted := func(ratio float64) *resultsDoc {
		doc := setOf("w", "time_to_findings_s", 100, 101)
		for i := range doc.Runs {
			doc.Runs[i].Other = map[string]float64{"wal.disk_bytes_per_input_byte": ratio}
		}
		return doc
	}
	if got := countMismatches(counted(4.37), counted(4.37)); len(got) != 0 {
		t.Errorf("equal counts reported as differing: %v", got)
	}
	if got := countMismatches(counted(4.37), counted(4.38)); len(got) != 2 {
		t.Errorf("differing counts: got %v, want one line per run", got)
	}
}
