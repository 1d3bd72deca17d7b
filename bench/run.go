package main

// run.go is the parent: per workload it spawns itself as `prepare`
// (setupRepeats times; setup_s is the fastest), `oracle`, and `exec` (fresh
// processes: the main one, then the extras that repeat the one-shot path;
// the Maxrss of those that ran the workload whole is peak_rss_mb), then prints every metric by name and unit and a
// last line of JSON for the driver.

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"time"
)

// metricValue is one reported number: the estimate, how many samples stand
// behind it, and the per-process (for setup_s per-prepare) values it was
// folded from.
type metricValue struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Samples int       `json:"samples,omitempty"`
	Repeats []float64 `json:"repeats,omitempty"`
}

// runRecord is one (workload, seed) run: what -out accumulates and what
// `bench compare` reads.
type runRecord struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	// Checks lists the checks that failed; the ones that held are counted
	// in Attempted.
	Checks []checkResult `json:"checks,omitempty"`
	// Other holds whatever else the untraced pass measured on the way (the
	// per-layer timings and counts the main process takes anyway); `bench
	// compare` reads the exact counts out of it.
	Other map[string]float64 `json:"other,omitempty"`
	Trace *traceDoc          `json:"-"`
}

// resultsDoc is the -out file.
type resultsDoc struct {
	GoVersion  string      `json:"go_version"`
	NumCPU     int         `json:"num_cpu"`
	GoMaxProcs int         `json:"gomaxprocs"`
	WorkdirFS  string      `json:"workdir_fs"`
	Seconds    float64     `json:"seconds"`
	Runs       []runRecord `json:"runs"`
}

// child is how the parent runs one of its own subcommands and learns what
// the process cost. The default spawns os.Executable(); tests substitute an
// in-process call.
type childUsage struct {
	wall        time.Duration
	maxRSSMB    float64
	userS, sysS float64
}

type spawner func(args ...string) (childUsage, error)

func spawnSelf(args ...string) (childUsage, error) {
	self, err := os.Executable()
	if err != nil {
		return childUsage{}, err
	}
	cmd := exec.Command(self, args...)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	start := time.Now()
	err = cmd.Run()
	u := childUsage{wall: time.Since(start)}
	if cmd.ProcessState != nil {
		u.maxRSSMB, u.userS, u.sysS = processUsage(cmd.ProcessState)
	}
	if err != nil {
		return u, fmt.Errorf("%s: %w", args[0], err)
	}
	fmt.Fprintf(os.Stderr, "bench: %-7s %6.2f s wall, %4.0f MB peak\n", args[0], u.wall.Seconds(), u.maxRSSMB)
	return u, nil
}

type runOptions struct {
	seed     int64
	runs     int
	workload string
	seconds  float64
	// trace is the driver's switch: "0" runs the untraced pass alone, "1" the
	// traced pass alone, "" both.
	trace        string
	traceOut     string
	out          string
	workdir      string
	updateGolden bool
	// domains and scans scale every workload down; only the tests set them.
	domains int
	scans   int
	spawn   spawner
}

func cmdRun(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench run", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o runOptions
	fs.Int64Var(&o.seed, "seed", 1, "workload seed; run i of -runs uses seed+i")
	fs.IntVar(&o.runs, "runs", 1, "runs per workload, each with its own seed")
	fs.StringVar(&o.workload, "workload", "", "one workload by name (default: all four)")
	fs.Float64Var(&o.seconds, "seconds", runSeconds, "measuring budget of one run")
	fs.StringVar(&o.trace, "trace", "", "0: the untraced pass alone (end-to-end metrics); 1: the traced pass alone (per-layer metrics); unset: both, and the tracing overhead")
	fs.StringVar(&o.traceOut, "trace-out", "", "write the traced pass's spans and counter snapshots to this file")
	fs.StringVar(&o.out, "out", "", "append the runs to this results file (read by `bench compare`)")
	fs.StringVar(&o.workdir, "workdir", ".bench_work", "directory for generated inputs and durable state, removed afterwards")
	fs.BoolVar(&o.updateGolden, "update-golden", false, "record the oracle's digests in bench/golden/digests.json (run from the repository root or from bench/)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "bench run: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	o.spawn = spawnSelf
	records, err := runAll(o, stdout, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	for _, r := range records {
		if !r.Correct {
			return 1
		}
	}
	return 0
}

func runAll(o runOptions, stdout, stderr io.Writer) ([]runRecord, error) {
	specs := workloads
	if o.workload != "" {
		w, ok := findWorkload(o.workload)
		if !ok {
			return nil, fmt.Errorf("unknown workload %q", o.workload)
		}
		specs = []workloadSpec{w}
	}
	untraced, traced := o.trace != "1", o.trace != "0"
	if o.trace != "" && o.trace != "0" && o.trace != "1" {
		return nil, fmt.Errorf("-trace %q: want 0 or 1", o.trace)
	}
	if o.traceOut != "" && !traced {
		return nil, fmt.Errorf("-trace-out needs the traced pass, -trace 0 skips it")
	}
	goldenFile := ""
	if o.updateGolden {
		var err error
		if goldenFile, err = findGoldenFile(); err != nil {
			return nil, err
		}
	}

	var records []runRecord
	for i := 0; i < o.runs; i++ {
		for _, spec := range specs {
			if o.domains > 0 {
				spec.Domains = o.domains
			}
			if o.scans > 0 {
				spec.Scans = o.scans
			}
			rec, err := runOne(o, spec, o.seed+int64(i), untraced, traced, goldenFile, stderr)
			if err != nil {
				return records, fmt.Errorf("%s seed %d: %w", spec.Name, o.seed+int64(i), err)
			}
			printRecord(stderr, rec)
			if o.traceOut != "" {
				name := o.traceOut
				if len(specs) > 1 || o.runs > 1 {
					ext := filepath.Ext(name)
					name = fmt.Sprintf("%s.%s.%d%s", name[:len(name)-len(ext)], spec.Name, rec.Seed, ext)
				}
				if err := writeJSONFile(name, rec.Trace); err != nil {
					return records, err
				}
			}
			line, err := json.Marshal(struct {
				Correct   bool                   `json:"correct"`
				Attempted int64                  `json:"attempted"`
				Failed    int64                  `json:"failed"`
				Metrics   map[string]metricValue `json:"metrics"`
			}{rec.Correct, rec.Attempted, rec.Failed, driverMetrics(rec.Metrics)})
			if err != nil {
				return records, err
			}
			fmt.Fprintf(stdout, "%s\n", line)
			records = append(records, *rec)
		}
	}
	if o.out != "" {
		doc := resultsDoc{
			GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
			WorkdirFS: filesystemOf(o.workdir), Seconds: o.seconds,
		}
		if err := readJSONFile(o.out, &doc); err != nil && !os.IsNotExist(err) {
			return records, err
		}
		doc.Runs = append(doc.Runs, records...)
		if err := writeJSONFile(o.out, doc); err != nil {
			return records, err
		}
	}
	return records, nil
}

// driverMetrics strips the sample counts and per-repeat values: the driver's line
// carries exactly value and unit per metric.
func driverMetrics(in map[string]metricValue) map[string]metricValue {
	out := make(map[string]metricValue, len(in))
	for k, v := range in {
		out[k] = metricValue{Value: v.Value, Unit: v.Unit}
	}
	return out
}

// runOne measures one workload at one seed: the untraced pass gives the
// end-to-end metrics, the traced pass the per-layer ones.
func runOne(o runOptions, spec workloadSpec, seed int64, untraced, traced bool, goldenFile string, stderr io.Writer) (*runRecord, error) {
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return nil, err
	}
	root, err := os.MkdirTemp(o.workdir, fmt.Sprintf("%s-%d-", spec.Name, seed))
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	common := []string{
		"-workload", spec.Name, "-seed", strconv.FormatInt(seed, 10),
		"-domains", strconv.Itoa(spec.Domains), "-scans", strconv.Itoa(spec.Scans),
	}

	// Set-up, several times over: the fastest wall is setup_s. The first copy
	// is the one the measured processes read.
	input := filepath.Join(root, "prep0")
	var setupS []float64
	for i := 0; i < setupRepeats; i++ {
		u, err := o.spawn(append([]string{"prepare", "-dir", filepath.Join(root, fmt.Sprintf("prep%d", i))}, common...)...)
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, u.wall.Seconds())
	}
	var prep prepareInfo
	if err := readJSONFile(filepath.Join(input, "prepare.json"), &prep); err != nil {
		return nil, err
	}
	if _, err := o.spawn(append([]string{"oracle", "-dir", input}, common...)...); err != nil {
		return nil, err
	}
	if goldenFile != "" {
		var exp expectedInfo
		if err := readJSONFile(filepath.Join(input, "expected.json"), &exp); err != nil {
			return nil, err
		}
		if err := updateGolden(goldenFile, spec, seed, &exp); err != nil {
			return nil, err
		}
	}

	rec := &runRecord{Workload: spec.Name, Seed: seed, Correct: true, Metrics: map[string]metricValue{}}
	// process runs exec as one fresh process and returns what it reported.
	// It starts from the prepared inputs alone: durable state and outputs of
	// an earlier process are removed.
	process := func(trace, oneShot bool) (*execResult, error) {
		os.RemoveAll(filepath.Join(input, dataDirName))
		os.Remove(filepath.Join(input, "findings.json"))
		u, err := o.spawn(append([]string{"exec", "-dir", input,
			"-seconds", strconv.FormatFloat(o.seconds, 'f', -1, 64),
			"-trace=" + strconv.FormatBool(trace), "-oneshot=" + strconv.FormatBool(oneShot)}, common...)...)
		if err != nil {
			return nil, err
		}
		res := &execResult{}
		if err := readJSONFile(filepath.Join(input, "result.json"), res); err != nil {
			return nil, err
		}
		res.Values["peak_rss_mb"] = u.maxRSSMB
		res.Values["proc.cpu_user_s"] = u.userS
		res.Values["proc.cpu_sys_s"] = u.sysS
		res.Values["synth.gen_records_per_s"] = float64(prep.Rows) / prep.GenS
		rec.Attempted += res.Attempted
		rec.Failed += res.Failed
		for _, c := range res.Checks {
			if !c.OK {
				rec.Checks = append(rec.Checks, c)
			}
		}
		return res, nil
	}

	var plain []*execResult
	if untraced {
		// The main process, then the extras that repeat the one-shot path.
		var peaks []float64 // Maxrss of the processes that ran the workload whole
		for i := 0; i <= spec.Extras; i++ {
			whole := i == 0 || spec.wholeExtras()
			res, err := process(false, !whole)
			if err != nil {
				return nil, err
			}
			plain = append(plain, res)
			if whole {
				peaks = append(peaks, res.Values["peak_rss_mb"])
			}
		}
		for _, m := range endToEnd {
			var v metricValue
			switch m.Name {
			case "setup_s":
				v = metricValue{Value: m.best(setupS), Unit: m.Unit, Samples: len(setupS), Repeats: setupS}
			case "peak_rss_mb":
				// Of the whole processes only (an extra that stops at its first
				// findings peaks lower), and their median, not their best: how
				// high a collected heap peaks is the collector's timing, which
				// moves the follow loop's peak by a fifth either way.
				v = metricValue{Value: median(peaks), Unit: m.Unit, Samples: len(peaks), Repeats: peaks}
			default:
				v = foldProcesses(spec, m, plain)
			}
			rec.Metrics[m.Name] = v
			if !(v.Value > 0) {
				rec.Checks = append(rec.Checks, checkResult{Name: m.Name + " > 0", Detail: fmt.Sprintf("got %v", v.Value)})
				rec.Failed++
			}
		}
		rec.Other = map[string]float64{}
		for name, v := range plain[0].Values {
			if _, ok := boundOf(name); !ok {
				rec.Other[name] = v
			}
		}
	}
	if traced {
		res, err := process(true, false)
		if err != nil {
			return nil, err
		}
		for _, m := range perLayer {
			rec.Metrics[m.Name] = metricValue{Value: res.Values[m.Name], Unit: m.Unit, Samples: res.Samples[m.Name]}
		}
		rec.Trace = res.Trace
		if plain != nil {
			printOverhead(stderr, rec, res)
		}
	}
	if rec.Attempted < 1 {
		rec.Attempted = 1
	}
	rec.Correct = rec.Failed == 0
	return rec, nil
}

// foldProcesses turns what a run's processes each reported for one
// end-to-end timing into the reported value: the best of them (each is
// already the best of that process's passes or segments). The follow loop's
// two per-scan timings are folded scan by scan instead (foldFollow).
func foldProcesses(spec workloadSpec, m metricSpec, procs []*execResult) metricValue {
	v := metricValue{Unit: m.Unit}
	for _, p := range procs {
		if x, ok := p.Values[m.Name]; ok {
			v.Repeats = append(v.Repeats, x)
			v.Samples += p.Samples[m.Name]
		}
	}
	v.Value = m.best(v.Repeats)
	if spec.Name == wlFollowDurable {
		if x, ok := foldFollow(m.Name, procs); ok {
			v.Value = x
		}
	}
	return v
}

// foldFollow gives the follow loop's per-scan metrics over a run's loops.
// The loops ingest the same 104 scans, so each scan's timing is its fastest
// over the loops; scan -> visible is the median of those over the scans, and
// the cached classify rate the loop's maps over their sum. Taking the
// fastest scan instead would pick the first one, which classifies nothing.
func foldFollow(metric string, procs []*execResult) (float64, bool) {
	fastest := func(series string) []float64 {
		var out []float64
		for _, p := range procs {
			s := p.Series[series]
			if out == nil {
				out = append(out, s...)
			}
			if len(s) != len(out) {
				return nil
			}
			for i, x := range s {
				out[i] = min(out[i], x)
			}
		}
		return out
	}
	switch metric {
	case "time_to_findings_s":
		if v := fastest("follow.scan_to_visible_ms"); len(v) > 0 {
			return median(v) / 1e3, true
		}
	case "classify_maps_per_s":
		if v := fastest("follow.cached_run_ms"); len(v) > 0 {
			return procs[0].Values["follow.maps_total"] / (sum(v) / 1e3), true
		}
	}
	return 0, false
}

// printOverhead reports what tracing cost: each end-to-end timing of the
// traced pass minus the untraced one.
func printOverhead(w io.Writer, rec *runRecord, traced *execResult) {
	fmt.Fprintf(w, "%s: tracing overhead (traced - untraced)\n", rec.Workload)
	for _, m := range endToEnd {
		if m.Name == "setup_s" || m.Name == "peak_rss_mb" {
			continue
		}
		a, b := rec.Metrics[m.Name].Value, traced.Values[m.Name]
		if a == 0 {
			continue
		}
		fmt.Fprintf(w, "  %-24s %14.4f -> %14.4f %-4s (%+.2f%%)\n", m.Name, a, b, m.Unit, (b-a)/a*100)
	}
}

func printRecord(w io.Writer, rec *runRecord) {
	fmt.Fprintf(w, "%s seed=%d correct=%v attempted=%d failed=%d\n", rec.Workload, rec.Seed, rec.Correct, rec.Attempted, rec.Failed)
	for _, specs := range [][]metricSpec{endToEnd, perLayer} {
		for _, m := range specs {
			v, ok := rec.Metrics[m.Name]
			if !ok {
				continue
			}
			samples := ""
			if v.Samples > 0 {
				samples = fmt.Sprintf("  n=%d", v.Samples)
			}
			if len(v.Repeats) > 1 {
				samples += fmt.Sprintf("  of %.4g", v.Repeats)
			}
			fmt.Fprintf(w, "  %-34s %16.4f %-6s%s\n", m.Name, v.Value, v.Unit, samples)
		}
	}
	for _, c := range rec.Checks {
		fmt.Fprintf(w, "  FAILED %s: %s\n", c.Name, c.Detail)
	}
}
