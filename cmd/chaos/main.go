// Command chaos is the durability harness for retrodnsd: it generates a
// deterministic scans.csv corpus, records an uninterrupted baseline run,
// then drives the campaigns of its table against live daemons. A campaign
// stops a daemon mid-ingest (SIGKILL or SIGTERM) and damages its data dir
// with one internal/faults row, or damages the feed instead, then restarts
// over the result and asserts three invariants on the recovery:
//
//  1. quarantine counters account for every injected fault, by reason;
//  2. generations never mix — every response's generation header matches
//     its body, and the recovered daemon converges on the baseline's
//     final generation;
//  3. recovered state is byte-identical to the uninterrupted run — the
//     canonical run report and every sampled /v1 document compare equal.
//
// With -warm-domains, a last campaign gates warm-restart time on a larger
// corpus. Exit status is nonzero if any campaign fails; -report-json emits
// a machine-readable verdict per campaign.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"syscall"
	"time"

	"retrodns/internal/core"
	"retrodns/internal/faults"
	"retrodns/internal/obsv"
	"retrodns/internal/report"
	"retrodns/internal/scanner"
	"retrodns/internal/simtime"
	"retrodns/internal/synth"
	"retrodns/internal/wal"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "chaos:", err)
		os.Exit(1)
	}
}

type config struct {
	bin       string
	workdir   string
	domains   int
	scans     int
	seed      int64
	shards    int
	interval  time.Duration
	killAtGen uint64
	warmDoms  int
	warmRatio float64
	verbose   bool
}

// campaign is one fault scenario. One with a stop signal runs a daemon
// over the corpus, stops it once ingest has passed -kill-at-gen, and
// damages its data dir with fault (nil: leaves it as the stop did); one
// without damages the feed with feed instead. A fresh daemon then recovers
// and must count exactly fault's WAL refusals, and the feed refusals fed
// names.
type campaign struct {
	name  string
	stop  syscall.Signal
	fault *faults.Fault
	feed  func(csv []byte) ([]byte, error)
	fed   map[string]int64
}

// skewRows is how many corpus rows the skew campaign re-dates.
const skewRows = 3

var campaigns = []campaign{
	{name: "kill", stop: syscall.SIGKILL, fault: row("kill")},
	{name: "truncate", stop: syscall.SIGKILL, fault: row("torn")},
	{name: "garble", stop: syscall.SIGKILL, fault: row("garble")},
	{name: "duplicate", stop: syscall.SIGKILL, fault: row("duplicate")},
	{name: "unrotated", stop: syscall.SIGKILL, fault: row("unrotated")},
	{name: "stray-manifest", stop: syscall.SIGKILL, fault: row("stray-manifest")},
	{name: "stray-garbage", stop: syscall.SIGKILL, fault: row("stray-garbage")},
	// The graceful path: the drain leaves a whole, fsynced log.
	{name: "drain", stop: syscall.SIGTERM},
	{name: "skew", feed: skewFeed, fed: map[string]int64{wal.FeedClockSkew: skewRows}},
	{name: "tail", feed: tornFeed, fed: map[string]int64{wal.FeedTruncatedTail: 1}},
}

// row is the faults row named name.
func row(name string) *faults.Fault {
	return &faults.Rows[slices.IndexFunc(faults.Rows, func(f faults.Fault) bool { return f.Name == name })]
}

// skewFeed appends copies of the first skewRows rows re-dated past the
// study window: the gate must divert them (clock_skew) without disturbing
// the dataset.
func skewFeed(csv []byte) ([]byte, error) {
	lines := strings.SplitN(string(csv), "\n", skewRows+2)
	if len(lines) < skewRows+2 {
		return nil, fmt.Errorf("corpus holds fewer than %d rows", skewRows)
	}
	future := (simtime.StudyEnd + 30).Time().Format("2006-01-02")
	out := slices.Clip(csv)
	for _, line := range lines[1 : 1+skewRows] { // skip the header
		_, rest, _ := strings.Cut(line, ",")
		out = fmt.Appendf(out, "%s,%s\n", future, rest)
	}
	return out, nil
}

// tornFeed ends the feed mid-record, as a writer that died between row
// bytes leaves it: the torn line is truncated_tail, and everything before
// it ingests normally.
func tornFeed(csv []byte) ([]byte, error) {
	return append(slices.Clip(csv), "2017-03-05,10.0.0.1,443,64512,GR,9"...), nil
}

type campaignResult struct {
	Name    string   `json:"name"`
	Pass    bool     `json:"pass"`
	Details []string `json:"details,omitempty"`
	// The warm-restart gate's two boots to final health, and their ratio.
	ColdMS int64   `json:"cold_ms,omitempty"`
	WarmMS int64   `json:"warm_ms,omitempty"`
	Ratio  float64 `json:"ratio,omitempty"`
	// Where the two boots' time went, read off their run reports: the warm
	// boot's restore steps (retrodns_wal_restore_seconds) and the cold
	// boot's classify stage wall summed over its runs
	// (retrodns_stage_wall_seconds), in milliseconds.
	WarmDatasetMS  float64 `json:"warm_dataset_ms,omitempty"`
	WarmCacheMS    float64 `json:"warm_cache_ms,omitempty"`
	ColdClassifyMS float64 `json:"cold_classify_ms,omitempty"`
}

func (r *campaignResult) failf(format string, args ...any) {
	r.Details = append(r.Details, fmt.Sprintf(format, args...))
}

type chaosReport struct {
	Schema    string           `json:"schema"`
	FinalGen  uint64           `json:"final_generation"`
	Campaigns []campaignResult `json:"campaigns"`
	Pass      bool             `json:"pass"`
	failed    int
}

// record drives one campaign, adds its verdict and prints it. drive's error
// is one more failure.
func (r *chaosReport) record(name string, drive func(*campaignResult) error) {
	res := campaignResult{Name: name}
	if err := drive(&res); err != nil {
		res.failf("%v", err)
	}
	res.Pass = len(res.Details) == 0
	r.Campaigns = append(r.Campaigns, res)
	status := "PASS"
	if !res.Pass {
		status = "FAIL"
		r.failed++
	}
	r.Pass = r.failed == 0
	fmt.Fprintf(os.Stderr, "campaign %-14s %s\n", res.Name, status)
	for _, d := range res.Details {
		fmt.Fprintf(os.Stderr, "  - %s\n", d)
	}
}

func run() error {
	cfg := config{}
	flag.StringVar(&cfg.bin, "retrodnsd", "", "path to the retrodnsd binary (required)")
	flag.StringVar(&cfg.workdir, "workdir", "", "working directory (default: a temp dir)")
	flag.IntVar(&cfg.domains, "domains", 300, "synth corpus size")
	flag.IntVar(&cfg.scans, "scans", 5, "synth scan count")
	flag.Int64Var(&cfg.seed, "seed", 11, "synth seed")
	flag.IntVar(&cfg.shards, "shards", 4, "dataset shards")
	flag.DurationVar(&cfg.interval, "scan-interval", 150*time.Millisecond, "daemon pause between scans (the kill window)")
	flag.Uint64Var(&cfg.killAtGen, "kill-at-gen", 3, "kill once healthz reports at least this generation")
	flag.IntVar(&cfg.warmDoms, "warm-domains", 0, "also run the warm-restart speedup gate over a corpus this large (0 = skip)")
	flag.Float64Var(&cfg.warmRatio, "warm-speedup", 5.0, "minimum warm/cold time-to-healthy ratio for the speedup gate")
	flag.BoolVar(&cfg.verbose, "v", false, "echo daemon stderr")
	reportPath := flag.String("report-json", "", "write the chaos verdict here ('-' for stdout)")
	flag.Parse()
	if cfg.bin == "" {
		return fmt.Errorf("-retrodnsd is required")
	}
	if cfg.workdir == "" {
		dir, err := os.MkdirTemp("", "retrodns-chaos-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		cfg.workdir = dir
	} else if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return err
	}

	h := &harness{cfg: cfg}
	g := synth.New(synth.Config{Domains: cfg.domains, Seed: cfg.seed, Scans: cfg.scans})
	var err error
	if h.corpus, err = writeCorpus(filepath.Join(cfg.workdir, "scans.csv"), g); err != nil {
		return err
	}
	// The /v1 documents sampled for byte comparison, one domain among them.
	h.paths = []string{"/v1/funnel", "/v1/shortlist", "/v1/patterns/T1", "/v1/patterns/stable",
		"/v1/domain/" + string(g.Scan(g.ScanDates()[0])[0].Cert.SANs[0])}
	if err := h.baseline(); err != nil {
		return fmt.Errorf("baseline: %w", err)
	}

	out := chaosReport{Schema: "retrodns/chaos-report/v1", FinalGen: h.corpus.finalGen}
	for _, c := range campaigns {
		out.record(c.name, func(res *campaignResult) error { return h.run(c, res) })
	}
	if cfg.warmDoms > 0 {
		out.record("warmspeed", h.warmSpeed)
	}

	if *reportPath != "" {
		if err := writeJSON(*reportPath, out); err != nil {
			return err
		}
	}
	if !out.Pass {
		return fmt.Errorf("%d campaign(s) failed", out.failed)
	}
	fmt.Fprintln(os.Stderr, "all campaigns passed")
	return nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// corpus is a scans.csv on disk and the health a daemon reports once it
// has ingested all of it.
type corpus struct {
	path     string
	finalGen uint64
	lastScan string
}

// writeCorpus renders g's corpus to path.
func writeCorpus(path string, g *synth.Generator) (corpus, error) {
	f, err := os.Create(path)
	if err != nil {
		return corpus{}, err
	}
	w := bufio.NewWriter(f)
	_, err = g.WriteCSV(w)
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	dates := g.ScanDates()
	// The first Append freezes generation 1 and publishes 2.
	return corpus{path, uint64(len(dates)) + 1, dates[len(dates)-1].String()}, err
}

func (c corpus) await(d *daemon, timeout time.Duration) error {
	return d.pollHealth(timeout, func(hd healthDoc) bool {
		return hd.Generation == c.finalGen && hd.LastScan == c.lastScan
	})
}

type harness struct {
	cfg config

	corpus    corpus
	paths     []string          // the /v1 documents sampled
	canonical []byte            // canonical baseline run report encoding
	docs      map[string][]byte // baseline /v1 documents
}

func (h *harness) daemonArgs(feed, dataDir, reportJSON string, extra ...string) []string {
	args := []string{
		"-scans-csv", feed,
		"-data-dir", dataDir,
		"-shards", fmt.Sprint(h.cfg.shards),
		"-report-json", reportJSON,
	}
	return append(args, extra...)
}

// baseline runs one uninterrupted daemon over the corpus and records the
// canonical report and /v1 documents every campaign must reproduce.
func (h *harness) baseline() error {
	dir := filepath.Join(h.cfg.workdir, "baseline")
	rp := filepath.Join(dir, "report.json")
	d, err := h.start(h.daemonArgs(h.corpus.path, filepath.Join(dir, "data"), rp,
		"-scan-interval", h.cfg.interval.String(), "-snapshot-every", "2"))
	if err != nil {
		return err
	}
	if err := h.corpus.await(d, 60*time.Second); err != nil {
		d.kill()
		return err
	}
	h.docs = make(map[string][]byte)
	for _, p := range h.paths {
		body, _, err := h.fetch(d, p)
		if err != nil {
			d.kill()
			return err
		}
		h.docs[p] = body
	}
	if err := d.stopGracefully(); err != nil {
		return err
	}
	_, h.canonical, err = readRunReport(rp)
	return err
}

// readRunReport reads the run report at path, and its canonical encoding.
func readRunReport(path string) (*report.RunReport, []byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	doc, err := report.ReadRunReport(f)
	if err != nil {
		return nil, nil, err
	}
	var buf bytes.Buffer
	err = doc.Canonical().Encode(&buf)
	return doc, buf.Bytes(), err
}

// quarantined is the nonzero samples of family in metrics, by reason.
func quarantined(metrics []obsv.Sample, family string) map[string]int64 {
	out := map[string]int64{}
	for _, s := range metrics {
		if s.Name == family && s.Value != 0 {
			out[s.Labels["reason"]] += s.Value
		}
	}
	return out
}

// histogramMS is the sum, in milliseconds, of the seconds histogram family
// in metrics under the label key=value.
func histogramMS(metrics []obsv.Sample, family, key, value string) float64 {
	for _, s := range metrics {
		if s.Name == family && s.Labels[key] == value {
			return s.Sum * 1000
		}
	}
	return 0
}

// run drives campaign c: the fault, the recovery, and the three
// invariants.
func (h *harness) run(c campaign, res *campaignResult) error {
	dir := filepath.Join(h.cfg.workdir, c.name)
	opts := wal.Options{Dir: filepath.Join(dir, "data"), Shards: h.cfg.shards}
	var spill []string
	if c.fault != nil && c.fault.Spill {
		opts.Spill = &scanner.SpillOptions{Dir: filepath.Join(opts.Dir, "segments")}
		spill = []string{"-spill-dir", opts.Spill.Dir, "-mem-budget-mb", "0"}
	}
	feed, frames, err := h.inject(c, dir, opts, spill)
	if err != nil {
		return err
	}
	doc, err := h.recoverAndVerify(res, dir, feed, opts.Dir, spill)
	if err != nil {
		return err
	}
	// Recovery is warm unless the damage took the only frame the log held,
	// and starts from a snapshot where the row says (inject waited for one).
	warm := c.fault == nil || !c.fault.LostTail || frames > 1
	if c.stop != 0 && (doc.WAL == nil || doc.WAL.Warm != warm) {
		res.failf("recovery: %+v, want warm=%v", doc.WAL, warm)
	}
	if c.fault != nil && c.fault.FromSnapshot && (doc.WAL == nil || doc.WAL.FromSnapshot == "") {
		res.failf("recovery: %+v, want it from a snapshot", doc.WAL)
	}
	want := map[string]int64{}
	if c.fault != nil {
		want = c.fault.Want(frames)
	}
	got := quarantined(doc.Metrics, wal.MetricWALQuarantined)
	if c.stop == syscall.SIGKILL {
		// A SIGKILL lands anywhere: it may tear the frame it interrupted, or,
		// where the daemon snapshotted, fall between a snapshot's rename and
		// the log's rotation (the unrotated row). Each adds its own count.
		if got[wal.FaultTornTail] == want[wal.FaultTornTail]+1 {
			want[wal.FaultTornTail]++
		}
		if c.fault != nil && c.fault.Snapshots && frames > 0 && got[wal.FaultDupGeneration] == want[wal.FaultDupGeneration]+int64(frames) {
			want[wal.FaultDupGeneration] += int64(frames)
		}
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		res.failf("wal quarantine %v, want %v", got, want)
	}
	fed := quarantined(doc.Metrics, wal.MetricFeedQuarantined)
	for reason, n := range c.fed {
		if fed[reason] != n {
			res.failf("feed %s = %d, want %d", reason, fed[reason], n)
		}
	}
	return nil
}

// inject does c's damage under dir: it damages the feed, or runs a daemon
// over the corpus, stops it past -kill-at-gen and damages its data dir. It
// returns the feed to recover from and the whole frames the log held before
// the damage.
func (h *harness) inject(c campaign, dir string, opts wal.Options, spill []string) (string, int, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", 0, err
	}
	if c.feed != nil {
		data, err := os.ReadFile(h.corpus.path)
		if err == nil {
			data, err = c.feed(data)
		}
		if err != nil {
			return "", 0, err
		}
		feed := filepath.Join(dir, "scans-"+c.name+".csv")
		return feed, 0, os.WriteFile(feed, data, 0o644)
	}
	every := "1000" // never, so the damage hits live frames
	if c.fault != nil && c.fault.Snapshots {
		every = "2"
	}
	d, err := h.start(h.daemonArgs(h.corpus.path, opts.Dir, filepath.Join(dir, "phase1.json"),
		append([]string{"-scan-interval", h.cfg.interval.String(), "-snapshot-every", every}, spill...)...))
	if err != nil {
		return "", 0, err
	}
	if err := d.pollHealth(30*time.Second, func(hd healthDoc) bool {
		// A snapshotting row is about damage beside a snapshot: it stops
		// once one is on disk, not wherever the stop lands in the first
		// one's write.
		snaps, _ := filepath.Glob(filepath.Join(opts.Dir, "snap-*.bin"))
		return hd.Generation >= h.cfg.killAtGen && (c.fault == nil || !c.fault.Snapshots || len(snaps) > 0)
	}); err != nil {
		d.kill()
		return "", 0, err
	}
	if c.stop == syscall.SIGKILL {
		d.kill()
	} else if err := d.stopGracefully(); err != nil {
		return "", 0, fmt.Errorf("drain: %w", err)
	}
	if c.fault == nil {
		return h.corpus.path, 0, nil
	}
	frames, err := faults.Frames(opts.Dir)
	if err != nil {
		return "", 0, err
	}
	return h.corpus.path, frames, c.fault.Damage(opts)
}

// recoverAndVerify restarts the daemon on feed over the (possibly damaged)
// data dir, waits for convergence, and checks invariants 2 and 3. It
// returns the daemon's run report for the campaign's counts.
func (h *harness) recoverAndVerify(res *campaignResult, dir, feed, dataDir string, spill []string) (*report.RunReport, error) {
	rp := filepath.Join(dir, "report.json")
	d, err := h.start(h.daemonArgs(feed, dataDir, rp, append([]string{"-snapshot-every", "2"}, spill...)...))
	if err != nil {
		return nil, fmt.Errorf("restart: %w", err)
	}
	if err := h.corpus.await(d, 60*time.Second); err != nil {
		d.kill()
		return nil, fmt.Errorf("recovered daemon never converged: %w (log tail: %s)", err, d.logTail())
	}
	// Invariant 2: generations never mix. Every sampled document carries a
	// generation header equal to its body's generation, all at finalGen.
	final := h.corpus.finalGen
	for _, p := range h.paths {
		body, gen, err := h.fetch(d, p)
		if err != nil {
			res.failf("%s: %v", p, err)
			continue
		}
		if gen != fmt.Sprint(final) {
			res.failf("%s: generation header %q, want %d", p, gen, final)
		}
		if !bytes.Contains(body, []byte(fmt.Sprintf(`"generation": %d`, final))) {
			res.failf("%s: body generation differs from header %d", p, final)
		}
		// Invariant 3a: documents byte-identical to the baseline's.
		if want := h.docs[p]; !bytes.Equal(body, want) {
			res.failf("%s: response differs from baseline", p)
		}
	}
	if err := d.stopGracefully(); err != nil {
		return nil, fmt.Errorf("graceful stop: %w", err)
	}
	doc, got, err := readRunReport(rp)
	if err != nil {
		return nil, fmt.Errorf("report: %w", err)
	}
	// Invariant 3b: the canonical run report is byte-identical to the
	// uninterrupted baseline's.
	if !bytes.Equal(got, h.canonical) {
		res.failf("canonical run report differs from baseline (%d vs %d bytes)", len(got), len(h.canonical))
	}
	return doc, nil
}

// warmSpeed: over a large corpus, a warm restart must reach the final
// generation at least warm-speedup times faster than the cold boot that
// built it, and the warm run must not recompute a single cell.
func (h *harness) warmSpeed(res *campaignResult) error {
	dir := filepath.Join(h.cfg.workdir, "warmspeed")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	big, err := writeCorpus(filepath.Join(dir, "scans-big.csv"),
		synth.New(synth.Config{Domains: h.cfg.warmDoms, Seed: h.cfg.seed, Scans: h.cfg.scans}))
	if err != nil {
		return err
	}
	boot := func(phase string) (time.Duration, *report.RunReport, error) {
		rp := filepath.Join(dir, phase+".json")
		start := time.Now()
		d, err := h.start(h.daemonArgs(big.path, filepath.Join(dir, "data"), rp, "-snapshot-every", "1"))
		if err != nil {
			return 0, nil, err
		}
		if err := big.await(d, 10*time.Minute); err != nil {
			d.kill()
			return 0, nil, fmt.Errorf("%s boot never converged: %v", phase, err)
		}
		elapsed := time.Since(start)
		if err := d.stopGracefully(); err != nil {
			return 0, nil, err
		}
		doc, _, err := readRunReport(rp)
		return elapsed, doc, err
	}

	cold, coldDoc, err := boot("cold")
	if err != nil {
		return err
	}
	warm, warmDoc, err := boot("warm")
	if err != nil {
		return err
	}
	res.ColdMS, res.WarmMS = cold.Milliseconds(), warm.Milliseconds()
	res.Ratio = float64(cold) / float64(warm)
	res.WarmDatasetMS = histogramMS(warmDoc.Metrics, wal.MetricWALRestoreSec, "step", "dataset")
	res.WarmCacheMS = histogramMS(warmDoc.Metrics, wal.MetricWALRestoreSec, "step", "cache")
	res.ColdClassifyMS = histogramMS(coldDoc.Metrics, core.MetricStageWallSec, "stage", "classify")
	fmt.Fprintf(os.Stderr, "  warmspeed: cold=%v warm=%v ratio=%.1fx (gate %.1fx); warm restore dataset=%.0fms cache=%.0fms, cold classify=%.0fms\n",
		cold.Round(time.Millisecond), warm.Round(time.Millisecond), res.Ratio, h.cfg.warmRatio,
		res.WarmDatasetMS, res.WarmCacheMS, res.ColdClassifyMS)
	if res.Ratio < h.cfg.warmRatio {
		res.failf("warm restart only %.1fx faster than cold boot (want >= %.1fx): cold=%v warm=%v",
			res.Ratio, h.cfg.warmRatio, cold, warm)
	}
	if warmDoc.WAL == nil || !warmDoc.WAL.Warm {
		res.failf("second boot was not warm: %+v", warmDoc.WAL)
	}
	if warmDoc.Cache.Misses != 0 {
		res.failf("warm boot recomputed %d cells, want 0", warmDoc.Cache.Misses)
	}
	return nil
}

// --- daemon process control -------------------------------------------

type healthDoc struct {
	Status     string `json:"status"`
	Generation uint64 `json:"generation"`
	LastScan   string `json:"last_scan"`
	Domains    int    `json:"domains"`
}

type daemon struct {
	cmd  *exec.Cmd
	base string
	// done closes once the process exits; exitErr is valid after that.
	done    chan struct{}
	exitErr error

	mu  sync.Mutex
	log []string
}

// start launches retrodnsd on an ephemeral port and waits for it to
// announce its bound address on stderr.
func (h *harness) start(args []string) (*daemon, error) {
	full := append([]string{"-listen", "127.0.0.1:0"}, args...)
	cmd := exec.Command(h.cfg.bin, full...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, done: make(chan struct{})}
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
		for sc.Scan() {
			line := sc.Text()
			d.mu.Lock()
			d.log = append(d.log, line)
			if len(d.log) > 50 {
				d.log = d.log[1:]
			}
			d.mu.Unlock()
			if h.cfg.verbose {
				fmt.Fprintf(os.Stderr, "  [retrodnsd] %s\n", line)
			}
			if rest, ok := strings.CutPrefix(line, "serving /v1 API on http://"); ok {
				select {
				case addrCh <- rest:
				default:
				}
			}
		}
	}()
	go func() { d.exitErr = cmd.Wait(); close(d.done) }()
	select {
	case addr := <-addrCh:
		d.base = "http://" + addr
		return d, nil
	case <-d.done:
		return nil, fmt.Errorf("daemon exited before binding: %v (log: %s)", d.exitErr, d.logTail())
	case <-time.After(30 * time.Second):
		d.kill()
		return nil, fmt.Errorf("daemon never announced its address (log: %s)", d.logTail())
	}
}

func (d *daemon) logTail() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := len(d.log)
	if n > 5 {
		return strings.Join(d.log[n-5:], " | ")
	}
	return strings.Join(d.log, " | ")
}

func (d *daemon) kill() {
	_ = d.cmd.Process.Kill()
	<-d.done
}

// stopGracefully SIGTERMs the daemon and waits for a clean exit — the
// drain path that must flush the WAL and write the report.
func (d *daemon) stopGracefully() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case <-d.done:
		return d.exitErr
	case <-time.After(30 * time.Second):
		d.kill()
		return fmt.Errorf("daemon ignored SIGTERM (log: %s)", d.logTail())
	}
}

func (d *daemon) pollHealth(timeout time.Duration, ready func(healthDoc) bool) error {
	deadline := time.Now().Add(timeout)
	var last healthDoc
	for time.Now().Before(deadline) {
		resp, err := http.Get(d.base + "/v1/healthz")
		if err == nil {
			var hd healthDoc
			derr := json.NewDecoder(resp.Body).Decode(&hd)
			resp.Body.Close()
			if derr == nil {
				last = hd
				if ready(hd) {
					return nil
				}
			}
		}
		select {
		case <-d.done:
			return fmt.Errorf("daemon exited while polling: %v (log: %s)", d.exitErr, d.logTail())
		case <-time.After(20 * time.Millisecond):
		}
	}
	return fmt.Errorf("timeout after %v (last health: %+v)", timeout, last)
}

// fetch GETs a /v1 document, returning the body and generation header.
func (h *harness) fetch(d *daemon, path string) ([]byte, string, error) {
	resp, err := http.Get(d.base + path)
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, "", err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, "", fmt.Errorf("%s: HTTP %d: %s", path, resp.StatusCode, bytes.TrimSpace(body))
	}
	return body, resp.Header.Get("X-Retrodns-Generation"), nil
}
