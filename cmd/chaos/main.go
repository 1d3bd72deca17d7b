// Command chaos is the durability harness for retrodnsd: it generates a
// deterministic scans.csv corpus, records an uninterrupted baseline run,
// then drives fault campaigns — kill mid-ingest, truncate-mid-write,
// garble-a-byte, duplicate-append, graceful-drain kill, clock-skewed rows,
// torn CSV tail — against live daemons and asserts three invariants on
// each recovery:
//
//  1. quarantine counters account for every injected fault, by reason;
//  2. generations never mix — every response's generation header matches
//     its body, and the recovered daemon converges on the baseline's
//     final generation;
//  3. recovered state is byte-identical to the uninterrupted run — the
//     canonical run report and every sampled /v1 document compare equal.
//
// Exit status is nonzero if any campaign fails; -report-json emits a
// machine-readable verdict per campaign.
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
	"strings"
	"sync"
	"syscall"
	"time"

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

type campaignResult struct {
	Name    string   `json:"name"`
	Pass    bool     `json:"pass"`
	Details []string `json:"details,omitempty"`
}

type chaosReport struct {
	Schema    string           `json:"schema"`
	FinalGen  uint64           `json:"final_generation"`
	Campaigns []campaignResult `json:"campaigns"`
	Pass      bool             `json:"pass"`
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
	var killAt uint64
	flag.Uint64Var(&killAt, "kill-at-gen", 3, "kill once healthz reports at least this generation")
	flag.IntVar(&cfg.warmDoms, "warm-domains", 0, "also run the warm-restart speedup gate over a corpus this large (0 = skip)")
	flag.Float64Var(&cfg.warmRatio, "warm-speedup", 5.0, "minimum warm/cold time-to-healthy ratio for the speedup gate")
	flag.BoolVar(&cfg.verbose, "v", false, "echo daemon stderr")
	reportPath := flag.String("report-json", "", "write the chaos verdict here ('-' for stdout)")
	flag.Parse()
	cfg.killAtGen = killAt
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
	if err := h.writeCorpus(); err != nil {
		return err
	}
	if err := h.baseline(); err != nil {
		return fmt.Errorf("baseline: %w", err)
	}

	campaigns := []struct {
		name string
		run  func(*campaign) error
	}{
		{"kill", h.campaignKill},
		{"truncate", h.campaignTruncate},
		{"garble", h.campaignGarble},
		{"duplicate", h.campaignDuplicate},
		{"drain", h.campaignDrain},
		{"skew", h.campaignSkew},
		{"tail", h.campaignTail},
	}
	out := chaosReport{Schema: "retrodns/chaos-report/v1", FinalGen: h.finalGen, Pass: true}
	for _, c := range campaigns {
		cam := &campaign{h: h, name: c.name, dir: filepath.Join(cfg.workdir, c.name)}
		err := c.run(cam)
		if err != nil {
			cam.failf("%v", err)
		}
		res := campaignResult{Name: c.name, Pass: len(cam.failures) == 0, Details: cam.failures}
		out.Campaigns = append(out.Campaigns, res)
		status := "PASS"
		if !res.Pass {
			status = "FAIL"
			out.Pass = false
		}
		fmt.Fprintf(os.Stderr, "campaign %-10s %s\n", c.name, status)
		for _, d := range cam.failures {
			fmt.Fprintf(os.Stderr, "  - %s\n", d)
		}
	}
	if cfg.warmDoms > 0 {
		cam := &campaign{h: h, name: "warmspeed", dir: filepath.Join(cfg.workdir, "warmspeed")}
		if err := h.campaignWarmSpeed(cam); err != nil {
			cam.failf("%v", err)
		}
		res := campaignResult{Name: "warmspeed", Pass: len(cam.failures) == 0, Details: cam.failures}
		out.Campaigns = append(out.Campaigns, res)
		if !res.Pass {
			out.Pass = false
		}
		status := "PASS"
		if !res.Pass {
			status = "FAIL"
		}
		fmt.Fprintf(os.Stderr, "campaign %-10s %s\n", "warmspeed", status)
		for _, d := range cam.failures {
			fmt.Fprintf(os.Stderr, "  - %s\n", d)
		}
	}

	if *reportPath != "" {
		if err := writeJSON(*reportPath, out); err != nil {
			return err
		}
	}
	if !out.Pass {
		return fmt.Errorf("%d campaign(s) failed", countFailed(out.Campaigns))
	}
	fmt.Fprintln(os.Stderr, "all campaigns passed")
	return nil
}

func countFailed(cs []campaignResult) int {
	n := 0
	for _, c := range cs {
		if !c.Pass {
			n++
		}
	}
	return n
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

// docPaths are the /v1 documents sampled for byte comparison. The domain
// endpoint is filled in once the corpus names are known.
var docPaths = []string{"/v1/funnel", "/v1/shortlist", "/v1/patterns/T1", "/v1/patterns/stable"}

type harness struct {
	cfg config

	csvPath   string
	domain    string // a corpus domain for /v1/domain sampling
	finalGen  uint64
	lastScan  string
	canonical []byte            // canonical baseline run report encoding
	docs      map[string][]byte // baseline /v1 documents
}

// writeCorpus renders the synth corpus to scans.csv once; campaigns that
// need a damaged feed copy and mutate it.
func (h *harness) writeCorpus() error {
	h.csvPath = filepath.Join(h.cfg.workdir, "scans.csv")
	g := synth.New(synth.Config{Domains: h.cfg.domains, Seed: h.cfg.seed, Scans: h.cfg.scans})
	f, err := os.Create(h.csvPath)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, strings.Join(scanner.ScanCSVHeader, ","))
	dates := g.ScanDates()
	for _, date := range dates {
		g.EmitScan(date, func(r *scanner.Record) {
			if h.domain == "" && len(r.Cert.SANs) > 0 {
				h.domain = string(r.Cert.SANs[0])
			}
			fmt.Fprintln(w, strings.Join(scanner.FormatScanRow(r), ","))
		})
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	h.finalGen = uint64(len(dates)) + 1 // first Append freezes gen 1, publishes 2
	h.lastScan = dates[len(dates)-1].String()
	return nil
}

func (h *harness) daemonArgs(dir, reportJSON string, extra ...string) []string {
	args := []string{
		"-scans-csv", h.csvPath,
		"-data-dir", dir,
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
	d, err := h.start(h.daemonArgs(filepath.Join(dir, "data"), rp,
		"-scan-interval", h.cfg.interval.String(), "-snapshot-every", "2"))
	if err != nil {
		return err
	}
	if err := h.awaitFinal(d); err != nil {
		d.kill()
		return err
	}
	h.docs = make(map[string][]byte)
	for _, p := range h.docPathsAll() {
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
	doc, err := readRunReport(rp)
	if err != nil {
		return err
	}
	h.canonical, err = canonicalBytes(doc)
	return err
}

func (h *harness) docPathsAll() []string {
	return append(append([]string(nil), docPaths...), "/v1/domain/"+h.domain)
}

func (h *harness) awaitFinal(d *daemon) error {
	return d.pollHealth(60*time.Second, func(hd healthDoc) bool {
		return hd.Generation == h.finalGen && hd.LastScan == h.lastScan
	})
}

func readRunReport(path string) (*report.RunReport, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return report.ReadRunReport(f)
}

func canonicalBytes(doc *report.RunReport) ([]byte, error) {
	var buf bytes.Buffer
	if err := doc.Canonical().Encode(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// metricValue sums report metric samples matching name (and, when set,
// one label pair).
func metricValue(doc *report.RunReport, name, labelKey, labelVal string) int64 {
	var sum int64
	for _, s := range doc.Metrics {
		if s.Name != name {
			continue
		}
		if labelKey != "" && s.Labels[labelKey] != labelVal {
			continue
		}
		sum += s.Value
	}
	return sum
}

// campaign tracks one fault scenario's working state and failures.
type campaign struct {
	h        *harness
	name     string
	dir      string
	failures []string
}

func (c *campaign) failf(format string, args ...any) {
	c.failures = append(c.failures, fmt.Sprintf(format, args...))
}

func (c *campaign) dataDir() string { return filepath.Join(c.dir, "data") }
func (c *campaign) walPath() string { return filepath.Join(c.dataDir(), "wal.log") }

// runToKill starts a daemon over the corpus and SIGKILLs it once ingest
// has passed kill-at-gen. snapshotEvery is set high so the whole log
// survives for fault injection.
func (c *campaign) runToKill(snapshotEvery int) error {
	d, err := c.h.start(c.h.daemonArgs(c.dataDir(), filepath.Join(c.dir, "phase1.json"),
		"-scan-interval", c.h.cfg.interval.String(),
		"-snapshot-every", fmt.Sprint(snapshotEvery)))
	if err != nil {
		return err
	}
	if err := d.pollHealth(30*time.Second, func(hd healthDoc) bool {
		return hd.Generation >= c.h.cfg.killAtGen
	}); err != nil {
		d.kill()
		return err
	}
	d.kill()
	return nil
}

// recoverAndVerify restarts the daemon over the (possibly damaged) data
// dir, waits for convergence, and runs the three shared assertions. The
// returned report lets callers assert campaign-specific counters.
func (c *campaign) recoverAndVerify(csvPath string) *report.RunReport {
	rp := filepath.Join(c.dir, "report.json")
	args := []string{
		"-scans-csv", csvPath,
		"-data-dir", c.dataDir(),
		"-shards", fmt.Sprint(c.h.cfg.shards),
		"-report-json", rp,
		"-snapshot-every", "2",
	}
	d, err := c.h.start(args)
	if err != nil {
		c.failf("restart: %v", err)
		return nil
	}
	if err := c.h.awaitFinal(d); err != nil {
		d.kill()
		c.failf("recovered daemon never converged: %v (log tail: %s)", err, d.logTail())
		return nil
	}
	// Invariant 2: generations never mix. Every sampled document carries a
	// generation header equal to its body's generation, all at finalGen.
	for _, p := range c.h.docPathsAll() {
		body, gen, err := c.h.fetch(d, p)
		if err != nil {
			c.failf("%s: %v", p, err)
			continue
		}
		if gen != fmt.Sprint(c.h.finalGen) {
			c.failf("%s: generation header %q, want %d", p, gen, c.h.finalGen)
		}
		if !bytes.Contains(body, []byte(fmt.Sprintf(`"generation": %d`, c.h.finalGen))) {
			c.failf("%s: body generation differs from header %d", p, c.h.finalGen)
		}
		// Invariant 3a: documents byte-identical to the baseline's.
		if want := c.h.docs[p]; !bytes.Equal(body, want) {
			c.failf("%s: response differs from baseline", p)
		}
	}
	if err := d.stopGracefully(); err != nil {
		c.failf("graceful stop: %v", err)
		return nil
	}
	doc, err := readRunReport(rp)
	if err != nil {
		c.failf("report: %v", err)
		return nil
	}
	// Invariant 3b: the canonical run report is byte-identical to the
	// uninterrupted baseline's.
	got, err := canonicalBytes(doc)
	if err != nil {
		c.failf("canonicalize: %v", err)
		return doc
	}
	if !bytes.Equal(got, c.h.canonical) {
		c.failf("canonical run report differs from baseline (%d vs %d bytes)", len(got), len(c.h.canonical))
	}
	return doc
}

func (c *campaign) requireFault(doc *report.RunReport, reason string, want int64) {
	if doc == nil {
		return
	}
	if got := metricValue(doc, wal.MetricWALQuarantined, "reason", reason); got != want {
		c.failf("wal quarantine %s = %d, want %d", reason, got, want)
	}
}

// campaignKill: SIGKILL mid-ingest, no further damage. Recovery replays
// the WAL; whatever the kill tore (at most one tail frame) is quarantined.
func (h *harness) campaignKill(c *campaign) error {
	if err := c.runToKill(2); err != nil {
		return err
	}
	doc := c.recoverAndVerify(h.csvPath)
	if doc == nil {
		return nil
	}
	if doc.WAL == nil || !doc.WAL.Warm {
		c.failf("recovery was not warm: %+v", doc.WAL)
	}
	if torn := metricValue(doc, wal.MetricWALQuarantined, "reason", wal.FaultTornTail); torn > 1 {
		c.failf("kill produced %d torn tails, want at most 1", torn)
	}
	return nil
}

// campaignTruncate: kill, then shear 7 bytes off the WAL — the shape of a
// crash mid-write. Exactly one torn_tail must be quarantined.
func (h *harness) campaignTruncate(c *campaign) error {
	if err := c.runToKill(1000); err != nil {
		return err
	}
	fi, err := os.Stat(c.walPath())
	if err != nil {
		return err
	}
	if fi.Size() < 8 {
		return fmt.Errorf("wal too small to truncate (%d bytes)", fi.Size())
	}
	if err := os.Truncate(c.walPath(), fi.Size()-7); err != nil {
		return err
	}
	doc := c.recoverAndVerify(h.csvPath)
	c.requireFault(doc, wal.FaultTornTail, 1)
	return nil
}

// campaignGarble: kill, then flip one byte inside the last frame's body.
// The CRC catches it: exactly one crc_mismatch, and the damaged frame's
// batch is re-ingested from the feed.
func (h *harness) campaignGarble(c *campaign) error {
	if err := c.runToKill(1000); err != nil {
		return err
	}
	data, err := os.ReadFile(c.walPath())
	if err != nil {
		return err
	}
	if len(data) < 16 {
		return fmt.Errorf("wal too small to garble (%d bytes)", len(data))
	}
	data[len(data)-10] ^= 0x41
	if err := os.WriteFile(c.walPath(), data, 0o644); err != nil {
		return err
	}
	doc := c.recoverAndVerify(h.csvPath)
	c.requireFault(doc, wal.FaultCRCMismatch, 1)
	return nil
}

// campaignDuplicate: kill, then append the whole log to itself — stale
// generations must all be skipped, one duplicate_generation count each.
func (h *harness) campaignDuplicate(c *campaign) error {
	if err := c.runToKill(1000); err != nil {
		return err
	}
	data, err := os.ReadFile(c.walPath())
	if err != nil {
		return err
	}
	frames := 0
	if _, err := wal.Replay(data, func(uint64, simtime.Date, []*scanner.Record) error {
		frames++
		return nil
	}); err != nil {
		// A torn tail from the kill itself is fine; only complete frames
		// duplicate.
		fmt.Fprintf(os.Stderr, "  (duplicate: log tail already damaged: %v)\n", err)
	}
	if frames == 0 {
		return fmt.Errorf("no complete frames to duplicate")
	}
	f, err := os.OpenFile(c.walPath(), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	doc := c.recoverAndVerify(h.csvPath)
	if doc == nil {
		return nil
	}
	if got := metricValue(doc, wal.MetricWALQuarantined, "reason", wal.FaultDupGeneration); got < int64(frames) {
		c.failf("duplicate_generation = %d, want >= %d (one per duplicated frame)", got, frames)
	}
	return nil
}

// campaignDrain: SIGTERM mid-ingest — the graceful path. The drain must
// leave a whole, fsynced WAL so the restart recovers with zero
// damage-class faults.
func (h *harness) campaignDrain(c *campaign) error {
	d, err := h.start(h.daemonArgs(c.dataDir(), filepath.Join(c.dir, "phase1.json"),
		"-scan-interval", h.cfg.interval.String(), "-snapshot-every", "1000"))
	if err != nil {
		return err
	}
	if err := d.pollHealth(30*time.Second, func(hd healthDoc) bool {
		return hd.Generation >= h.cfg.killAtGen
	}); err != nil {
		d.kill()
		return err
	}
	if err := d.stopGracefully(); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	doc := c.recoverAndVerify(h.csvPath)
	if doc == nil {
		return nil
	}
	if doc.WAL == nil || !doc.WAL.Warm {
		c.failf("drain recovery was not warm: %+v", doc.WAL)
	}
	for _, reason := range []string{wal.FaultTornTail, wal.FaultCRCMismatch, wal.FaultBadFrame, wal.FaultOutOfOrder} {
		c.requireFault(doc, reason, 0)
	}
	return nil
}

// campaignSkew: the feed carries rows dated outside the study window. The
// gate must divert them (clock_skew) without disturbing the dataset.
func (h *harness) campaignSkew(c *campaign) error {
	skewed, n, err := h.corpusWithSkewedRows(c.dir)
	if err != nil {
		return err
	}
	doc := c.recoverAndVerify(skewed)
	if doc == nil {
		return nil
	}
	if got := metricValue(doc, wal.MetricFeedQuarantined, "reason", wal.FeedClockSkew); got != int64(n) {
		c.failf("feed clock_skew = %d, want %d", got, n)
	}
	return nil
}

// corpusWithSkewedRows copies the corpus and appends rows re-dated past
// the study window. Returns the copy's path and the number of rows added.
func (h *harness) corpusWithSkewedRows(dir string) (string, int, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", 0, err
	}
	data, err := os.ReadFile(h.csvPath)
	if err != nil {
		return "", 0, err
	}
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	const n = 3
	if len(lines) < n+1 {
		return "", 0, fmt.Errorf("corpus too small")
	}
	future := (simtime.StudyEnd + 30).Time().Format("2006-01-02")
	var extra strings.Builder
	for _, line := range lines[1 : 1+n] { // skip header
		_, rest, _ := strings.Cut(line, ",")
		fmt.Fprintf(&extra, "%s,%s\n", future, rest)
	}
	out := filepath.Join(dir, "scans-skew.csv")
	return out, n, os.WriteFile(out, append(data, extra.String()...), 0o644)
}

// campaignTail: the feed ends mid-record — a writer died between row
// bytes. The torn line is quarantined as truncated_tail; everything
// before it ingests normally.
func (h *harness) campaignTail(c *campaign) error {
	if err := os.MkdirAll(c.dir, 0o755); err != nil {
		return err
	}
	data, err := os.ReadFile(h.csvPath)
	if err != nil {
		return err
	}
	torn := filepath.Join(c.dir, "scans-torn.csv")
	partial := append(data, []byte("2017-03-05,10.0.0.1,443,64512,GR,9")...)
	if err := os.WriteFile(torn, partial, 0o644); err != nil {
		return err
	}
	doc := c.recoverAndVerify(torn)
	if doc == nil {
		return nil
	}
	if got := metricValue(doc, wal.MetricFeedQuarantined, "reason", wal.FeedTruncatedTail); got != 1 {
		c.failf("feed truncated_tail = %d, want 1", got)
	}
	return nil
}

// campaignWarmSpeed: over a large corpus, a warm restart must reach the
// final generation at least warm-speedup times faster than the cold boot
// that built it, and the warm run must not recompute a single cell.
func (h *harness) campaignWarmSpeed(c *campaign) error {
	big := filepath.Join(c.dir, "scans-big.csv")
	if err := os.MkdirAll(c.dir, 0o755); err != nil {
		return err
	}
	g := synth.New(synth.Config{Domains: h.cfg.warmDoms, Seed: h.cfg.seed, Scans: h.cfg.scans})
	f, err := os.Create(big)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, strings.Join(scanner.ScanCSVHeader, ","))
	dates := g.ScanDates()
	for _, date := range dates {
		g.EmitScan(date, func(r *scanner.Record) {
			fmt.Fprintln(w, strings.Join(scanner.FormatScanRow(r), ","))
		})
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	finalGen := uint64(len(dates)) + 1
	lastScan := dates[len(dates)-1].String()
	await := func(d *daemon) error {
		return d.pollHealth(10*time.Minute, func(hd healthDoc) bool {
			return hd.Generation == finalGen && hd.LastScan == lastScan
		})
	}

	run := func(phase string) (time.Duration, *report.RunReport, error) {
		rp := filepath.Join(c.dir, phase+".json")
		start := time.Now()
		d, err := h.start([]string{
			"-scans-csv", big,
			"-data-dir", c.dataDir(),
			"-shards", fmt.Sprint(h.cfg.shards),
			"-report-json", rp,
			"-snapshot-every", "1",
		})
		if err != nil {
			return 0, nil, err
		}
		if err := await(d); err != nil {
			d.kill()
			return 0, nil, fmt.Errorf("%s boot never converged: %v", phase, err)
		}
		elapsed := time.Since(start)
		if err := d.stopGracefully(); err != nil {
			return 0, nil, err
		}
		doc, err := readRunReport(rp)
		return elapsed, doc, err
	}

	cold, _, err := run("cold")
	if err != nil {
		return err
	}
	warm, warmDoc, err := run("warm")
	if err != nil {
		return err
	}
	ratio := float64(cold) / float64(warm)
	fmt.Fprintf(os.Stderr, "  warmspeed: cold=%v warm=%v ratio=%.1fx (gate %.1fx)\n",
		cold.Round(time.Millisecond), warm.Round(time.Millisecond), ratio, h.cfg.warmRatio)
	if ratio < h.cfg.warmRatio {
		c.failf("warm restart only %.1fx faster than cold boot (want >= %.1fx): cold=%v warm=%v",
			ratio, h.cfg.warmRatio, cold, warm)
	}
	if warmDoc.WAL == nil || !warmDoc.WAL.Warm {
		c.failf("second boot was not warm: %+v", warmDoc.WAL)
	}
	if warmDoc.Cache.Misses != 0 {
		c.failf("warm boot recomputed %d cells, want 0", warmDoc.Cache.Misses)
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
