// Command loadgen drives mixed-endpoint load against a running retrodnsd
// and emits a retrodns/load-report/v1 JSON document: achieved QPS,
// p50/p90/p99/p999 latency, and error/429 counts per endpoint. It is the
// measuring half of the CI load gate — scripts/smoke_load.sh boots a
// daemon, runs loadgen at a fixed request budget, and feeds the report
// through cmd/benchdiff against LOAD_BASELINE.json.
//
// Key selection mirrors production skew: domain keys are the snapshot's
// real domains (fetched from /v1/patterns/* at startup) drawn from a
// zipf distribution, so a hot head of popular domains exercises the
// LRU/prerender path while the tail forces misses.
//
// Two loops:
//   - closed (default): every connection fires its next request as soon
//     as the previous one completes — measures capacity.
//   - open (-qps N): requests are paced at a fixed arrival rate
//     regardless of completions — measures latency under a target load,
//     including queueing delay when the server falls behind.
//
// Usage:
//
//	loadgen -target http://127.0.0.1:8080 -duration 10s -connections 8 \
//	  -mix 'domain=60,shortlist=10,funnel=10,patterns=15,healthz=5' \
//	  -warmup 1s -label lru0 -out load.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"retrodns/internal/obsv"
	"retrodns/internal/report"
	"retrodns/internal/serve"
)

// Loadgen-side metric families, embedded in the load report's metrics
// snapshot.
const (
	metricLoadRequests   = "retrodns_loadgen_requests_total"
	metricLoadErrors     = "retrodns_loadgen_errors_total"
	metricLoadLimited    = "retrodns_loadgen_ratelimited_total"
	metricLoadLatencySec = "retrodns_loadgen_latency_seconds"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type config struct {
	target      string
	duration    time.Duration
	requests    int64
	qps         float64
	connections int
	warmup      time.Duration
	wait        time.Duration
	mix         []mixEntry
	tenants     int
	zipfS       float64
	seed        int64
	label       string
	out         string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		target   = fs.String("target", "", "base URL of the daemon, e.g. http://127.0.0.1:8080 (required)")
		duration = fs.Duration("duration", 10*time.Second, "hard cap on the run, warmup included")
		requests = fs.Int64("requests", 0, "stop after this many measured requests (0: run the full -duration)")
		qps      = fs.Float64("qps", 0, "open-loop arrival rate; 0 means closed loop")
		conns    = fs.Int("connections", 8, "concurrent connections (worker goroutines)")
		warmup   = fs.Duration("warmup", time.Second, "discard samples recorded before this cutoff")
		wait     = fs.Duration("wait", 30*time.Second, "how long to wait for /v1/healthz before starting")
		mixStr   = fs.String("mix", "domain=60,shortlist=10,funnel=10,patterns=15,healthz=5", "endpoint mix as name=weight pairs")
		tenants  = fs.Int("tenants", 1, "rotate X-Retrodns-Tenant across this many synthetic tenants")
		zipfS    = fs.Float64("zipf-s", 1.1, "zipf skew for domain-key popularity (>1)")
		seed     = fs.Int64("seed", 1, "RNG seed for key selection")
		label    = fs.String("label", "", "prefix for sample names in the report (e.g. lru0)")
		out      = fs.String("out", "", "write the load report here (default stdout)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *target == "" {
		fmt.Fprintln(stderr, "loadgen: -target is required")
		return 2
	}
	mix, err := parseMix(*mixStr)
	if err != nil {
		fmt.Fprintln(stderr, "loadgen:", err)
		return 2
	}
	cfg := config{
		target: strings.TrimRight(*target, "/"), duration: *duration,
		requests: *requests, qps: *qps, connections: *conns,
		warmup: *warmup, wait: *wait, mix: mix, tenants: *tenants,
		zipfS: *zipfS, seed: *seed, label: *label, out: *out,
	}
	if cfg.connections < 1 {
		cfg.connections = 1
	}
	if cfg.warmup >= cfg.duration {
		fmt.Fprintln(stderr, "loadgen: -warmup must be shorter than -duration")
		return 2
	}

	client := &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        cfg.connections,
			MaxIdleConnsPerHost: cfg.connections,
		},
	}
	if err := waitHealthy(client, cfg.target, cfg.wait); err != nil {
		fmt.Fprintln(stderr, "loadgen:", err)
		return 2
	}
	domains, err := fetchDomains(client, cfg.target)
	if err != nil {
		fmt.Fprintln(stderr, "loadgen:", err)
		return 2
	}
	if len(domains) == 0 {
		fmt.Fprintln(stderr, "loadgen: snapshot has no domains to query")
		return 2
	}

	rep := drive(client, cfg, domains)

	var w io.Writer = stdout
	if cfg.out != "" {
		f, err := os.Create(cfg.out)
		if err != nil {
			fmt.Fprintln(stderr, "loadgen:", err)
			return 2
		}
		defer f.Close()
		w = f
	}
	if err := rep.Encode(w); err != nil {
		fmt.Fprintln(stderr, "loadgen:", err)
		return 2
	}
	for _, s := range rep.Samples {
		fmt.Fprintf(stderr, "loadgen: %-24s %8d req  %9.1f qps  p50 %8s  p99 %8s  err %d  429 %d\n",
			s.Name, s.Requests, s.QPS,
			time.Duration(s.P50NS).Round(time.Microsecond),
			time.Duration(s.P99NS).Round(time.Microsecond),
			s.Errors, s.RateLimited)
	}
	return 0
}

// mixEntry is one endpoint's share of generated traffic.
type mixEntry struct {
	endpoint string
	weight   int
}

// knownEndpoints are the endpoint names -mix accepts.
var knownEndpoints = map[string]bool{
	"domain": true, "shortlist": true, "funnel": true,
	"patterns": true, "healthz": true,
}

// parseMix parses "domain=60,funnel=10,..." into weighted entries.
// Weights are relative, not percentages; zero-weight entries are
// dropped.
func parseMix(s string) ([]mixEntry, error) {
	var out []mixEntry
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, val, found := strings.Cut(part, "=")
		if !found {
			return nil, fmt.Errorf("mix entry %q: want name=weight", part)
		}
		if !knownEndpoints[name] {
			return nil, fmt.Errorf("mix entry %q: unknown endpoint %q", part, name)
		}
		w, err := strconv.Atoi(val)
		if err != nil || w < 0 {
			return nil, fmt.Errorf("mix entry %q: bad weight", part)
		}
		if w == 0 {
			continue
		}
		out = append(out, mixEntry{endpoint: name, weight: w})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("mix %q selects no endpoints", s)
	}
	return out, nil
}

// pickEndpoint draws one endpoint from the weighted mix.
func pickEndpoint(mix []mixEntry, total int, r *rand.Rand) string {
	n := r.Intn(total)
	for _, m := range mix {
		if n < m.weight {
			return m.endpoint
		}
		n -= m.weight
	}
	return mix[len(mix)-1].endpoint
}

// waitHealthy polls /v1/healthz until the daemon serves a snapshot.
func waitHealthy(client *http.Client, target string, wait time.Duration) error {
	deadline := time.Now().Add(wait)
	for {
		resp, err := client.Get(target + "/v1/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("target %s not healthy after %s", target, wait)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// fetchDomains collects the snapshot's real domain keys from the
// /v1/patterns endpoints, deduplicated in first-seen order so the zipf
// head is stable for a fixed snapshot.
func fetchDomains(client *http.Client, target string) ([]string, error) {
	seen := make(map[string]bool)
	var out []string
	for _, label := range serve.PatternLabels {
		resp, err := client.Get(target + "/v1/patterns/" + label)
		if err != nil {
			return nil, fmt.Errorf("fetch patterns/%s: %v", label, err)
		}
		var doc struct {
			Domains []string `json:"domains"`
		}
		err = decodeJSON(resp.Body, &doc)
		resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("patterns/%s: %v", label, err)
		}
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("patterns/%s: status %d", label, resp.StatusCode)
		}
		for _, d := range doc.Domains {
			if !seen[d] {
				seen[d] = true
				out = append(out, d)
			}
		}
	}
	return out, nil
}

// workerStats accumulates one worker's measured (post-warmup) traffic;
// workers never share these, so the hot loop takes no locks beyond the
// HTTP client's own.
type workerStats struct {
	lat     map[string][]int64
	reqs    map[string]int64
	errs    map[string]int64
	limited map[string]int64
}

func newWorkerStats() *workerStats {
	return &workerStats{
		lat:     make(map[string][]int64),
		reqs:    make(map[string]int64),
		errs:    make(map[string]int64),
		limited: make(map[string]int64),
	}
}

// drive runs the load and assembles the report.
func drive(client *http.Client, cfg config, domains []string) report.LoadReport {
	reg := obsv.NewRegistry()
	reg.SetHelp(metricLoadRequests, "Requests loadgen issued, by endpoint.")
	reg.SetHelp(metricLoadErrors, "Non-429 error responses loadgen saw, by endpoint.")
	reg.SetHelp(metricLoadLimited, "429 responses loadgen saw, by endpoint.")
	reg.SetHelp(metricLoadLatencySec, "Request latency loadgen measured, by endpoint.")

	mixTotal := 0
	for _, m := range cfg.mix {
		mixTotal += m.weight
	}

	// Open loop: a pacer feeds arrival ticks at the target rate; workers
	// block on the channel. The buffer holds one second of arrivals so a
	// stalled server shows up as queueing latency, not pacer deadlock.
	var pace chan struct{}
	paceDone := make(chan struct{})
	if cfg.qps > 0 {
		buf := int(cfg.qps)
		if buf < 1 {
			buf = 1
		}
		pace = make(chan struct{}, buf)
		interval := time.Duration(float64(time.Second) / cfg.qps)
		go func() {
			tick := time.NewTicker(interval)
			defer tick.Stop()
			for {
				select {
				case <-paceDone:
					return
				case <-tick.C:
					select {
					case pace <- struct{}{}:
					default: // arrival dropped: workers saturated and buffer full
					}
				}
			}
		}()
	}

	start := time.Now()
	warmupEnd := start.Add(cfg.warmup)
	deadline := start.Add(cfg.duration)
	var budget atomic.Int64
	budget.Store(cfg.requests)

	stats := make([]*workerStats, cfg.connections)
	var wg sync.WaitGroup
	for w := 0; w < cfg.connections; w++ {
		stats[w] = newWorkerStats()
		wg.Add(1)
		go func(w int, st *workerStats) {
			defer wg.Done()
			r := rand.New(rand.NewSource(cfg.seed + int64(w)*7919))
			var zipf *rand.Zipf
			if len(domains) > 1 {
				zipf = rand.NewZipf(r, cfg.zipfS, 1, uint64(len(domains)-1))
			}
			n := int64(w)
			for {
				now := time.Now()
				if now.After(deadline) {
					return
				}
				measured := now.After(warmupEnd)
				if measured && cfg.requests > 0 {
					if budget.Add(-1) < 0 {
						return
					}
				}
				if pace != nil {
					select {
					case <-pace:
					case <-time.After(deadline.Sub(now)):
						return
					}
				}
				ep := pickEndpoint(cfg.mix, mixTotal, r)
				path := requestPath(ep, domains, zipf, r)
				req, err := http.NewRequest("GET", cfg.target+path, nil)
				if err != nil {
					continue
				}
				if cfg.tenants > 1 {
					req.Header.Set(serve.TenantHeader, "tenant-"+strconv.FormatInt(n%int64(cfg.tenants), 10))
				}
				n++
				t0 := time.Now()
				resp, err := client.Do(req)
				if err != nil {
					if measured {
						st.reqs[ep]++
						st.errs[ep]++
						reg.Counter(metricLoadRequests, "endpoint", ep).Inc()
						reg.Counter(metricLoadErrors, "endpoint", ep).Inc()
					}
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				elapsed := time.Since(t0)
				if !measured {
					continue
				}
				st.reqs[ep]++
				st.lat[ep] = append(st.lat[ep], elapsed.Nanoseconds())
				reg.Counter(metricLoadRequests, "endpoint", ep).Inc()
				reg.Histogram(metricLoadLatencySec, obsv.DurationBuckets, "endpoint", ep).Observe(elapsed.Seconds())
				switch {
				case resp.StatusCode == http.StatusTooManyRequests:
					st.limited[ep]++
					reg.Counter(metricLoadLimited, "endpoint", ep).Inc()
				case resp.StatusCode >= 400:
					st.errs[ep]++
					reg.Counter(metricLoadErrors, "endpoint", ep).Inc()
				}
			}
		}(w, stats[w])
	}
	wg.Wait()
	close(paceDone)
	measuredWall := time.Since(warmupEnd)
	if measuredWall <= 0 {
		measuredWall = time.Nanosecond
	}

	merged := newWorkerStats()
	for _, st := range stats {
		for ep, lats := range st.lat {
			merged.lat[ep] = append(merged.lat[ep], lats...)
		}
		for ep, n := range st.reqs {
			merged.reqs[ep] += n
		}
		for ep, n := range st.errs {
			merged.errs[ep] += n
		}
		for ep, n := range st.limited {
			merged.limited[ep] += n
		}
	}

	rep := report.LoadReport{
		Schema: report.LoadReportSchema, Target: cfg.target, Label: cfg.label,
		OpenLoop: cfg.qps > 0, TargetQPS: cfg.qps, Connections: cfg.connections,
		WarmupNS: cfg.warmup.Nanoseconds(), DurationNS: measuredWall.Nanoseconds(),
		Metrics: reg.Snapshot(),
	}
	eps := make([]string, 0, len(merged.reqs))
	for ep := range merged.reqs {
		eps = append(eps, ep)
	}
	sort.Strings(eps)
	var allLat []int64
	var allReqs, allErrs, allLimited int64
	for _, ep := range eps {
		rep.Samples = append(rep.Samples, makeSample(cfg.label, ep, merged, measuredWall))
		allLat = append(allLat, merged.lat[ep]...)
		allReqs += merged.reqs[ep]
		allErrs += merged.errs[ep]
		allLimited += merged.limited[ep]
	}
	sort.Slice(allLat, func(i, j int) bool { return allLat[i] < allLat[j] })
	rep.Samples = append(rep.Samples, report.LoadSample{
		Name: sampleName(cfg.label, "all"), Requests: allReqs,
		Errors: allErrs, RateLimited: allLimited,
		QPS:   float64(allReqs) / measuredWall.Seconds(),
		P50NS: percentile(allLat, 0.50), P90NS: percentile(allLat, 0.90),
		P99NS: percentile(allLat, 0.99), P999NS: percentile(allLat, 0.999),
	})
	return rep
}

func makeSample(label, ep string, st *workerStats, wall time.Duration) report.LoadSample {
	lats := st.lat[ep]
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	return report.LoadSample{
		Name: sampleName(label, ep), Requests: st.reqs[ep],
		Errors: st.errs[ep], RateLimited: st.limited[ep],
		QPS:   float64(st.reqs[ep]) / wall.Seconds(),
		P50NS: percentile(lats, 0.50), P90NS: percentile(lats, 0.90),
		P99NS: percentile(lats, 0.99), P999NS: percentile(lats, 0.999),
	}
}

func sampleName(label, ep string) string {
	if label == "" {
		return ep
	}
	return label + "/" + ep
}

// requestPath picks the concrete URL path for one request. Domain keys
// follow the zipf draw over the snapshot's real domains; pattern labels
// rotate uniformly.
func requestPath(ep string, domains []string, zipf *rand.Zipf, r *rand.Rand) string {
	switch ep {
	case "domain":
		i := uint64(0)
		if zipf != nil {
			i = zipf.Uint64()
		}
		return "/v1/domain/" + domains[i]
	case "patterns":
		return "/v1/patterns/" + serve.PatternLabels[r.Intn(len(serve.PatternLabels))]
	default:
		return "/v1/" + ep
	}
}

// percentile is the nearest-rank percentile over an ascending-sorted
// slice; 0 for an empty slice.
func percentile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

func decodeJSON(rd io.Reader, v any) error {
	body, err := io.ReadAll(rd)
	if err != nil {
		return err
	}
	return json.Unmarshal(body, v)
}
