// Package retrodns_bench is the benchmark harness: one benchmark per table
// and figure of the paper, substrate micro-benchmarks, scale sweeps, and
// ablation benchmarks for the design choices DESIGN.md calls out. Quality
// ablations report recall/precision via b.ReportMetric alongside timing.
//
//	go test -bench=. -benchmem
package retrodns_bench

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"retrodns/internal/core"
	"retrodns/internal/ctlog"
	"retrodns/internal/dnscore"
	"retrodns/internal/dnsserver"
	"retrodns/internal/ipmeta"
	"retrodns/internal/merkle"
	"retrodns/internal/pdns"
	"retrodns/internal/report"
	"retrodns/internal/scanner"
	"retrodns/internal/segment"
	"retrodns/internal/serve"
	"retrodns/internal/simtime"
	"retrodns/internal/synth"
	"retrodns/internal/wal"
	"retrodns/internal/world"
	"retrodns/internal/x509lite"
)

// ---------------------------------------------------------------------------
// Shared fixtures
// ---------------------------------------------------------------------------

type studyFixture struct {
	world   *world.World
	dataset *scanner.Dataset
	result  *core.Result
}

var (
	studyOnce sync.Once
	study     *studyFixture

	coverageMu       sync.Mutex
	coverageFixtures = map[int]*studyFixture{}
)

// benchWorldConfig is the standard benchmark world: full campaign replay
// over a modest benign population.
func benchWorldConfig() world.Config {
	cfg := world.DefaultConfig()
	cfg.StableDomains = 150
	cfg.TransitionDomains = 5
	cfg.NoisyDomains = 2
	cfg.BenignTransients = 3
	return cfg
}

func buildFixture(cfg world.Config, pivot bool, params core.Params) *studyFixture {
	w := world.New(cfg)
	ds := w.Run()
	p := &core.Pipeline{Params: params, Dataset: ds, Meta: w.Meta, PDNS: w.PDNSDB, CT: w.CT, DisablePivot: !pivot}
	return &studyFixture{world: w, dataset: ds, result: p.Run()}
}

func getStudy(b *testing.B) *studyFixture {
	b.Helper()
	studyOnce.Do(func() {
		study = buildFixture(benchWorldConfig(), true, core.DefaultParams())
	})
	return study
}

func getCoverageStudy(b *testing.B, pct int) *studyFixture {
	b.Helper()
	coverageMu.Lock()
	defer coverageMu.Unlock()
	if f, ok := coverageFixtures[pct]; ok {
		return f
	}
	cfg := benchWorldConfig()
	cfg.StableDomains = 50
	cfg.PDNSCoverage = float64(pct) / 100
	f := buildFixture(cfg, true, core.DefaultParams())
	coverageFixtures[pct] = f
	return f
}

// recallOf scores a result against the world's ground truth.
func recallOf(w *world.World, res *core.Result) (recall, precision float64) {
	expH, expT := w.ExpectedVictims()
	got := map[dnscore.Name]core.Verdict{}
	for _, f := range res.Findings() {
		got[f.Domain] = f.Verdict
	}
	tp, fn, fp := 0, 0, 0
	for _, d := range expH {
		if got[d] == core.VerdictHijacked {
			tp++
		} else {
			fn++
		}
	}
	for _, d := range expT {
		if _, ok := got[d]; ok {
			tp++
		} else {
			fn++
		}
	}
	for d := range got {
		if t := w.Truth[d]; t == nil || (t.Kind != "hijacked" && t.Kind != "targeted") {
			fp++
		}
	}
	if tp+fn > 0 {
		recall = float64(tp) / float64(tp+fn)
	}
	if tp+fp > 0 {
		precision = float64(tp) / float64(tp+fp)
	}
	return recall, precision
}

// ---------------------------------------------------------------------------
// Per-table / per-figure benchmarks
// ---------------------------------------------------------------------------

// BenchmarkTable1 regenerates the annotated scan rows (paper Table 1).
func BenchmarkTable1(b *testing.B) {
	fx := getStudy(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = report.Table1(fx.dataset, "kyvernisi.gr", 0, simtime.StudyEnd)
	}
}

// BenchmarkFigure2 rebuilds and renders the kyvernisi.gr deployment map.
func BenchmarkFigure2(b *testing.B) {
	fx := getStudy(b)
	params := core.DefaultParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = report.PatternGallery(fx.dataset, params, map[string]dnscore.Name{"fig2": "kyvernisi.gr"})
	}
}

// BenchmarkFigures3to5 renders the stable/transition/transient galleries.
func BenchmarkFigures3to5(b *testing.B) {
	fx := getStudy(b)
	params := core.DefaultParams()
	examples := map[string]dnscore.Name{
		"S": "stable0000.com", "X": "mover0000.com",
		"T1": "kyvernisi.gr", "T2": "parlament.ch", "noisy": "churn0000.com",
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = report.PatternGallery(fx.dataset, params, examples)
	}
}

// BenchmarkFunnel runs the full five-step pipeline (paper §4.2–§4.5 funnel).
func BenchmarkFunnel(b *testing.B) {
	fx := getStudy(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := &core.Pipeline{Params: core.DefaultParams(), Dataset: fx.dataset,
			Meta: fx.world.Meta, PDNS: fx.world.PDNSDB, CT: fx.world.CT}
		res := p.Run()
		if len(res.Hijacked) != len(world.HijackedRows) {
			b.Fatalf("hijacked = %d", len(res.Hijacked))
		}
	}
	r, p := recallOf(fx.world, fx.result)
	b.ReportMetric(r, "recall")
	b.ReportMetric(p, "precision")
}

// BenchmarkTable2 renders the hijacked-domains table.
func BenchmarkTable2(b *testing.B) {
	fx := getStudy(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = report.Table2(fx.result.Hijacked)
	}
	b.ReportMetric(float64(len(fx.result.Hijacked)), "hijacked")
}

// BenchmarkTable3 renders the targeted-domains table.
func BenchmarkTable3(b *testing.B) {
	fx := getStudy(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = report.Table3(fx.result.Targeted)
	}
	b.ReportMetric(float64(len(fx.result.Targeted)), "targeted")
}

// BenchmarkTable4 renders the sector breakdown.
func BenchmarkTable4(b *testing.B) {
	fx := getStudy(b)
	sectors := map[dnscore.Name]string{}
	for _, t := range fx.world.TruthList() {
		sectors[t.Domain] = t.Sector
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = report.Table4(fx.result.Hijacked, fx.result.Targeted, sectors)
	}
}

// BenchmarkTable5 renders the attacker-network table.
func BenchmarkTable5(b *testing.B) {
	fx := getStudy(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = report.Table5(fx.result.Hijacked, fx.result.Targeted, fx.world.Meta.Orgs)
	}
}

// BenchmarkTable9 renders the malicious-certificate table.
func BenchmarkTable9(b *testing.B) {
	fx := getStudy(b)
	crl, _ := fx.world.Comodo.CRL()
	checker := func(f *core.Finding) (bool, bool) {
		if f.IssuerCA != "Comodo" {
			return false, false
		}
		_, revoked := crl[f.CertFP]
		return revoked, true
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = report.Table9(fx.result.Hijacked, checker)
	}
}

// BenchmarkObservability computes the §5.3 statistics.
func BenchmarkObservability(b *testing.B) {
	fx := getStudy(b)
	b.ResetTimer()
	var stats core.ObservabilityStats
	for i := 0; i < b.N; i++ {
		stats = core.Observability(fx.result.Hijacked, fx.dataset, fx.world.PDNSDB, fx.world.CT)
	}
	b.ReportMetric(stats.FracPDNSAtMostOneDay(), "pdns≤1day")
	b.ReportMetric(stats.FracSeenInOneScan(), "1scan")
}

// ---------------------------------------------------------------------------
// Ablation benchmarks (design choices from DESIGN.md)
// ---------------------------------------------------------------------------

func ablationRun(b *testing.B, mutate func(*core.Params), pivot bool) {
	fx := getStudy(b)
	params := core.DefaultParams()
	if mutate != nil {
		mutate(&params)
	}
	var res *core.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := &core.Pipeline{Params: params, Dataset: fx.dataset,
			Meta: fx.world.Meta, PDNS: fx.world.PDNSDB, CT: fx.world.CT, DisablePivot: !pivot}
		res = p.Run()
	}
	b.StopTimer()
	r, prec := recallOf(fx.world, res)
	b.ReportMetric(r, "recall")
	b.ReportMetric(prec, "precision")
	b.ReportMetric(float64(len(res.Hijacked)), "hijacked")
	b.ReportMetric(float64(res.Funnel.Shortlisted), "shortlisted")
}

// BenchmarkAblationTransientThreshold sweeps the transient lifetime bound
// (the paper picks 3 months, the free-certificate validity period).
func BenchmarkAblationTransientThreshold(b *testing.B) {
	for _, days := range []int{45, 90, 150} {
		b.Run(fmt.Sprintf("days=%d", days), func(b *testing.B) {
			ablationRun(b, func(p *core.Params) { p.TransientMaxDays = days }, true)
		})
	}
}

// BenchmarkAblationPresence sweeps the scan-visibility pruning threshold
// (the paper prunes domains missing from >20% of scans).
func BenchmarkAblationPresence(b *testing.B) {
	for _, pct := range []int{50, 80, 95} {
		b.Run(fmt.Sprintf("min=%d%%", pct), func(b *testing.B) {
			ablationRun(b, func(p *core.Params) { p.MinPresence = float64(pct) / 100 }, true)
		})
	}
}

// BenchmarkAblationSensitiveGate compares shortlisting with and without
// the sensitive-subdomain requirement.
func BenchmarkAblationSensitiveGate(b *testing.B) {
	b.Run("gate=on", func(b *testing.B) { ablationRun(b, nil, true) })
	b.Run("gate=off", func(b *testing.B) {
		ablationRun(b, func(p *core.Params) { p.DisableSensitiveGate = true }, true)
	})
}

// BenchmarkAblationPivot measures the pivot stage's contribution: without
// it, the 13 pivot-only victims and the 2 T1* promotions are lost.
func BenchmarkAblationPivot(b *testing.B) {
	b.Run("pivot=on", func(b *testing.B) { ablationRun(b, nil, true) })
	b.Run("pivot=off", func(b *testing.B) { ablationRun(b, nil, false) })
}

// BenchmarkAblationPDNSCoverage sweeps passive-DNS sensor coverage — the
// paper's core external dependency. Recall degrades as sensors go blind.
func BenchmarkAblationPDNSCoverage(b *testing.B) {
	for _, pct := range []int{30, 60, 100} {
		b.Run(fmt.Sprintf("coverage=%d%%", pct), func(b *testing.B) {
			fx := getCoverageStudy(b, pct)
			var res *core.Result
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := &core.Pipeline{Params: core.DefaultParams(), Dataset: fx.dataset,
					Meta: fx.world.Meta, PDNS: fx.world.PDNSDB, CT: fx.world.CT}
				res = p.Run()
			}
			b.StopTimer()
			r, prec := recallOf(fx.world, res)
			b.ReportMetric(r, "recall")
			b.ReportMetric(prec, "precision")
		})
	}
}

// BenchmarkBaselineNaive contrasts the strawman "flag every transient"
// detector with the full pipeline: same recall on real attacks, but the
// naive detector also flags every benign transient (precision collapse).
func BenchmarkBaselineNaive(b *testing.B) {
	fx := getStudy(b)
	var findings []*core.Finding
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		findings = core.NaiveTransientDetector(fx.dataset, core.DefaultParams())
	}
	b.StopTimer()
	tp, fp := 0, 0
	for _, f := range findings {
		if truth := fx.world.Truth[f.Domain]; truth != nil && (truth.Kind == "hijacked" || truth.Kind == "targeted") {
			tp++
		} else {
			fp++
		}
	}
	precision := 0.0
	if tp+fp > 0 {
		precision = float64(tp) / float64(tp+fp)
	}
	b.ReportMetric(precision, "precision")
	b.ReportMetric(float64(len(findings)), "flagged")
}

// BenchmarkMitigationRegistryLock runs the §7.2 counterfactual: Registry
// Lock on every victim blocks the 34 registrar-channel attacks; the 7
// provider-path compromises survive but the detector, stripped of pivot
// anchors, finds none of them.
func BenchmarkMitigationRegistryLock(b *testing.B) {
	for _, lock := range []bool{false, true} {
		name := "lock=off"
		if lock {
			name = "lock=on"
		}
		b.Run(name, func(b *testing.B) {
			cfg := benchWorldConfig()
			cfg.StableDomains = 30
			cfg.RegistryLockAll = lock
			var fx *studyFixture
			for i := 0; i < b.N; i++ {
				fx = buildFixture(cfg, true, core.DefaultParams())
			}
			b.ReportMetric(float64(len(fx.world.Prevented)), "prevented")
			b.ReportMetric(float64(len(fx.result.Hijacked)), "detected-hijacked")
			b.ReportMetric(float64(len(fx.result.Targeted)), "targeted")
		})
	}
}

// ---------------------------------------------------------------------------
// Scale benchmarks
// ---------------------------------------------------------------------------

// syntheticDataset fabricates an n-domain single-period dataset directly
// (bypassing the simulator) to measure pipeline throughput.
func syntheticDataset(n int) (*scanner.Dataset, *ipmeta.Directory) {
	meta := ipmeta.NewDirectory()
	meta.Prefixes.MustAnnounce("10.0.0.0/8", 64500)
	meta.Geo.MustAddPrefix("10.0.0.0/8", "US")
	key := x509lite.NewSigningKey("scale", 1)
	ds := scanner.NewDataset()
	scans := simtime.ScansInPeriod(0)

	certs := make([]*x509lite.Certificate, n)
	ips := make([]netip.Addr, n)
	for i := 0; i < n; i++ {
		name := dnscore.Name(fmt.Sprintf("www.scale%06d.com", i))
		c := &x509lite.Certificate{Serial: uint64(i), Subject: name,
			SANs: []dnscore.Name{name}, Issuer: "Bench CA",
			NotBefore: 0, NotAfter: simtime.StudyEnd}
		key.Sign(c)
		certs[i] = c
		ips[i] = netip.AddrFrom4([4]byte{10, byte(i >> 16), byte(i >> 8), byte(i)})
	}
	for _, d := range scans {
		recs := make([]*scanner.Record, n)
		for i := 0; i < n; i++ {
			recs[i] = &scanner.Record{ScanDate: d, IP: ips[i], Ports: []uint16{443},
				ASN: 64500, Country: "US", Cert: certs[i], Trusted: true}
		}
		ds.AddScan(d, recs)
	}
	return ds, meta
}

// BenchmarkPipelineScale measures classification throughput over purely
// stable populations of increasing size.
func BenchmarkPipelineScale(b *testing.B) {
	for _, n := range []int{1000, 5000} {
		b.Run(fmt.Sprintf("domains=%d", n), func(b *testing.B) {
			ds, meta := syntheticDataset(n)
			db := pdns.NewDB()
			log := ctlog.NewLog("scale", 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := &core.Pipeline{Params: core.DefaultParams(), Dataset: ds, Meta: meta, PDNS: db, CT: log}
				res := p.Run()
				if res.Funnel.Domains != n {
					b.Fatalf("domains = %d", res.Funnel.Domains)
				}
			}
			b.ReportMetric(float64(n*len(simtime.ScansInPeriod(0)))*float64(b.N)/b.Elapsed().Seconds(), "records/s")
		})
	}
}

// BenchmarkPipelineWorkers measures the parallel classification engine's
// scaling across worker-pool sizes on the standard bench world. The
// results are provably identical across worker counts (the core package's
// TestPipelineDeterminism asserts byte-identical output for 1 vs 8).
func BenchmarkPipelineWorkers(b *testing.B) {
	fx := getStudy(b)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var res *core.Result
			for i := 0; i < b.N; i++ {
				p := &core.Pipeline{Params: core.DefaultParams(), Dataset: fx.dataset,
					Meta: fx.world.Meta, PDNS: fx.world.PDNSDB, CT: fx.world.CT, Workers: workers}
				res = p.Run()
				if len(res.Hijacked) != len(world.HijackedRows) {
					b.Fatalf("hijacked = %d", len(res.Hijacked))
				}
			}
			b.ReportMetric(res.Stats.Stage("classify").Throughput(), "maps/s")
			b.ReportMetric(res.Stats.Stage("inspect").Throughput(), "candidates/s")
			b.ReportMetric(res.Stats.Stage("classify").Utilization(), "util")
		})
	}
}

// BenchmarkDomainRecordsWindow measures the period-window lookup on
// BuildMap's critical path, in both modes: the pre-freeze filter+sort per
// call, and the post-freeze lock-free binary search over the presorted
// per-domain slice.
func BenchmarkDomainRecordsWindow(b *testing.B) {
	ds, _ := syntheticDataset(2000)
	domains := ds.Domains()
	period := simtime.Period(0)
	from, to := period.Start()+30, period.End()-30
	run := func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if recs := ds.DomainRecords(domains[i%len(domains)], from, to); len(recs) == 0 {
				b.Fatal("empty window")
			}
		}
	}
	b.Run("filter", run)
	ds.Freeze()
	b.Run("indexed", run)
}

// replayStudy precomputes the bench world's scan series for incremental
// replay: RunClock is idempotent, so the scans can be regenerated from the
// shared fixture's world after its bulk Run.
func replayStudy(b *testing.B) (dates []simtime.Date, scans [][]*scanner.Record, fx *studyFixture) {
	b.Helper()
	fx = getStudy(b)
	sc := fx.world.Scanner()
	dates = fx.world.ScanDates()
	scans = make([][]*scanner.Record, len(dates))
	for i, d := range dates {
		scans[i] = sc.ScanWeek(d)
	}
	return dates, scans, fx
}

// BenchmarkIncrementalAppend compares the cost of analyzing one more scan:
// "full" re-runs the whole uncached pipeline over the complete dataset
// (what every new scan used to cost), "append" ingests one scan through
// Dataset.Append and re-runs a warm cached pipeline (what it costs now).
// The incremental path must be >=10x faster; the equivalence tests pin
// both paths to byte-identical results.
func BenchmarkIncrementalAppend(b *testing.B) {
	dates, scans, fx := replayStudy(b)

	b.Run("full", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p := &core.Pipeline{Params: core.DefaultParams(), Dataset: fx.dataset,
				Meta: fx.world.Meta, PDNS: fx.world.PDNSDB, CT: fx.world.CT}
			if res := p.Run(); len(res.Hijacked) == 0 {
				b.Fatal("no findings")
			}
		}
	})

	b.Run("append", func(b *testing.B) {
		// Steady state: a warm cache over most of the study, then each
		// iteration appends the next scan and re-analyzes. When the study
		// runs out, the dataset and cache reset off the clock.
		warm := len(dates) - 30
		var ds *scanner.Dataset
		var pipe *core.Pipeline
		var next int
		reset := func() {
			ds = scanner.NewDataset()
			for i := 0; i < warm; i++ {
				ds.Append(dates[i], scans[i])
			}
			pipe = &core.Pipeline{Params: core.DefaultParams(), Dataset: ds,
				Meta: fx.world.Meta, PDNS: fx.world.PDNSDB, CT: fx.world.CT,
				Cache: core.NewClassifyCache()}
			pipe.Run()
			next = warm
		}
		reset()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if next == len(dates) {
				b.StopTimer()
				reset()
				b.StartTimer()
			}
			ds.Append(dates[next], scans[next])
			res := pipe.Run()
			if res.Stats.CacheHits == 0 {
				b.Fatal("cache never hit")
			}
			next++
		}
	})
}

// benchSink is a recycled http.ResponseWriter: a persistent header map
// and a byte counter in place of httptest.NewRecorder's per-request
// allocation and body copy. The engine writes shared read-only slices
// and never mutates the request, so reusing both the sink and pre-built
// requests is safe and leaves the serve path itself as the measured
// cost.
type benchSink struct {
	header http.Header
	code   int
	bytes  int
}

func (s *benchSink) Header() http.Header  { return s.header }
func (s *benchSink) WriteHeader(code int) { s.code = code }

func (s *benchSink) Write(p []byte) (int, error) {
	s.bytes += len(p)
	return len(p), nil
}

// ok reports whether the last response succeeded; handlers only call
// WriteHeader on error, so an untouched code means an implicit 200.
func (s *benchSink) ok() bool { return s.code == 0 || s.code == http.StatusOK }

// BenchmarkServeQuery measures the query engine's response path over the
// standard bench world across its serving tiers: "cold" renders a
// per-domain response per request (the reference mode, cache disabled),
// "lru" serves those same domain bodies from the warmed key-sharded LRU,
// "hit" serves the build-time prerendered zero-copy bodies of the hot
// singleton endpoints, and "domain" serves default-mode domain bodies
// assembled from the snapshot's shared tails — and fails itself if that
// path allocates. The benchgate guards all four against the committed
// baseline. The harness reuses requests and a counting sink (see
// benchSink) instead of allocating httptest recorders, so the numbers
// track the engine, not the test scaffolding.
func BenchmarkServeQuery(b *testing.B) {
	fx := getStudy(b)
	lazy := serve.BuildSnapshotOpts(fx.result, fx.dataset, time.Now(),
		serve.BuildOptions{PrerenderDomains: -1})
	full := serve.BuildSnapshot(fx.result, fx.dataset, time.Now())
	if full.Prerendered() <= full.Domains() {
		b.Fatalf("prerender incomplete: %d bodies for %d domains", full.Prerendered(), full.Domains())
	}

	// Domains with no candidate: in the default mode these are the
	// templated ones.
	flagged := make(map[dnscore.Name]bool)
	for _, c := range fx.result.Candidates {
		flagged[c.Domain] = true
	}
	domainPaths := make([]string, 0, 16)
	for name := range fx.result.History {
		if flagged[name] {
			continue
		}
		domainPaths = append(domainPaths, "/v1/domain/"+string(name))
		if len(domainPaths) == cap(domainPaths) {
			break
		}
	}
	singletons := []string{"/v1/funnel", "/v1/shortlist", "/v1/patterns/T1"}

	run := func(b *testing.B, snap *serve.Snapshot, opts serve.Options, paths []string) {
		e := serve.NewEngine(opts)
		e.Publish(snap)
		h := e.Handler()
		reqs := make([]*http.Request, len(paths))
		for i, p := range paths {
			reqs[i] = httptest.NewRequest("GET", p, nil)
		}
		sink := &benchSink{header: make(http.Header, 4)}
		for _, r := range reqs { // warm the LRU (a no-op when disabled)
			sink.code = 0
			h.ServeHTTP(sink, r)
			if !sink.ok() {
				b.Fatalf("%s = %d", r.URL.Path, sink.code)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sink.code = 0
			h.ServeHTTP(sink, reqs[i%len(reqs)])
			if !sink.ok() {
				b.Fatalf("status %d", sink.code)
			}
		}
	}
	b.Run("cold", func(b *testing.B) { run(b, lazy, serve.Options{LRUSize: -1}, domainPaths) })
	b.Run("lru", func(b *testing.B) { run(b, lazy, serve.Options{}, domainPaths) })
	b.Run("hit", func(b *testing.B) { run(b, full, serve.Options{}, singletons) })
	b.Run("domain", func(b *testing.B) {
		if full.BodiesRendered() >= full.Domains() {
			b.Fatalf("no templated domain: %d of %d rendered whole", full.BodiesRendered(), full.Domains())
		}
		run(b, full, serve.Options{}, domainPaths)
		b.StopTimer()
		e := serve.NewEngine(serve.Options{})
		e.Publish(full)
		req := httptest.NewRequest("GET", domainPaths[0], nil)
		sink := &benchSink{header: make(http.Header, 4)}
		if allocs := testing.AllocsPerRun(100, func() { e.ServeHTTP(sink, req) }); allocs > 0 {
			b.Fatalf("templated domain hit allocates %.1f/op, want 0", allocs)
		}
	})
}

// followState is the state the daemon's follow loop is in after its last
// scan: a 2500-domain x 104-scan synthetic corpus appended scan by scan
// under a cached pipeline (the follow-durable workload's shape). Built
// once per process.
func followState(b *testing.B) (*core.Result, *scanner.Dataset) {
	b.Helper()
	followOnce.Do(func() {
		g := synth.New(synth.Config{Domains: 2500, Seed: 1, Scans: 104})
		followDS = scanner.NewDatasetShards(scanner.DefaultShards)
		pipe := &core.Pipeline{
			Params: core.DefaultParams(), Dataset: followDS, PDNS: pdns.NewDB(),
			Cache: core.NewClassifyCache(),
		}
		for _, d := range g.ScanDates() {
			if err := followDS.Append(d, g.Scan(d)); err != nil {
				b.Fatal(err)
			}
			followRes = pipe.Run()
		}
	})
	return followRes, followDS
}

var (
	followOnce sync.Once
	followRes  *core.Result
	followDS   *scanner.Dataset
)

// BenchmarkBuildSnapshot measures what the follow loop pays between a
// cached run and Publish: "default" interns one body tail per distinct
// category history, "reference" flattens a DomainDoc per domain (what the
// default mode's bytes are tested against, and roughly what every build
// cost when bodies were rendered per domain).
func BenchmarkBuildSnapshot(b *testing.B) {
	res, ds := followState(b)
	run := func(opts serve.BuildOptions) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			var snap *serve.Snapshot
			for i := 0; i < b.N; i++ {
				snap = serve.BuildSnapshotOpts(res, ds, time.Time{}, opts)
			}
			if snap.Domains() != 2500 {
				b.Fatalf("snapshot indexes %d domains, want 2500", snap.Domains())
			}
			b.ReportMetric(float64(snap.BodyTemplates()), "templates")
			b.ReportMetric(float64(snap.BodiesRendered()), "rendered")
		}
	}
	b.Run("default", run(serve.BuildOptions{}))
	b.Run("reference", run(serve.BuildOptions{PrerenderDomains: -1}))
}

// BenchmarkDurableTick measures one scan of retrodnsd's durable follow loop,
// call for call: Feeder.Tick (CSV parse, feed gate, WAL frame + fsync beside
// staging, publish) → cached Run → BuildSnapshot, over the follow-durable
// corpus (2500 domains, weekly scans) on a store in b.TempDir(). The WAL
// snapshot the daemon takes every fourth scan runs off the timer: it delays
// the next scan, not this one's visibility. ns/op is ns per scan and
// allocs/op allocations per scan; when the corpus runs out the loop reopens
// on a fresh directory, also off the timer.
func BenchmarkDurableTick(b *testing.B) {
	const snapshotEvery = 4
	g := synth.New(synth.Config{Domains: 2500, Seed: 1, Scans: 104})
	var feed bytes.Buffer
	for _, date := range g.ScanDates() {
		g.EmitScan(date, func(r *scanner.Record) {
			feed.WriteString(strings.Join(scanner.FormatScanRow(r), ","))
			feed.WriteByte('\n')
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; {
		b.StopTimer()
		store, rec, err := wal.Open(wal.Options{Dir: b.TempDir(), SnapshotEvery: snapshotEvery})
		if err != nil {
			b.Fatal(err)
		}
		ds := rec.Dataset
		pipe := &core.Pipeline{
			Params: core.DefaultParams(), Dataset: ds, PDNS: pdns.NewDB(), Cache: rec.Cache,
		}
		feeder := wal.NewFeeder(bytes.NewReader(feed.Bytes()), ds, store, nil)
		b.StartTimer()
		for scan := 1; done < b.N; scan, done = scan+1, done+1 {
			_, appended, err := feeder.Tick()
			if err != nil {
				b.Fatal(err)
			}
			if !appended {
				break
			}
			snap := serve.BuildSnapshot(pipe.Run(), ds, time.Time{})
			if snap.Generation != ds.Generation() {
				b.Fatalf("snapshot at generation %d, dataset at %d", snap.Generation, ds.Generation())
			}
			if scan%snapshotEvery == 0 {
				b.StopTimer()
				if _, err := store.MaybeSnapshot(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
		}
		b.StopTimer()
		if err := store.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// BenchmarkSnapshotWrite measures one durable snapshot of a follow-loop
// dataset and its classify cache (wal.Store.Snapshot: encode both
// sections, write, fsync, rename, rotate the log), with B/op and allocs/op
// for what the write allocates beside the file; file-B is the snapshot's
// size, to read B/op against. Each snapshot follows one untimed append,
// classify and snapshot-cache update, the way retrodnsd snapshots after a
// cached run; the store restarts from scan 80 when the corpus runs out.
func BenchmarkSnapshotWrite(b *testing.B) {
	const firstScan = 80
	g := synth.New(synth.Config{Domains: 1000, Seed: 1, Scans: 104})
	dates := g.ScanDates()
	scans := make([][]*scanner.Record, len(dates))
	for i, date := range dates {
		scans[i] = g.Scan(date)
	}
	var store *wal.Store
	var pipe *core.Pipeline
	var dir string
	next := len(dates)
	var fileBytes int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if next == len(dates) {
			if store != nil {
				store.Close()
			}
			dir = b.TempDir()
			s, rec, err := wal.Open(wal.Options{Dir: dir, SnapshotEvery: 1 << 30})
			if err != nil {
				b.Fatal(err)
			}
			store, next = s, 0
			pipe = &core.Pipeline{Params: core.DefaultParams(), Dataset: rec.Dataset, PDNS: pdns.NewDB(), Cache: rec.Cache}
			for ; next < firstScan; next++ {
				if err := store.Append(dates[next], scans[next]); err != nil {
					b.Fatal(err)
				}
			}
		}
		if err := store.Append(dates[next], scans[next]); err != nil {
			b.Fatal(err)
		}
		next++
		pipe.Run()
		b.StartTimer()
		if err := store.Snapshot(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		files, err := filepath.Glob(filepath.Join(dir, "snap-*.bin"))
		if err != nil || len(files) == 0 {
			b.Fatalf("no snapshot file: %v", err)
		}
		slices.Sort(files)
		fi, err := os.Stat(files[len(files)-1])
		if err != nil {
			b.Fatal(err)
		}
		fileBytes += fi.Size()
		b.StartTimer()
	}
	b.StopTimer()
	store.Close()
	b.ReportMetric(float64(fileBytes)/float64(b.N), "file-B")
}

// BenchmarkFingerprint measures the certificate-digest memoization:
// "cold" clones the certificate first so every call recomputes the
// SHA-256; "memoized" hits the cached digest.
func BenchmarkFingerprint(b *testing.B) {
	key := x509lite.NewSigningKey("bench-fp", 9)
	c := &x509lite.Certificate{
		Serial: 77, Subject: "mail.bench.example",
		SANs:   []dnscore.Name{"mail.bench.example", "www.bench.example"},
		Issuer: "Bench CA", NotBefore: 0, NotAfter: 400,
		Method: x509lite.ValidationDNS01,
	}
	key.Sign(c)
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if fp := c.Clone().Fingerprint(); fp == (x509lite.Fingerprint{}) {
				b.Fatal("zero fingerprint")
			}
		}
	})
	b.Run("memoized", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if fp := c.Fingerprint(); fp == (x509lite.Fingerprint{}) {
				b.Fatal("zero fingerprint")
			}
		}
	})
}

// BenchmarkAddScan measures bulk ingest of one weekly scan — the per-record
// apex dedupe runs without any map allocation.
func BenchmarkAddScan(b *testing.B) {
	fx := getStudy(b)
	sc := fx.world.Scanner()
	week := sc.ScanWeek(700)
	if len(week) == 0 {
		b.Fatal("empty scan")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ds := scanner.NewDataset()
		ds.AddScan(700, week)
	}
}

// synthScans materializes a paper-shaped synthetic corpus once per
// process for the ingest benchmarks: zipf-distributed deployments, stable
// certificates recurring byte-identically every scan, rare transients.
func synthScans(b *testing.B) (dates []simtime.Date, scans [][]*scanner.Record, total int) {
	b.Helper()
	synthOnce.Do(func() {
		g := synth.New(synth.Config{Domains: 20000, Seed: 11})
		synthDates = g.ScanDates()
		synthBatches = make([][]*scanner.Record, len(synthDates))
		for i, d := range synthDates {
			synthBatches[i] = g.Scan(d)
			synthTotal += len(synthBatches[i])
			for _, r := range synthBatches[i] {
				// Warm the per-object digest memo so the first sub-benchmark
				// to run is not charged everyone's SHA-256s.
				r.Cert.Fingerprint()
			}
		}
	})
	return synthDates, synthBatches, synthTotal
}

var (
	synthOnce    sync.Once
	synthDates   []simtime.Date
	synthBatches [][]*scanner.Record
	synthTotal   int
)

// archiveScans generates the longitudinal synth corpus once per process:
// 4 000 domains x 104 weekly scans, the shape of the benchmark of record's
// batch-archive workload. Four scans leave a domain's records a few
// hundred KB apart at most; 104 spread them over the whole ~45 MB corpus,
// which is what the classify pass meets on an ingested archive.
func archiveScans(b *testing.B) (dates []simtime.Date, scans [][]*scanner.Record, total int) {
	b.Helper()
	archiveOnce.Do(func() {
		g := synth.New(synth.Config{Domains: 4000, Seed: 11, Scans: 104})
		archiveDates = g.ScanDates()
		archiveBatches = make([][]*scanner.Record, len(archiveDates))
		for i, d := range archiveDates {
			archiveBatches[i] = g.Scan(d)
			archiveTotal += len(archiveBatches[i])
		}
	})
	return archiveDates, archiveBatches, archiveTotal
}

var (
	archiveOnce    sync.Once
	archiveDates   []simtime.Date
	archiveBatches [][]*scanner.Record
	archiveTotal   int
)

// scansCSV renders scans as one scans.csv, header included.
func scansCSV(scans [][]*scanner.Record) []byte {
	var buf bytes.Buffer
	buf.WriteString(strings.Join(scanner.ScanCSVHeader, ",") + "\n")
	for _, scan := range scans {
		for _, r := range scan {
			buf.WriteString(strings.Join(scanner.FormatScanRow(r), ",") + "\n")
		}
	}
	return buf.Bytes()
}

// BenchmarkScanCSVNext measures the scans.csv reader alone on the synth
// corpus written out as CSV (20k domains x 4 scans): rows per second and
// allocations per row, the two numbers the reader's memos and record slabs
// exist to move. Three scans in four repeat an earlier scan's
// certificates; the paper's corpus repeats far more.
func BenchmarkScanCSVNext(b *testing.B) {
	_, scans, total := synthScans(b)
	csv := scansCSV(scans)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd := scanner.NewScanCSV(bytes.NewReader(csv))
		rows := 0
		for {
			if _, err := rd.Next(); err != nil {
				break
			}
			rows++
		}
		if rows != total {
			b.Fatalf("read %d rows, want %d", rows, total)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(total*b.N)/b.Elapsed().Seconds(), "rows/s")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(total*b.N), "allocs/row")
}

// BenchmarkBulkIngestCSV measures the one-shot bulk load end to end on the
// same CSV: NewScanCSV → Next until the scan date changes → AddScan → …
// → Freeze, the loop the benchmark of record's batch workloads run. Unlike
// BenchmarkScanCSVNext its consumer works, so the reader's read-ahead
// parsing the next scan while AddScan stages this one shows here.
func BenchmarkBulkIngestCSV(b *testing.B) {
	_, scans, total := synthScans(b)
	benchBulkIngest(b, scansCSV(scans), total)
}

// BenchmarkBulkIngestCSVFirstSighting is the same load over a corpus that
// is mostly first sightings: 60k domains x 2 scans, so the first scan
// brings every certificate to the reader's memos and the dataset's pool,
// routes and shard maps, all empty until then. It is read-mixed's load in
// small (140k x 4 there), where the first scan's parse and AddScan take
// most of the time.
func BenchmarkBulkIngestCSVFirstSighting(b *testing.B) {
	g := synth.New(synth.Config{Domains: 60000, Seed: 11, Scans: 2})
	var scans [][]*scanner.Record
	total := 0
	for _, d := range g.ScanDates() {
		scans = append(scans, g.Scan(d))
		total += len(scans[len(scans)-1])
	}
	benchBulkIngest(b, scansCSV(scans), total)
}

// benchBulkIngest bulk-loads csv, which holds total rows, once per
// iteration, and reports rows/s and allocations per row.
func benchBulkIngest(b *testing.B, csv []byte, total int) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd := scanner.NewScanCSV(bytes.NewReader(csv))
		ds := scanner.NewDatasetShards(scanner.DefaultShards)
		var batch []*scanner.Record
		flush := func() {
			if len(batch) > 0 {
				if err := ds.AddScan(batch[0].ScanDate, batch); err != nil {
					b.Fatal(err)
				}
			}
			batch = nil
		}
		for {
			rec, err := rd.Next()
			if err != nil {
				break
			}
			if len(batch) > 0 && rec.ScanDate != batch[0].ScanDate {
				flush()
			}
			batch = append(batch, rec)
		}
		flush()
		ds.Freeze()
		if _, nr := ds.Size(); nr != total {
			b.Fatalf("ingested %d records, want %d", nr, total)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(total*b.N)/b.Elapsed().Seconds(), "rows/s")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(total*b.N), "allocs/row")
}

// BenchmarkSynthEmit measures the corpus generator the way worldgen and the
// benchmark of record drive it — EmitScan into FormatScanRow into an
// encoding/csv writer — on a batch-archive-shaped corpus cut to 26 scans:
// records per second and allocations per record. It is every workload's
// setup_s.
func BenchmarkSynthEmit(b *testing.B) {
	g := synth.New(synth.Config{Domains: 4000, Seed: 1, Scans: 26})
	dates := g.ScanDates()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	records := 0
	for i := 0; i < b.N; i++ {
		cw := csv.NewWriter(io.Discard)
		for _, date := range dates {
			g.EmitScan(date, func(r *scanner.Record) {
				records++
				if err := cw.Write(scanner.FormatScanRow(r)); err != nil {
					b.Fatal(err)
				}
			})
		}
		cw.Flush()
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(records)/b.Elapsed().Seconds(), "records/s")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(records), "allocs/record")
}

// BenchmarkIngestShards measures paper-shaped bulk ingest (validate gate,
// interning, routing, per-shard consume, freeze) across shard counts.
// Routing is one pass whatever the count, so more shards must not cost
// more: the benchmark fails if shards=8 runs over ingestShardsTolerance
// times shards=1 (both on this machine, in this process). The
// shard-invariance tests pin all counts to identical output.
func BenchmarkIngestShards(b *testing.B) {
	const ingestShardsTolerance = 1.25
	dates, scans, total := synthScans(b)
	perOp := map[int]float64{}
	defer func() {
		if one, eight := perOp[1], perOp[8]; one > 0 && eight > one*ingestShardsTolerance {
			b.Errorf("shards=8 takes %.1f ms per ingest, shards=1 %.1f ms: over the %.2fx tolerance",
				eight*1e3, one*1e3, ingestShardsTolerance)
		}
	}()
	for _, shards := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ds := scanner.NewDatasetShards(shards)
				for j, d := range dates {
					if err := ds.AddScan(d, scans[j]); err != nil {
						b.Fatal(err)
					}
				}
				ds.Freeze()
			}
			perOp[shards] = b.Elapsed().Seconds() / float64(b.N)
			b.ReportMetric(float64(total*b.N)/b.Elapsed().Seconds(), "records/s")
		})
	}
}

// BenchmarkIngestIntern measures the interning layer on the streaming
// generate→ingest path, where every scan arrives as fresh objects (the
// shape a real feed has): with interning on, the recurring certificates
// and SAN strings collapse to one pooled instance each and the per-scan
// copies die young; with it off the dataset retains every copy. The
// live-MiB metric is the post-GC heap while the last dataset is still
// reachable — the retained-memory difference is the pools' saving.
func BenchmarkIngestIntern(b *testing.B) {
	run := func(intern bool) func(b *testing.B) {
		return func(b *testing.B) {
			g := synth.New(synth.Config{Domains: 20000, Seed: 11})
			dates := g.ScanDates()
			b.ReportAllocs()
			var ds *scanner.Dataset
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ds = scanner.NewDatasetShards(scanner.DefaultShards)
				ds.SetIntern(intern)
				for _, d := range dates {
					if err := ds.AddScan(d, g.Scan(d)); err != nil {
						b.Fatal(err)
					}
				}
				ds.Freeze()
			}
			b.StopTimer()
			runtime.GC()
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			b.ReportMetric(float64(ms.HeapAlloc)/(1<<20), "live-MiB")
			b.ReportMetric(float64(ds.Pool().Stats().Certs), "pooled-certs")
			runtime.KeepAlive(ds)
		}
	}
	b.Run("intern=on", run(true))
	b.Run("intern=off", run(false))
}

// BenchmarkSynthClassify runs the classification funnel over the
// synthetic corpus — the other half of the paper-scale path. The corpus
// is benign apart from synth's rare transients, so this measures
// steady-state map-building and categorization throughput.
func BenchmarkSynthClassify(b *testing.B) {
	dates, scans, total := synthScans(b)
	ds := scanner.NewDatasetShards(scanner.DefaultShards)
	for j, d := range dates {
		if err := ds.AddScan(d, scans[j]); err != nil {
			b.Fatal(err)
		}
	}
	ds.Freeze()
	db := pdns.NewDB()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := &core.Pipeline{Params: core.DefaultParams(), Dataset: ds, PDNS: db}
		res := p.Run()
		if res.Funnel.Domains == 0 {
			b.Fatal("empty funnel")
		}
	}
	b.ReportMetric(float64(total*b.N)/b.Elapsed().Seconds(), "records/s")
}

// BenchmarkArchiveClassify runs the classification funnel over the
// longitudinal corpus (archiveScans), where a domain's records are spread
// over the whole corpus. The records are laid out two ways:
// layout=scan-order as ingest allocates them (each scan's records
// together, so one domain's records lie a scan apart), and
// layout=domain-major as a copy of the same records with each domain's
// contiguous. Both datasets are built before either arm runs. The gap
// between the two is what the classify pass still pays for memory latency.
func BenchmarkArchiveClassify(b *testing.B) {
	dates, scans, total := archiveScans(b)
	ingest := func(scans [][]*scanner.Record) *scanner.Dataset {
		ds := scanner.NewDatasetShards(scanner.DefaultShards)
		for j, d := range dates {
			if err := ds.AddScan(d, scans[j]); err != nil {
				b.Fatal(err)
			}
		}
		ds.Freeze()
		return ds
	}
	scanOrder := ingest(scans)
	domainOrder := ingest(domainMajor(dates, scans))
	classify := func(b *testing.B, ds *scanner.Dataset) {
		db := pdns.NewDB()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p := &core.Pipeline{Params: core.DefaultParams(), Dataset: ds, PDNS: db}
			res := p.Run()
			if res.Funnel.Domains == 0 {
				b.Fatal("empty funnel")
			}
		}
		b.ReportMetric(float64(total*b.N)/b.Elapsed().Seconds(), "records/s")
	}
	b.Run("layout=scan-order", func(b *testing.B) { classify(b, scanOrder) })
	b.Run("layout=domain-major", func(b *testing.B) { classify(b, domainOrder) })
}

// BenchmarkDeploymentAnyIP guards the representative-IP lookup on the
// inspect path: AnyIP used to range a map (hash iteration plus its
// nondeterministic order), now it reads the first element of the sorted
// IP slice. Gated by benchgate so a regression back to map storage shows
// up as both ns/op and allocs/op movement.
func BenchmarkDeploymentAnyIP(b *testing.B) {
	d := &core.Deployment{ASN: 64500}
	for i := 0; i < 8; i++ {
		d.IPs = append(d.IPs, netip.AddrFrom4([4]byte{10, 0, 0, byte(i + 1)}))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !d.AnyIP().IsValid() {
			b.Fatal("invalid representative IP")
		}
	}
}

// BenchmarkWorldGeneration measures end-to-end simulation cost (DNS clock,
// ACME issuance, scanning) for a small world.
func BenchmarkWorldGeneration(b *testing.B) {
	cfg := world.Config{Seed: 2, StableDomains: 20, Campaigns: true, PDNSCoverage: 1}
	for i := 0; i < b.N; i++ {
		w := world.New(cfg)
		ds := w.Run()
		if _, records := ds.Size(); records == 0 {
			b.Fatal("empty dataset")
		}
	}
}

// ---------------------------------------------------------------------------
// Substrate micro-benchmarks
// ---------------------------------------------------------------------------

func BenchmarkWireEncodeDecode(b *testing.B) {
	m := &dnscore.Message{
		ID: 7, Response: true, Authoritative: true,
		Question: []dnscore.Question{{Name: "mail.mfa.gov.kg", Type: dnscore.TypeA, Class: dnscore.ClassIN}},
		Answer:   dnscore.RRSet{dnscore.A("mail.mfa.gov.kg", 300, netip.MustParseAddr("94.103.91.159"))},
		Authority: dnscore.RRSet{
			dnscore.NS("mfa.gov.kg", 3600, "ns1.kg-infocom.ru"),
			dnscore.NS("mfa.gov.kg", 3600, "ns2.kg-infocom.ru"),
		},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		wire, err := m.Encode()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := dnscore.Decode(wire); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMerkleInclusionProof(b *testing.B) {
	tree := merkle.NewTree()
	for i := 0; i < 4096; i++ {
		tree.Append([]byte(fmt.Sprintf("entry-%d", i)))
	}
	root := tree.Root()
	leaf := merkle.HashLeaf([]byte("entry-1234"))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		proof, err := tree.InclusionProof(1234, 4096)
		if err != nil {
			b.Fatal(err)
		}
		if !merkle.VerifyInclusion(leaf, 1234, 4096, proof, root) {
			b.Fatal("proof failed")
		}
	}
}

func BenchmarkPrefixLookup(b *testing.B) {
	pt := ipmeta.NewPrefixTable()
	for i := 0; i < 1000; i++ {
		pt.MustAnnounce(fmt.Sprintf("%d.%d.0.0/16", 1+i%220, i%250), ipmeta.ASN(i+1))
	}
	addr := netip.MustParseAddr("100.100.50.50")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pt.OriginASN(addr)
	}
}

func BenchmarkIterativeResolution(b *testing.B) {
	transport := dnsserver.NewMemTransport()
	rootIP := netip.MustParseAddr("198.41.0.4")
	tldIP := netip.MustParseAddr("203.0.113.1")
	authIP := netip.MustParseAddr("203.0.113.10")

	root := dnscore.NewZone("")
	root.MustAdd(dnscore.NS("bench", 86400, "ns.bench"))
	root.MustAdd(dnscore.A("ns.bench", 86400, tldIP))
	rootSrv := dnsserver.NewServer()
	rootSrv.AddZone(root)
	transport.Register(rootIP, rootSrv)

	tld := dnscore.NewZone("bench")
	tld.MustAdd(dnscore.NS("example.bench", 3600, "ns1.example.bench"))
	tld.MustAdd(dnscore.A("ns1.example.bench", 3600, authIP))
	tldSrv := dnsserver.NewServer()
	tldSrv.AddZone(tld)
	transport.Register(tldIP, tldSrv)

	zone := dnscore.NewZone("example.bench")
	zone.MustAdd(dnscore.A("mail.example.bench", 300, netip.MustParseAddr("10.0.0.1")))
	authSrv := dnsserver.NewServer()
	authSrv.AddZone(zone)
	transport.Register(authIP, authSrv)

	resolver := dnsserver.NewResolver(transport, []netip.Addr{rootIP})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := resolver.ResolveA("mail.example.bench"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScanWeek(b *testing.B) {
	fx := getStudy(b)
	sc := scanner.New(fx.world.Internet, fx.world.Meta, fx.world.Trust, fx.world.CT)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if recs := sc.ScanWeek(700); len(recs) == 0 {
			b.Fatal("empty scan")
		}
	}
}

func BenchmarkCTSearch(b *testing.B) {
	fx := getStudy(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = fx.world.CT.SearchApex(ctlog.Query{Name: "mfa.gov.kg"})
	}
}

func BenchmarkPDNSPivotQuery(b *testing.B) {
	fx := getStudy(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = fx.world.PDNSDB.WhoResolvedTo("178.62.218.244")
	}
}

// BenchmarkSegmentRead measures serving DomainRecords windows off sealed
// on-disk segments in both read modes: mmap (ModeAuto, which maps where the
// platform can: page-cache reads through the mapping) and stream (pread per
// window block). The dataset is fully
// spilled, so every read goes to the segment layer; the resident
// sub-benchmark is the in-memory reference the other two are judged
// against.
func BenchmarkSegmentRead(b *testing.B) {
	dates, scans, _ := synthScans(b)
	build := func(b *testing.B, mode segment.Mode, spillAll bool) *scanner.Dataset {
		b.Helper()
		ds := scanner.NewDatasetShards(scanner.DefaultShards)
		if spillAll {
			if err := ds.ConfigureSpill(scanner.SpillOptions{
				Dir: b.TempDir(), BudgetBytes: 0, Mode: mode,
			}); err != nil {
				b.Fatal(err)
			}
		}
		for j, d := range dates {
			if err := ds.AddScan(d, scans[j]); err != nil {
				b.Fatal(err)
			}
		}
		ds.Freeze()
		if spillAll && ds.SpilledShards() != ds.Shards() {
			b.Fatalf("spilled %d of %d shards", ds.SpilledShards(), ds.Shards())
		}
		return ds
	}
	run := func(ds *scanner.Dataset) func(b *testing.B) {
		domains := ds.Domains()
		return func(b *testing.B) {
			b.ResetTimer()
			reads := 0
			for i := 0; i < b.N; i++ {
				for _, domain := range domains {
					if len(ds.DomainRecords(domain, 0, 0)) == 0 {
						b.Fatalf("no records for %s", domain)
					}
					reads++
				}
			}
			b.ReportMetric(float64(reads)/b.Elapsed().Seconds(), "windows/s")
		}
	}
	b.Run("resident", run(build(b, segment.ModeAuto, false)))
	b.Run("mmap", run(build(b, segment.ModeAuto, true)))
	b.Run("stream", run(build(b, segment.ModeStream, true)))
}

// BenchmarkSpilledClassify runs the classification funnel over a fully
// spilled synthetic corpus — BenchmarkSynthClassify's out-of-core twin.
// The gap between the two is the price of classifying off disk.
func BenchmarkSpilledClassify(b *testing.B) {
	dates, scans, total := synthScans(b)
	ds := scanner.NewDatasetShards(scanner.DefaultShards)
	if err := ds.ConfigureSpill(scanner.SpillOptions{Dir: b.TempDir(), BudgetBytes: 0}); err != nil {
		b.Fatal(err)
	}
	for j, d := range dates {
		if err := ds.AddScan(d, scans[j]); err != nil {
			b.Fatal(err)
		}
	}
	ds.Freeze()
	if ds.SpilledShards() == 0 {
		b.Fatal("corpus not spilled")
	}
	db := pdns.NewDB()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := &core.Pipeline{Params: core.DefaultParams(), Dataset: ds, PDNS: db}
		res := p.Run()
		if res.Funnel.Domains == 0 {
			b.Fatal("empty funnel")
		}
		if res.Stats.SpilledShards == 0 {
			b.Fatal("run not served from segments")
		}
	}
	b.ReportMetric(float64(total*b.N)/b.Elapsed().Seconds(), "records/s")
}
