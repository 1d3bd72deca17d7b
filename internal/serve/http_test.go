package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"retrodns/internal/core"
	"retrodns/internal/dnscore"
	"retrodns/internal/ipmeta"
	"retrodns/internal/obsv"
	"retrodns/internal/report"
	"retrodns/internal/simtime"
)

// categories flattens a literal per-period category map into the form a
// Result's History holds.
func categories(byPeriod map[simtime.Period]core.Category) (pc core.PeriodCategories) {
	for p, c := range byPeriod {
		pc.Set(p, c)
	}
	return pc
}

// testResult builds a small, fully-synthetic pipeline result: one
// hijacked domain with a T1 candidate in period 1, one quietly stable
// domain, generation 7. Every golden body below derives from it.
func testResult() *core.Result {
	dep := &core.Deployment{
		ASN:       64500,
		Countries: []ipmeta.CountryCode{"MD", "RU"},
		ScanDates: []simtime.Date{simtime.MustParse("2017-07-10"), simtime.MustParse("2017-07-17")},
	}
	cand := &core.Candidate{
		Domain: "victim.gov.xx", Period: 1, Transient: dep,
		Pattern: core.PatternT1, TrulyAnomalous: true, Sensitive: true,
	}
	find := &core.Finding{
		Domain: "victim.gov.xx", Sub: "mail", Method: core.MethodT1,
		Verdict: core.VerdictHijacked, Date: simtime.MustParse("2017-07-10"),
		PDNS: true, CT: true, AttackerASN: 64500, AttackerCC: "RU",
	}
	res := &core.Result{
		History: map[dnscore.Name]core.PeriodCategories{
			"victim.gov.xx": categories(map[simtime.Period]core.Category{0: core.CategoryStable, 1: core.CategoryTransient}),
			"steady.com":    categories(map[simtime.Period]core.Category{0: core.CategoryStable, 1: core.CategoryStable}),
		},
		Candidates: []*core.Candidate{cand},
		Hijacked:   []*core.Finding{find},
		Funnel: core.FunnelStats{
			Domains: 2, Maps: 4,
			DomainCategories: map[core.Category]int{
				core.CategoryStable: 1, core.CategoryTransient: 1,
			},
			Shortlisted: 1, ShortlistedAnomalous: 1, WorthExamining: 1,
		},
	}
	res.Stats.Generation = 7
	return res
}

var testBuilt = time.Date(2022, 6, 1, 12, 0, 0, 0, time.UTC)

// testEngine publishes the testResult snapshot under a clock frozen 90
// seconds after the snapshot was built.
func testEngine(t *testing.T, opts Options) (*Engine, http.Handler) {
	t.Helper()
	if opts.Now == nil {
		opts.Now = func() time.Time { return testBuilt.Add(90 * time.Second) }
	}
	e := NewEngine(opts)
	e.Publish(BuildSnapshot(testResult(), nil, testBuilt))
	return e, e.Handler()
}

func get(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", path, nil))
	return rr
}

// golden marshals want exactly the way serveDoc renders and compares.
func golden(t *testing.T, rr *httptest.ResponseRecorder, wantGen uint64, want any) {
	t.Helper()
	if rr.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rr.Code, rr.Body)
	}
	if ct := rr.Header().Get("Content-Type"); ct != "application/json; charset=utf-8" {
		t.Errorf("content-type = %q", ct)
	}
	if g := rr.Header().Get(GenerationHeader); g != strconv.FormatUint(wantGen, 10) {
		t.Errorf("%s = %q, want %d", GenerationHeader, g, wantGen)
	}
	body, err := json.MarshalIndent(want, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if got := rr.Body.String(); got != string(body)+"\n" {
		t.Errorf("body mismatch:\n got: %s\nwant: %s", got, body)
	}
}

func TestDomainEndpointGolden(t *testing.T) {
	_, h := testEngine(t, Options{})
	p0, p1 := simtime.Period(0), simtime.Period(1)
	res := testResult()
	golden(t, get(t, h, "/v1/domain/victim.gov.xx"), 7, DomainDoc{
		Generation: 7,
		Domain:     "victim.gov.xx",
		Category:   "transient",
		Verdict:    "hijacked",
		Periods: []PeriodDoc{
			{Period: 0, Start: p0.Start().String(), End: p0.End().String(), Category: "stable"},
			{Period: 1, Start: p1.Start().String(), End: p1.End().String(), Category: "transient"},
		},
		Candidates: []CandidateDoc{{
			Period: 1, Pattern: "T1", ASN: 64500, Countries: []string{"MD", "RU"},
			FirstSeen: "2017-07-10", LastSeen: "2017-07-17",
			Reason: "truly-anomalous+sensitive-subdomain",
		}},
		Findings: []report.JSONFinding{report.FindingJSON(res.Hijacked[0])},
	})
	// No candidate, no finding: assembled from its history's shared tail.
	// The URL's name is canonicalized before the lookup.
	steady := DomainDoc{
		Generation: 7,
		Domain:     "steady.com",
		Category:   "stable",
		Verdict:    "inconclusive",
		Periods: []PeriodDoc{
			{Period: 0, Start: p0.Start().String(), End: p0.End().String(), Category: "stable"},
			{Period: 1, Start: p1.Start().String(), End: p1.End().String(), Category: "stable"},
		},
	}
	golden(t, get(t, h, "/v1/domain/steady.com"), 7, steady)
	golden(t, get(t, h, "/v1/domain/Steady.COM."), 7, steady)
}

func TestShortlistEndpointGolden(t *testing.T) {
	_, h := testEngine(t, Options{})
	golden(t, get(t, h, "/v1/shortlist"), 7, ShortlistDoc{
		Generation: 7, Total: 1, TrulyAnomalous: 1,
		Candidates: []ShortlistEntryDoc{{
			Domain: "victim.gov.xx", Period: 1, Pattern: "T1", ASN: 64500,
			Reason: "truly-anomalous+sensitive-subdomain",
		}},
	})
}

func TestFunnelEndpointGolden(t *testing.T) {
	_, h := testEngine(t, Options{})
	p0, p1 := simtime.Period(0), simtime.Period(1)
	golden(t, get(t, h, "/v1/funnel"), 7, FunnelDoc{
		Generation: 7,
		Funnel:     report.FunnelCounts(testResult()),
		Periods: []PeriodFunnelDoc{
			{Period: 0, Start: p0.Start().String(), End: p0.End().String(),
				Categories: map[string]int{"stable": 2}},
			{Period: 1, Start: p1.Start().String(), End: p1.End().String(),
				Categories: map[string]int{"stable": 1, "transient": 1},
				Candidates: 1, Findings: 1},
		},
	})
}

func TestPatternsEndpointGolden(t *testing.T) {
	_, h := testEngine(t, Options{})
	golden(t, get(t, h, "/v1/patterns/T1"), 7, PatternsDoc{
		Generation: 7, Label: "T1", Count: 1, Domains: []string{"victim.gov.xx"},
	})
	golden(t, get(t, h, "/v1/patterns/stable"), 7, PatternsDoc{
		Generation: 7, Label: "stable", Count: 1, Domains: []string{"steady.com"},
	})
	// Labels match case-insensitively.
	golden(t, get(t, h, "/v1/patterns/t1"), 7, PatternsDoc{
		Generation: 7, Label: "T1", Count: 1, Domains: []string{"victim.gov.xx"},
	})
	// An empty label still serves a well-formed document.
	golden(t, get(t, h, "/v1/patterns/T2"), 7, PatternsDoc{
		Generation: 7, Label: "T2", Count: 0, Domains: nil,
	})
}

func TestHealthzEndpointGolden(t *testing.T) {
	_, h := testEngine(t, Options{})
	rr := get(t, h, "/v1/healthz")
	if rr.Code != http.StatusOK {
		t.Fatalf("status = %d", rr.Code)
	}
	var doc HealthDoc
	if err := json.Unmarshal(rr.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	want := HealthDoc{
		Status: "ok", Generation: 7, Swaps: 1,
		SnapshotAgeSeconds: 90, Domains: 2,
	}
	if doc != want {
		t.Errorf("healthz = %+v, want %+v", doc, want)
	}
	if g := rr.Header().Get(GenerationHeader); g != "7" {
		t.Errorf("generation header = %q", g)
	}
}

func TestNoSnapshotYet(t *testing.T) {
	e := NewEngine(Options{})
	h := e.Handler()
	for _, path := range []string{"/v1/funnel", "/v1/shortlist", "/v1/domain/a.com", "/v1/patterns/T1"} {
		if rr := get(t, h, path); rr.Code != http.StatusServiceUnavailable {
			t.Errorf("%s = %d before first publish, want 503", path, rr.Code)
		}
	}
	rr := get(t, h, "/v1/healthz")
	if rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("healthz = %d, want 503", rr.Code)
	}
	var doc HealthDoc
	if err := json.Unmarshal(rr.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Status != "empty" {
		t.Errorf("status = %q, want empty", doc.Status)
	}
}

func TestErrorResponses(t *testing.T) {
	_, h := testEngine(t, Options{})
	cases := []struct {
		path string
		code int
	}{
		{"/v1/domain/..bad..name..", http.StatusBadRequest},
		{"/v1/domain/unknown.example", http.StatusNotFound},
		{"/v1/patterns/bogus", http.StatusNotFound},
		{"/v1/nope", http.StatusNotFound},
		// Not one of the five endpoints: answered with their list.
		{"/v1/replicas", http.StatusNotFound},
	}
	for _, tc := range cases {
		rr := get(t, h, tc.path)
		if rr.Code != tc.code {
			t.Errorf("%s = %d, want %d", tc.path, rr.Code, tc.code)
			continue
		}
		var doc errorDoc
		if err := json.Unmarshal(rr.Body.Bytes(), &doc); err != nil {
			t.Errorf("%s: non-JSON error body: %v", tc.path, err)
		}
		if doc.Error == "" {
			t.Errorf("%s: empty error message", tc.path)
		}
		if tc.path == "/v1/replicas" && !strings.HasSuffix(doc.Error, "/v1/patterns/{label} /v1/healthz") {
			t.Errorf("%s: error %q does not list the five endpoints", tc.path, doc.Error)
		}
	}
	// Known-endpoint errors carry the generation they were answered under.
	rr := get(t, h, "/v1/domain/unknown.example")
	if g := rr.Header().Get(GenerationHeader); g != "7" {
		t.Errorf("404 generation header = %q, want 7", g)
	}
}

func TestRateLimiting(t *testing.T) {
	clock := testBuilt
	e := NewEngine(Options{
		RatePerSec: 1, Burst: 2,
		Now: func() time.Time { return clock },
	})
	e.Publish(BuildSnapshot(testResult(), nil, testBuilt))
	h := e.Handler()
	for i := 0; i < 2; i++ {
		if rr := get(t, h, "/v1/funnel"); rr.Code != http.StatusOK {
			t.Fatalf("request %d = %d inside burst", i, rr.Code)
		}
	}
	if rr := get(t, h, "/v1/funnel"); rr.Code != http.StatusTooManyRequests {
		t.Fatalf("burst exceeded = %d, want 429", rr.Code)
	}
	clock = clock.Add(time.Second)
	if rr := get(t, h, "/v1/funnel"); rr.Code != http.StatusOK {
		t.Fatalf("after refill = %d, want 200", rr.Code)
	}
}

// lazyEngine publishes a reference-mode snapshot, so /v1/domain requests
// render per request.
func lazyEngine(t *testing.T, opts Options) (*Engine, http.Handler) {
	t.Helper()
	if opts.Now == nil {
		opts.Now = func() time.Time { return testBuilt.Add(90 * time.Second) }
	}
	e := NewEngine(opts)
	e.Publish(BuildSnapshotOpts(testResult(), nil, testBuilt, BuildOptions{PrerenderDomains: -1}))
	return e, e.Handler()
}

// TestResponseCacheHit asserts two reference renders of one domain are
// byte-identical and each counts as a request.
func TestResponseCacheHit(t *testing.T) {
	e, h := lazyEngine(t, Options{})
	first := get(t, h, "/v1/domain/victim.gov.xx")
	second := get(t, h, "/v1/domain/victim.gov.xx")
	if first.Code != http.StatusOK || first.Body.String() != second.Body.String() {
		t.Fatalf("second reference render differs from the first (status %d)", first.Code)
	}
	st := e.Stats()
	if st.Requests["domain"] != 2 {
		t.Errorf("domain requests = %d, want 2", st.Requests["domain"])
	}
}

// TestPrerenderServedZeroCopy asserts the default build serves singleton
// and domain endpoints from the snapshot at any roster size, including one
// past the old 1<<17 prerender budget.
func TestPrerenderServedZeroCopy(t *testing.T) {
	e, h := testEngine(t, Options{})
	for _, path := range []string{"/v1/funnel", "/v1/shortlist", "/v1/patterns/T1", "/v1/domain/victim.gov.xx", "/v1/domain/steady.com"} {
		if rr := get(t, h, path); rr.Code != http.StatusOK {
			t.Fatalf("%s = %d", path, rr.Code)
		}
	}
	st := e.Stats()
	// Singletons + 6 pattern labels + 2 domains.
	if st.Prerendered != 2+len(PatternLabels)+2 {
		t.Errorf("prerendered = %d, want %d", st.Prerendered, 2+len(PatternLabels)+2)
	}
	if st.BodyTemplates != 1 || st.BodiesRendered != 1 {
		t.Errorf("templates=%d rendered=%d, want 1/1", st.BodyTemplates, st.BodiesRendered)
	}

	// A hand-built roster past the old prerender budget: every domain is
	// still served from the snapshot, from three shared tails.
	res := testResult()
	histories := []core.PeriodCategories{
		categories(map[simtime.Period]core.Category{0: core.CategoryStable, 1: core.CategoryStable}),
		categories(map[simtime.Period]core.Category{1: core.CategoryStable}),
		categories(map[simtime.Period]core.Category{0: core.CategoryNoisy, 1: core.CategoryTransition}),
	}
	const extra = 1<<17 + 5
	for i := 0; i < extra; i++ {
		res.History[dnscore.Name(fmt.Sprintf("d%06d.example", i))] = histories[i%len(histories)]
	}
	big := BuildSnapshot(res, nil, testBuilt)
	e.Publish(big)
	for _, path := range []string{"/v1/domain/d000000.example", "/v1/domain/d131076.example", "/v1/domain/victim.gov.xx"} {
		if rr := get(t, h, path); rr.Code != http.StatusOK {
			t.Fatalf("%s = %d", path, rr.Code)
		}
	}
	st = e.Stats()
	if want := big.Domains() + 2 + len(PatternLabels); big.Domains() != extra+2 || st.Prerendered != want {
		t.Errorf("domains=%d prerendered=%d, want %d/%d", big.Domains(), st.Prerendered, extra+2, want)
	}
	if st.BodyTemplates != len(histories) || st.BodiesRendered != 1 {
		t.Errorf("templates=%d rendered=%d, want %d/1", st.BodyTemplates, st.BodiesRendered, len(histories))
	}
}

// TestPrerenderMatchesLazy asserts byte-identical bodies between the
// default mode and the reference render-per-request mode.
func TestPrerenderMatchesLazy(t *testing.T) {
	_, pre := testEngine(t, Options{})
	_, lazy := lazyEngine(t, Options{})
	for _, path := range []string{"/v1/domain/victim.gov.xx", "/v1/domain/steady.com"} {
		a, b := get(t, pre, path), get(t, lazy, path)
		if a.Body.String() != b.Body.String() {
			t.Errorf("%s: prerendered body differs from lazy render", path)
		}
		if a.Header().Get(GenerationHeader) != b.Header().Get(GenerationHeader) {
			t.Errorf("%s: generation headers differ", path)
		}
	}
}

// TestTenantIsolation drains tenant A's bucket and checks tenant B (and
// the untagged tenant) still get their full burst: per-tenant buckets
// never let one tenant 429 another.
func TestTenantIsolation(t *testing.T) {
	clock := testBuilt
	e := NewEngine(Options{
		TenantRatePerSec: 1, TenantBurst: 2,
		Now: func() time.Time { return clock },
	})
	e.Publish(BuildSnapshot(testResult(), nil, testBuilt))
	h := e.Handler()
	getTenant := func(tenant string) int {
		rr := httptest.NewRecorder()
		req := httptest.NewRequest("GET", "/v1/funnel", nil)
		if tenant != "" {
			req.Header.Set(TenantHeader, tenant)
		}
		h.ServeHTTP(rr, req)
		return rr.Code
	}
	for i := 0; i < 2; i++ {
		if code := getTenant("tenant-a"); code != http.StatusOK {
			t.Fatalf("tenant-a request %d = %d inside burst", i, code)
		}
	}
	if code := getTenant("tenant-a"); code != http.StatusTooManyRequests {
		t.Fatalf("tenant-a past burst = %d, want 429", code)
	}
	// Tenant B and the untagged tenant still have their full burst.
	for i := 0; i < 2; i++ {
		if code := getTenant("tenant-b"); code != http.StatusOK {
			t.Errorf("tenant-b request %d = %d while tenant-a throttled", i, code)
		}
		if code := getTenant(""); code != http.StatusOK {
			t.Errorf("untagged request %d = %d while tenant-a throttled", i, code)
		}
	}
	if st := e.Stats(); st.Tenants != 3 {
		t.Errorf("tenant buckets = %d, want 3", st.Tenants)
	}
	// Refill restores tenant A.
	clock = clock.Add(time.Second)
	if code := getTenant("tenant-a"); code != http.StatusOK {
		t.Errorf("tenant-a after refill = %d, want 200", code)
	}
}

func TestEndpointMetrics(t *testing.T) {
	reg := obsv.NewRegistry()
	e := NewEngine(Options{})
	e.SetMetrics(reg)
	e.Publish(BuildSnapshot(testResult(), nil, testBuilt))
	h := e.Handler()
	get(t, h, "/v1/funnel")
	get(t, h, "/v1/funnel")
	get(t, h, "/v1/domain/unknown.example") // 404 → error series

	if got := reg.Counter(MetricServeRequests, "endpoint", "funnel").Value(); got != 2 {
		t.Errorf("funnel request counter = %d, want 2", got)
	}
	if got := reg.Counter(MetricServeErrors, "endpoint", "domain", "code", "404").Value(); got != 1 {
		t.Errorf("domain 404 counter = %d, want 1", got)
	}
	if got := reg.Gauge(MetricServeGeneration).Value(); got != 7 {
		t.Errorf("generation gauge = %d, want 7", got)
	}
	if got := reg.Counter(MetricServeSwaps).Value(); got != 1 {
		t.Errorf("swap counter = %d, want 1", got)
	}
	if got := reg.Gauge(MetricServePrerendered).Value(); got != int64(2+len(PatternLabels)+2) {
		t.Errorf("prerendered gauge = %d, want %d", got, 2+len(PatternLabels)+2)
	}
	if tmpl, whole := reg.Gauge(MetricServeBodyTemplates).Value(), reg.Gauge(MetricServeBodiesRendered).Value(); tmpl != 1 || whole != 1 {
		t.Errorf("body gauges: templates=%d rendered=%d, want 1/1", tmpl, whole)
	}
	if got := reg.Histogram(MetricServeLatencySec, obsv.DurationBuckets, "endpoint", "funnel").Count(); got != 2 {
		t.Errorf("latency observations = %d, want 2", got)
	}
}

func TestGenerationSourcedFromDataset(t *testing.T) {
	// Without a dataset the snapshot generation falls back to the result's
	// own stats — the synthetic-test shape used throughout this file.
	snap := BuildSnapshot(testResult(), nil, testBuilt)
	if snap.Generation != 7 {
		t.Fatalf("generation = %d, want 7 (from Result.Stats)", snap.Generation)
	}
}

// TestEnginePurgeOnPublish asserts a reference-mode /v1/domain answered
// after Publish carries the new generation in both the header and the
// body: nothing rendered under the old one is served.
func TestEnginePurgeOnPublish(t *testing.T) {
	e, h := lazyEngine(t, Options{})
	get(t, h, "/v1/domain/victim.gov.xx") // rendered under gen 7
	res := testResult()
	res.Stats.Generation = 8
	e.Publish(BuildSnapshotOpts(res, nil, testBuilt, BuildOptions{PrerenderDomains: -1}))
	rr := get(t, h, "/v1/domain/victim.gov.xx")
	if g := rr.Header().Get(GenerationHeader); g != "8" {
		t.Errorf("%s = %q after publishing gen 8", GenerationHeader, g)
	}
	var doc DomainDoc
	if err := json.Unmarshal(rr.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Generation != 8 {
		t.Errorf("body generation = %d after publishing gen 8", doc.Generation)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	_, h := testEngine(t, Options{})
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("POST", "/v1/funnel", nil))
	if rr.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST /v1/funnel = %d, want 405", rr.Code)
	}
	if allow := rr.Header().Get("Allow"); allow != "GET, HEAD" {
		t.Errorf("Allow = %q", allow)
	}
	// HEAD is admitted wherever GET is.
	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("HEAD", "/v1/funnel", nil))
	if rr.Code != http.StatusOK {
		t.Errorf("HEAD /v1/funnel = %d, want 200", rr.Code)
	}
}

// scrape renders reg the way /metrics does.
func scrape(t *testing.T, reg *obsv.Registry) string {
	t.Helper()
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestTenantGaugeLive asserts a /metrics scrape sees the live tenant
// bucket count without anything calling Stats first.
func TestTenantGaugeLive(t *testing.T) {
	reg := obsv.NewRegistry()
	e := NewEngine(Options{TenantRatePerSec: 100, TenantBurst: 10})
	e.SetMetrics(reg)
	e.Publish(BuildSnapshot(testResult(), nil, testBuilt))
	h := e.Handler()
	for _, tenant := range []string{"a", "b", "c", "a"} {
		req := httptest.NewRequest("GET", "/v1/funnel", nil)
		req.Header.Set(TenantHeader, tenant)
		h.ServeHTTP(httptest.NewRecorder(), req)
	}
	if out := scrape(t, reg); !strings.Contains(out, "\n"+MetricServeTenants+" 3\n") {
		t.Errorf("scrape after three tenants lacks %q:\n%s", MetricServeTenants+" 3", out)
	}
}
