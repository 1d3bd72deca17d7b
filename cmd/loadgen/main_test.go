package main

import (
	"math/rand"
	"testing"
	"time"

	"retrodns/internal/core"
	"retrodns/internal/dnscore"
	"retrodns/internal/report"
	"retrodns/internal/serve"

	"net/http/httptest"
	"strings"
)

func TestParseMix(t *testing.T) {
	mix, err := parseMix("domain=60, shortlist=10,funnel=0,healthz=5")
	if err != nil {
		t.Fatal(err)
	}
	want := []mixEntry{{"domain", 60}, {"shortlist", 10}, {"healthz", 5}}
	if len(mix) != len(want) {
		t.Fatalf("mix = %v, want %v", mix, want)
	}
	for i := range want {
		if mix[i] != want[i] {
			t.Errorf("mix[%d] = %v, want %v", i, mix[i], want[i])
		}
	}
	for _, bad := range []string{"", "nope=5", "domain", "domain=-1", "domain=x", "domain=0"} {
		if _, err := parseMix(bad); err == nil {
			t.Errorf("parseMix(%q) accepted", bad)
		}
	}
}

func TestPickEndpointRespectsWeights(t *testing.T) {
	mix := []mixEntry{{"domain", 3}, {"funnel", 1}}
	r := rand.New(rand.NewSource(1))
	counts := map[string]int{}
	for i := 0; i < 4000; i++ {
		counts[pickEndpoint(mix, 4, r)]++
	}
	if counts["domain"] < 2700 || counts["domain"] > 3300 {
		t.Errorf("domain drawn %d/4000 with weight 3/4", counts["domain"])
	}
	if counts["domain"]+counts["funnel"] != 4000 {
		t.Errorf("unexpected endpoints drawn: %v", counts)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	sorted := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	cases := []struct {
		q    float64
		want int64
	}{
		{0.50, 50}, {0.90, 90}, {0.99, 100}, {0.999, 100}, {0.10, 10},
	}
	for _, tc := range cases {
		if got := percentile(sorted, tc.q); got != tc.want {
			t.Errorf("p%.3f = %d, want %d", tc.q, got, tc.want)
		}
	}
	if got := percentile(nil, 0.99); got != 0 {
		t.Errorf("empty percentile = %d, want 0", got)
	}
	if got := percentile([]int64{7}, 0.5); got != 7 {
		t.Errorf("singleton percentile = %d, want 7", got)
	}
}

func TestSampleName(t *testing.T) {
	if got := sampleName("", "domain"); got != "domain" {
		t.Errorf("unlabeled = %q", got)
	}
	if got := sampleName("replicas2", "all"); got != "replicas2/all" {
		t.Errorf("labeled = %q", got)
	}
}

// loadTestResult mirrors the serve package's synthetic fixture closely
// enough for an end-to-end loadgen run against a live engine.
func loadTestResult() *core.Result {
	var stable core.PeriodCategories
	stable.Set(0, core.CategoryStable)
	res := &core.Result{
		History: map[dnscore.Name]core.PeriodCategories{
			"steady.com": stable, "busy.org": stable, "victim.net": stable, "fourth.info": stable,
		},
		Funnel: core.FunnelStats{
			Domains: 4, Maps: 4,
			DomainCategories: map[core.Category]int{core.CategoryStable: 4},
		},
	}
	res.Stats.Generation = 3
	return res
}

// TestDriveAgainstLiveEngine runs the full generator against an
// httptest server wrapping a real engine and checks the report shape:
// schema, per-endpoint samples, the aggregate, and sane counts.
func TestDriveAgainstLiveEngine(t *testing.T) {
	e := serve.NewEngine(serve.Options{})
	e.Publish(serve.BuildSnapshot(loadTestResult(), nil, time.Now()))
	srv := httptest.NewServer(e.Handler())
	defer srv.Close()

	mix, err := parseMix("domain=50,funnel=25,patterns=25")
	if err != nil {
		t.Fatal(err)
	}
	cfg := config{
		target: srv.URL, duration: 900 * time.Millisecond,
		requests: 200, connections: 2, warmup: 50 * time.Millisecond,
		mix: mix, tenants: 2, zipfS: 1.1, seed: 42, label: "test",
	}
	domains, err := fetchDomains(srv.Client(), srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	if len(domains) != 4 {
		t.Fatalf("fetched %d domains, want 4", len(domains))
	}
	rep := drive(srv.Client(), cfg, domains)
	if rep.Schema != report.LoadReportSchema {
		t.Fatalf("schema = %q", rep.Schema)
	}
	if len(rep.Samples) == 0 {
		t.Fatal("no samples")
	}
	var total *report.LoadSample
	for i := range rep.Samples {
		s := &rep.Samples[i]
		if !strings.HasPrefix(s.Name, "test/") {
			t.Errorf("sample %q missing label prefix", s.Name)
		}
		if s.Name == "test/all" {
			total = s
		}
		if s.Errors != 0 {
			t.Errorf("sample %s saw %d errors", s.Name, s.Errors)
		}
		if s.Requests > 0 && (s.P50NS <= 0 || s.P99NS < s.P50NS) {
			t.Errorf("sample %s percentiles out of order: p50=%d p99=%d", s.Name, s.P50NS, s.P99NS)
		}
	}
	if total == nil {
		t.Fatal("no aggregate sample")
	}
	if total.Requests == 0 || total.QPS <= 0 {
		t.Errorf("aggregate = %+v", total)
	}
	// The fixed budget caps measured requests (a few in-flight overshoots
	// at the deadline are impossible: the budget is debited pre-flight).
	if total.Requests > cfg.requests {
		t.Errorf("measured %d requests past the %d budget", total.Requests, cfg.requests)
	}
	if len(rep.Metrics) == 0 {
		t.Error("no obsv metrics embedded")
	}
}

// TestLoadReportRoundTrip pins the strict reader against Encode.
func TestLoadReportRoundTrip(t *testing.T) {
	rep := report.LoadReport{
		Schema: report.LoadReportSchema, Target: "http://x", Connections: 2,
		Samples: []report.LoadSample{{Name: "all", Requests: 10, QPS: 100, P50NS: 1000, P99NS: 5000}},
	}
	var buf strings.Builder
	if err := rep.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := report.ReadLoadReport(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Samples[0] != rep.Samples[0] {
		t.Errorf("round trip: %+v != %+v", got.Samples[0], rep.Samples[0])
	}
	if _, err := report.ReadLoadReport(strings.NewReader(`{"schema":"nope"}`)); err == nil {
		t.Error("foreign schema accepted")
	}
	if _, err := report.ReadLoadReport(strings.NewReader(`{"schema":"retrodns/load-report/v1","bogus":1}`)); err == nil {
		t.Error("unknown field accepted")
	}
}
