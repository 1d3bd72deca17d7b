package serve

import (
	"bufio"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"retrodns/internal/obsv"
)

// readmeCatalogue reads README.md's table of retrodns_serve_* families:
// each row that starts with a backquoted family name gives its kind in
// the second column.
func readmeCatalogue(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "| `retrodns_serve_")
		if !ok {
			continue
		}
		cols := strings.Split(rest, "|")
		if len(cols) < 3 {
			t.Fatalf("README catalogue row too short: %q", sc.Text())
		}
		name := "retrodns_serve_" + strings.TrimSuffix(strings.TrimSpace(cols[0]), "`")
		if _, dup := rows[name]; dup {
			t.Errorf("README catalogue lists %s twice", name)
		}
		rows[name] = strings.TrimSpace(cols[1])
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return rows
}

// TestMetricCatalogue drives every endpoint, a 404 and a 429 through an
// instrumented engine and requires the retrodns_serve_* families the
// scrape shows to be exactly README's catalogue, with the same kinds.
func TestMetricCatalogue(t *testing.T) {
	reg := obsv.NewRegistry()
	e := NewEngine(Options{
		RatePerSec: 1, Burst: 100,
		TenantRatePerSec: 1, TenantBurst: 1,
		Now: func() time.Time { return testBuilt },
	})
	e.SetMetrics(reg)
	e.Publish(BuildSnapshot(testResult(), nil, testBuilt))
	h := e.Handler()
	call := func(path, tenant string, want int) {
		t.Helper()
		req := httptest.NewRequest("GET", path, nil)
		req.Header.Set(TenantHeader, tenant)
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, req)
		if rr.Code != want {
			t.Fatalf("%s as %q = %d, want %d", path, tenant, rr.Code, want)
		}
	}
	for i, path := range []string{"/v1/domain/steady.com", "/v1/shortlist", "/v1/funnel", "/v1/patterns/T1", "/v1/healthz"} {
		call(path, string(rune('a'+i)), http.StatusOK)
	}
	call("/v1/domain/unknown.example", "404", http.StatusNotFound)
	call("/v1/funnel", "a", http.StatusTooManyRequests)

	scraped := make(map[string]string)
	for _, line := range strings.Split(scrape(t, reg), "\n") {
		fields := strings.Fields(line)
		if len(fields) == 4 && fields[1] == "TYPE" && strings.HasPrefix(fields[2], "retrodns_serve_") {
			scraped[fields[2]] = fields[3]
		}
	}
	doc := readmeCatalogue(t)
	for name, kind := range scraped {
		if k, ok := doc[name]; !ok {
			t.Errorf("%s (%s) is scraped but has no README catalogue row", name, kind)
		} else if k != kind {
			t.Errorf("%s: README says %s, the scrape %s", name, k, kind)
		}
	}
	for name := range doc {
		if _, ok := scraped[name]; !ok {
			t.Errorf("README catalogue lists %s, which the scrape does not show", name)
		}
	}
}
