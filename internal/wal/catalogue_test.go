package wal

import (
	"bufio"
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"retrodns/internal/obsv"
	"retrodns/internal/scanner"
	"retrodns/internal/simtime"
)

// catalogued are the family prefixes README's durable-daemon table lists.
var catalogued = []string{"retrodns_wal_", "retrodns_feed_"}

func isCatalogued(name string) bool {
	for _, p := range catalogued {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// readmeWALCatalogue reads README.md's table of the durable daemon's
// families: each row that starts with a backquoted catalogued family name
// gives its kind in the second column.
func readmeWALCatalogue(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows := make(map[string]string)
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "| `")
		if !ok || !isCatalogued(rest) {
			continue
		}
		cols := strings.Split(rest, "|")
		if len(cols) < 3 {
			t.Fatalf("README catalogue row too short: %q", sc.Text())
		}
		name := strings.TrimSuffix(strings.TrimSpace(cols[0]), "`")
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

// TestWALMetricCatalogue drives a store through appends and a snapshot,
// reopens its directory with a torn log, feeds it a CSV whose repeated scan
// the feed gates, and requires the retrodns_wal_* and retrodns_feed_*
// families the scrape shows to be exactly README's catalogue, with the same
// kinds.
func TestWALMetricCatalogue(t *testing.T) {
	g := testGen(t)
	dates := g.ScanDates()
	reg := obsv.NewRegistry()
	dir := t.TempDir()
	opts := Options{Dir: dir, Shards: 2, SnapshotEvery: 1000, Metrics: reg}
	s, _, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, date := range dates[:3] {
		if err := s.Append(date, g.Scan(date)); err != nil {
			t.Fatal(err)
		}
		if i == 1 {
			if err := s.Snapshot(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, LogName)
	log, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, log[:len(log)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	s, rec, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if rec.Faults[FaultTornTail] != 1 {
		t.Fatalf("recovery faults %v, want one torn tail", rec.Faults)
	}
	// The feed: every scan, the first one twice over (a duplicate scan).
	var csv bytes.Buffer
	for _, date := range append([]simtime.Date{dates[0]}, dates...) {
		for _, r := range g.Scan(date) {
			csv.WriteString(strings.Join(scanner.FormatScanRow(r), ",") + "\n")
		}
	}
	feed := NewFeeder(&csv, rec.Dataset, s, reg)
	for {
		_, ok, err := feed.Tick()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
	}
	feed.Finish()

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		MetricWALQuarantined + `{reason="torn_tail"} 1`,
		MetricFeedQuarantined + `{reason="duplicate_scan"} `,
		MetricWALSnapshots + " 1",
	} {
		if !strings.Contains(b.String(), want) {
			t.Fatalf("the scrape shows no %s:\n%s", want, b.String())
		}
	}
	scraped := make(map[string]string)
	for _, line := range strings.Split(b.String(), "\n") {
		fields := strings.Fields(line)
		if len(fields) == 4 && fields[1] == "TYPE" && isCatalogued(fields[2]) {
			scraped[fields[2]] = fields[3]
		}
	}
	doc := readmeWALCatalogue(t)
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
