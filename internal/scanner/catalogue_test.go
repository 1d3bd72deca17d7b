package scanner

import (
	"bufio"
	"os"
	"strings"
	"testing"

	"retrodns/internal/obsv"
)

// catalogued are the family prefixes README §Out-of-core corpus tables.
var catalogued = []string{"retrodns_ingest_", "retrodns_corpus_", "retrodns_segment_"}

func isCatalogued(name string) bool {
	for _, p := range catalogued {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// readmeDatasetCatalogue reads README.md's table of the dataset's families:
// each row that starts with a backquoted catalogued family name gives its
// kind in the second column.
func readmeDatasetCatalogue(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows := make(map[string]string)
	sc := bufio.NewScanner(f)
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

// TestDatasetMetricCatalogue ingests a corpus into a zero-budget dataset
// with a registry attached, reads every window off its segments, and
// requires the retrodns_ingest_*, retrodns_corpus_* and retrodns_segment_*
// families the scrape shows to be exactly README's catalogue, with the
// same kinds.
func TestDatasetMetricCatalogue(t *testing.T) {
	reg := obsv.NewRegistry()
	d := NewDatasetShards(2)
	d.SetMetrics(reg)
	if err := d.ConfigureSpill(SpillOptions{Dir: t.TempDir(), BudgetBytes: 0}); err != nil {
		t.Fatal(err)
	}
	ingestWindowCorpus(t, d, true)
	for _, domain := range d.Domains() {
		if len(d.DomainRecords(domain, 0, 0)) == 0 {
			t.Fatalf("%s read no records", domain)
		}
	}

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	scraped := make(map[string]string)
	for _, line := range strings.Split(b.String(), "\n") {
		fields := strings.Fields(line)
		if len(fields) == 4 && fields[1] == "TYPE" && isCatalogued(fields[2]) {
			scraped[fields[2]] = fields[3]
		}
	}
	if !strings.Contains(b.String(), MetricSegmentReads+" 24\n") {
		t.Fatalf("the scrape shows no segment reads:\n%s", b.String())
	}
	doc := readmeDatasetCatalogue(t)
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
