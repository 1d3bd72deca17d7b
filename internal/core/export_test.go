package core

import (
	"reflect"
	"testing"

	"retrodns/internal/dnscore"
	"retrodns/internal/simtime"
)

func TestExportIndexesEveryDomain(t *testing.T) {
	dep := &Deployment{ScanDates: []simtime.Date{simtime.MustParse("2017-07-10")}}
	res := &Result{
		History: histories(map[dnscore.Name]map[simtime.Period]Category{
			"bravo.gov.xx": {0: CategoryStable, 1: CategoryTransient},
			"alpha.com":    {0: CategoryStable},
		}),
		Candidates: []*Candidate{
			{Domain: "bravo.gov.xx", Period: 1, Pattern: PatternT1, Transient: dep, Sensitive: true},
		},
		Hijacked: []*Finding{
			{Domain: "bravo.gov.xx", Verdict: VerdictHijacked, Date: simtime.MustParse("2017-07-10")},
		},
		Targeted: []*Finding{
			// Pivot-discovered: never classified, absent from History.
			{Domain: "pivot.gov.xx", Verdict: VerdictTargeted, Date: simtime.MustParse("2017-07-17")},
		},
	}

	e := res.Export()
	if len(e.Domains) != 3 {
		t.Fatalf("exported %d domains, want 3", len(e.Domains))
	}
	// Sorted by name.
	for i, want := range []dnscore.Name{"alpha.com", "bravo.gov.xx", "pivot.gov.xx"} {
		if e.Domains[i].Domain != want {
			t.Errorf("Domains[%d] = %s, want %s", i, e.Domains[i].Domain, want)
		}
	}

	b := e.Domain("bravo.gov.xx")
	if b == nil {
		t.Fatal("bravo.gov.xx missing")
	}
	if b.Rollup != CategoryTransient {
		t.Errorf("bravo rollup = %v, want transient", b.Rollup)
	}
	if len(b.Candidates) != 1 || len(b.Findings) != 1 {
		t.Errorf("bravo candidates=%d findings=%d, want 1/1", len(b.Candidates), len(b.Findings))
	}
	if b.Verdict() != VerdictHijacked {
		t.Errorf("bravo verdict = %v, want hijacked", b.Verdict())
	}

	p := e.Domain("pivot.gov.xx")
	if p == nil {
		t.Fatal("pivot.gov.xx missing despite having a finding")
	}
	if p.Rollup != CategoryNoisy {
		t.Errorf("pivot-only rollup = %v, want noisy default", p.Rollup)
	}
	if p.Verdict() != VerdictTargeted {
		t.Errorf("pivot verdict = %v, want targeted", p.Verdict())
	}

	a := e.Domain("alpha.com")
	if a.Verdict() != VerdictInconclusive {
		t.Errorf("alpha verdict = %v, want inconclusive", a.Verdict())
	}
	if e.Domain("absent.example") != nil {
		t.Error("lookup of unknown domain returned an entry")
	}
}

// TestExportOrderFromRun asserts the order Export takes from Run's roster —
// with pivot-only names merged in — is exactly what sorting produces, entry
// for entry, and that a roster that no longer covers History is not trusted.
func TestExportOrderFromRun(t *testing.T) {
	history := histories(map[dnscore.Name]map[simtime.Period]Category{
		"delta.org":    {2: CategoryNoisy},
		"bravo.gov.xx": {0: CategoryStable, 1: CategoryTransient},
		"alpha.com":    {0: CategoryStable},
	})
	findings := []*Finding{
		// Pivot-only, sorting before, between and after the classified names.
		{Domain: "zulu.gov.xx", Verdict: VerdictHijacked},
		{Domain: "aaa.gov.xx", Verdict: VerdictHijacked},
		{Domain: "charlie.gov.xx", Verdict: VerdictHijacked},
		{Domain: "bravo.gov.xx", Verdict: VerdictHijacked},
		{Domain: "charlie.gov.xx", Verdict: VerdictHijacked},
	}
	sorted := (&Result{History: history, Hijacked: findings}).Export()
	want := []dnscore.Name{"aaa.gov.xx", "alpha.com", "bravo.gov.xx", "charlie.gov.xx", "delta.org", "zulu.gov.xx"}
	if len(sorted.Domains) != len(want) {
		t.Fatalf("exported %d domains, want %d", len(sorted.Domains), len(want))
	}
	for i, d := range sorted.Domains {
		if d.Domain != want[i] {
			t.Fatalf("sorted export has %s at %d, want order %v", d.Domain, i, want)
		}
	}
	if n := len(sorted.Domain("charlie.gov.xx").Findings); n != 2 {
		t.Errorf("charlie findings = %d, want 2", n)
	}

	for name, roster := range map[string][]dnscore.Name{
		// The dataset roster: sorted, a superset of History's keys.
		"run":      {"alpha.com", "bravo.gov.xx", "cold.example", "delta.org", "echo.example"},
		"stale":    {"alpha.com", "bravo.gov.xx"},
		"repeated": {"alpha.com", "alpha.com", "bravo.gov.xx", "delta.org"},
	} {
		got := (&Result{History: history, Hijacked: findings, roster: roster}).Export()
		if !reflect.DeepEqual(got, sorted) {
			t.Errorf("%s roster: export differs from the sorted export", name)
		}
	}

	// And on a real Run — classified, shortlisted and pivot-only domains —
	// the roster path is taken and agrees with the sorted one.
	res := buildPipelineWorld(t).Run()
	if len(res.roster) < len(res.History) {
		t.Fatalf("Run left a roster of %d names for %d classified domains", len(res.roster), len(res.History))
	}
	bare := &Result{History: res.History, Candidates: res.Candidates, Hijacked: res.Hijacked, Targeted: res.Targeted}
	if got, want := res.Export(), bare.Export(); !reflect.DeepEqual(got, want) {
		t.Error("Run's export differs from the sorted export of the same result")
	} else if len(got.Domains) <= len(res.History) {
		t.Errorf("export has %d domains for %d classified: no pivot-only entry", len(got.Domains), len(res.History))
	}
}
