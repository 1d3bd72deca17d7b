package retrodns_bench

import (
	"bytes"
	"fmt"
	"testing"

	"retrodns/internal/core"
	"retrodns/internal/pdns"
	"retrodns/internal/report"
	"retrodns/internal/scanner"
	"retrodns/internal/synth"
)

// domainMajor copies the records of scans into one array in domain-major
// order — every record of ds's first domain, then the next domain's — and
// returns the scans again, in the same order, over the copies. ds must be a
// frozen dataset that ingested exactly scans. A record indexed under several
// domains is copied once, where its first domain puts it; records no domain
// indexes (quarantined ones) go last.
func domainMajor(ds *scanner.Dataset, scans [][]*scanner.Record) [][]*scanner.Record {
	total := 0
	for _, s := range scans {
		total += len(s)
	}
	slab := make([]scanner.Record, 0, total)
	copyOf := make(map[*scanner.Record]*scanner.Record, total)
	place := func(r *scanner.Record) {
		if _, ok := copyOf[r]; !ok {
			slab = append(slab, *r)
			copyOf[r] = &slab[len(slab)-1]
		}
	}
	for _, domain := range ds.Domains() {
		for _, r := range ds.DomainRecords(domain, 0, 0) {
			place(r)
		}
	}
	out := make([][]*scanner.Record, len(scans))
	for i, s := range scans {
		out[i] = make([]*scanner.Record, len(s))
		for j, r := range s {
			place(r)
			out[i][j] = copyOf[r]
		}
	}
	return out
}

// TestLayoutInvariance holds the uncached classify pass to its inputs, not
// to where they lie in memory. The pass is tuned for records laid out in
// scan order (a prefetch pass per window, a pointer fast path for pooled
// certificates), so three builds of one synth corpus must analyze
// identically: as ingested, as a domain-major copy of the same records,
// and with interning off so that every record carries its own
// *Certificate instance. The first two must agree on the findings JSON,
// the funnel and the canonical run report byte for byte. The third must
// agree on all three as well, and deployment for deployment on the number
// of distinct certificates: with no pooled instance to compare pointers
// on, deduplication falls back to fingerprints.
func TestLayoutInvariance(t *testing.T) {
	g := synth.New(synth.Config{Domains: 1200, Seed: 5, Scans: 52, TransientPerMille: 40})
	dates := g.ScanDates()
	// Rows through the scans.csv reference decoder: every record gets its
	// own certificate instance, which the interned builds pool and the
	// uninterned one keeps.
	parse := func(t *testing.T) [][]*scanner.Record {
		t.Helper()
		scans := make([][]*scanner.Record, len(dates))
		for i, d := range dates {
			for _, r := range g.Scan(d) {
				rec, err := scanner.ParseScanRow(scanner.FormatScanRow(r))
				if err != nil {
					t.Fatalf("ParseScanRow: %v", err)
				}
				scans[i] = append(scans[i], rec)
			}
		}
		return scans
	}
	ingest := func(t *testing.T, scans [][]*scanner.Record, intern bool) *scanner.Dataset {
		t.Helper()
		ds := scanner.NewDataset()
		ds.SetIntern(intern)
		for i, d := range dates {
			if err := ds.AddScan(d, scans[i]); err != nil {
				t.Fatalf("AddScan %s: %v", d, err)
			}
		}
		ds.Freeze()
		return ds
	}
	type outcome struct {
		res                     *core.Result
		findings, funnel, canon []byte
	}
	classify := func(t *testing.T, ds *scanner.Dataset) outcome {
		t.Helper()
		p := &core.Pipeline{Params: core.DefaultParams(), Dataset: ds, PDNS: pdns.NewDB(), Workers: 2}
		res := p.Run()
		var o outcome
		o.res = res
		var buf bytes.Buffer
		if err := report.WriteJSON(&buf, res); err != nil {
			t.Fatalf("WriteJSON: %v", err)
		}
		o.findings = bytes.Clone(buf.Bytes())
		buf.Reset()
		if err := report.BuildRunReport(res, ds.Quarantine(), nil).Canonical().Encode(&buf); err != nil {
			t.Fatalf("Encode: %v", err)
		}
		o.canon = bytes.Clone(buf.Bytes())
		o.funnel = fmt.Appendf(nil, "%+v", res.Funnel)
		return o
	}
	same := func(t *testing.T, what string, got, want outcome) {
		t.Helper()
		for _, c := range []struct {
			name      string
			got, want []byte
		}{
			{"findings JSON", got.findings, want.findings},
			{"funnel", got.funnel, want.funnel},
			{"canonical run report", got.canon, want.canon},
		} {
			if !bytes.Equal(c.got, c.want) {
				t.Errorf("%s: %s differs from the as-ingested build:\n got %.600s\nwant %.600s", what, c.name, c.got, c.want)
			}
		}
	}

	scans := parse(t)
	ingested := ingest(t, scans, true)
	base := classify(t, ingested)
	if base.res.Funnel.Maps == 0 || base.res.Funnel.MapCategories[core.CategoryTransient] == 0 {
		t.Fatalf("corpus too plain to pin anything: %s", base.funnel)
	}

	moved := ingest(t, domainMajor(ingested, scans), true)
	same(t, "domain-major copy", classify(t, moved), base)

	uninterned := ingest(t, parse(t), false)
	same(t, "interning off", classify(t, uninterned), base)

	// The uninterned build really holds one instance per record: a stable
	// domain's certificate recurs every scan, as distinct pointers.
	shared := 0
	for _, domain := range uninterned.Domains() {
		recs := uninterned.DomainRecords(domain, 0, 0)
		for i := 1; i < len(recs); i++ {
			if recs[i].Cert == recs[i-1].Cert {
				shared++
			}
		}
	}
	if shared != 0 {
		t.Fatalf("interning off: %d records share a certificate instance with their neighbour", shared)
	}
	cells := 0
	for _, domain := range ingested.Domains() {
		for _, period := range ingested.Periods() {
			want := core.BuildMap(ingested, domain, period)
			got := core.BuildMap(uninterned, domain, period)
			if (want == nil) != (got == nil) {
				t.Fatalf("%s %s: map presence differs with interning off", domain, period)
			}
			if want == nil {
				continue
			}
			if len(got.Deployments) != len(want.Deployments) {
				t.Fatalf("%s %s: %d deployments with interning off, %d pooled", domain, period, len(got.Deployments), len(want.Deployments))
			}
			for i, d := range want.Deployments {
				if n := len(got.Deployments[i].Certs); n != len(d.Certs) {
					t.Fatalf("%s %s deployment %d: %d certificates with interning off, %d pooled\n%s", domain, period, i, n, len(d.Certs), got)
				}
			}
			cells++
		}
	}
	if cells == 0 {
		t.Fatal("no cells compared")
	}
}
