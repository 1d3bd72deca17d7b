package synth

import (
	"testing"

	"retrodns/internal/scanner"
	"retrodns/internal/simtime"
)

func TestDeterministicAcrossCalls(t *testing.T) {
	g := New(Config{Domains: 500, Seed: 42})
	dates := g.ScanDates()
	if len(dates) != 4 {
		t.Fatalf("ScanDates = %v", dates)
	}
	a := g.Scan(dates[1])
	b := New(Config{Domains: 500, Seed: 42}).Scan(dates[1])
	if len(a) != len(b) {
		t.Fatalf("scan sizes differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].IP != b[i].IP || a[i].ASN != b[i].ASN || a[i].Country != b[i].Country ||
			a[i].Cert.Fingerprint() != b[i].Cert.Fingerprint() {
			t.Fatalf("record %d differs across regenerations", i)
		}
	}
	other := New(Config{Domains: 500, Seed: 43}).Scan(dates[1])
	same := len(other) == len(a)
	if same {
		for i := range a {
			if a[i].IP != other[i].IP {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical scans")
	}
}

func TestRecordsPassIngestGate(t *testing.T) {
	g := New(Config{Domains: 1000, Seed: 7})
	ds := scanner.NewDataset()
	ds.SetStrict(true)
	for _, date := range g.ScanDates() {
		if err := ds.AddScan(date, g.Scan(date)); err != nil {
			t.Fatalf("strict ingest refused synth records: %v", err)
		}
	}
	ds.Freeze()
	domains, records := ds.Size()
	if domains != 1000 {
		t.Fatalf("domains = %d, want 1000", domains)
	}
	if records < 4000 {
		t.Fatalf("records = %d, want >= 4000", records)
	}
	if q := ds.Quarantine(); q.Total != 0 {
		t.Fatalf("quarantined: %v", q)
	}
}

func TestZipfPopularity(t *testing.T) {
	g := New(Config{Domains: 10000, Seed: 1, ZipfS: 1.1})
	if got := g.DeploySize(0); got != 1+maxExtraHosts {
		t.Fatalf("rank 0 deploy = %d, want %d", got, 1+maxExtraHosts)
	}
	prev := g.DeploySize(0)
	for _, r := range []int{1, 3, 10, 100, 5000} {
		k := g.DeploySize(r)
		if k > prev {
			t.Fatalf("deploy size not monotone at rank %d", r)
		}
		if k < 1 {
			t.Fatalf("deploy size %d < 1 at rank %d", k, r)
		}
		prev = k
	}
	if g.DeploySize(9999) != 1 {
		t.Fatalf("tail rank deploy = %d, want 1", g.DeploySize(9999))
	}
	if est := g.EstimatedRecords(); est < 10000 || est > 11000 {
		t.Fatalf("EstimatedRecords = %d, want ~10k + zipf head", est)
	}
}

func TestCertDedupAcrossScans(t *testing.T) {
	g := New(Config{Domains: 200, Seed: 5})
	ds := scanner.NewDataset()
	for _, date := range g.ScanDates() {
		if err := ds.Append(date, g.Scan(date)); err != nil {
			t.Fatal(err)
		}
	}
	st := ds.Pool().Stats()
	// 200 stable certs recreated every scan must collapse to ~200 pool
	// entries (plus the rare transients).
	if st.Certs < 200 || st.Certs > 210 {
		t.Fatalf("cert pool size = %d, want ~200", st.Certs)
	}
	// Every indexed record must hold a pooled certificate: the same
	// stable cert across scans is pointer-identical.
	recs := ds.DomainRecords(nameOf(0), 0, 0)
	if len(recs) < 2 {
		t.Fatalf("domain 0 records = %d", len(recs))
	}
	first := recs[0].Cert
	for _, r := range recs {
		if r.Cert.Fingerprint() == first.Fingerprint() && r.Cert != first {
			t.Fatal("identical certificates not deduped to one instance")
		}
	}
}

func TestTransientsAppear(t *testing.T) {
	g := New(Config{Domains: 20000, Seed: 3, TransientPerMille: 30, Scans: 26, CadenceDays: 7})
	found := false
	for _, date := range g.ScanDates() {
		g.EmitScan(date, func(r *scanner.Record) {
			if r.Cert.Issuer == "Let's Encrypt" {
				found = true
				if !r.Sensitive {
					t.Error("transient record not sensitive")
				}
				if lt := r.Cert.Lifetime(); lt != 90 {
					t.Errorf("transient cert lifetime = %d, want 90", lt)
				}
			}
		})
		if found {
			break
		}
	}
	if !found {
		t.Fatal("no transient deployments emitted across 26 scans at 3%")
	}
}

func TestScanDatesClampToStudy(t *testing.T) {
	g := New(Config{Domains: 1, Seed: 1, Scans: 1000, CadenceDays: 30})
	dates := g.ScanDates()
	if len(dates) == 0 || len(dates) >= 1000 {
		t.Fatalf("dates = %d", len(dates))
	}
	for _, d := range dates {
		if !d.InStudy() {
			t.Fatalf("date %s outside study", d)
		}
	}
	_ = simtime.StudyEnd
}
