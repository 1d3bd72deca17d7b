package scanner

import (
	"errors"
	"net/netip"
	"strings"
	"testing"

	"retrodns/internal/dnscore"
	"retrodns/internal/simtime"
	"retrodns/internal/x509lite"
)

var quarKey = x509lite.NewSigningKey("quar-test", 7)

func quarCert(serial uint64, sans ...dnscore.Name) *x509lite.Certificate {
	c := &x509lite.Certificate{
		Serial: serial, Subject: sans[0], SANs: sans,
		Issuer: "Test CA", NotBefore: 0, NotAfter: simtime.StudyEnd,
		Method: x509lite.ValidationDNS01,
	}
	quarKey.Sign(c)
	return c
}

func quarRec(date simtime.Date, ip string, c *x509lite.Certificate) *Record {
	return &Record{ScanDate: date, IP: netip.MustParseAddr(ip), Ports: []uint16{443}, Cert: c}
}

// badBatch returns one valid record surrounded by every malformed shape
// the ingest gate quarantines.
func badBatch(date simtime.Date) (valid *Record, batch []*Record) {
	good := quarCert(1, "www.good.com")
	valid = quarRec(date, "84.205.1.1", good)
	nilCertRec := &Record{ScanDate: date, IP: netip.MustParseAddr("84.205.1.2")}
	badNameRec := quarRec(date, "84.205.1.3", quarCert(2, "exa$mple.com"))
	nonCanonRec := quarRec(date, "84.205.1.4", quarCert(3, "WWW.Loud.COM"))
	noSANRec := quarRec(date, "84.205.1.5", &x509lite.Certificate{Serial: 4})
	badDateRec := quarRec(simtime.StudyEnd+10, "84.205.1.6", quarCert(5, "www.late.com"))
	zeroIPRec := &Record{ScanDate: date, Cert: quarCert(6, "www.noip.com")}
	unspecRec := quarRec(date, "0.0.0.0", quarCert(7, "www.unspec.com"))
	batch = []*Record{nil, nilCertRec, valid, badNameRec, nonCanonRec, noSANRec, badDateRec, zeroIPRec, unspecRec}
	return valid, batch
}

func TestAddScanQuarantinesMalformed(t *testing.T) {
	ds := NewDataset()
	valid, batch := badBatch(7)
	if err := ds.AddScan(7, batch); err != nil {
		t.Fatalf("AddScan: %v", err)
	}
	domains, records := ds.Size()
	if domains != 1 || records != 1 {
		t.Fatalf("Size = (%d, %d), want (1, 1)", domains, records)
	}
	if got := ds.DomainRecords("good.com", 0, 0); len(got) != 1 || got[0] != valid {
		t.Fatalf("valid record not indexed: %v", got)
	}
	q := ds.Quarantine()
	if q.Total != 8 {
		t.Fatalf("quarantined %d, want 8: %v", q.Total, q)
	}
	wantCounts := map[QuarantineReason]int{
		QuarNilRecord: 1, QuarNilCert: 1, QuarBadName: 3, QuarBadDate: 1, QuarZeroIP: 2,
	}
	for reason, want := range wantCounts {
		if q.ByReason[reason] != want {
			t.Errorf("%s count = %d, want %d", reason, q.ByReason[reason], want)
		}
	}
	if len(q.Examples) != 8 {
		t.Errorf("examples = %d, want 8 (all under the bound)", len(q.Examples))
	}
	if s := q.String(); !strings.Contains(s, "bad-name") || !strings.Contains(s, "8 records refused") {
		t.Errorf("report rendering: %q", s)
	}
}

// TestGateValidRecordAllocatesNothing pins the gate's claim about its
// parallel pass: a valid record costs no allocation, both when its
// certificate's names are walked (first sight of that instance) and when
// the certificate's memo answers (every sight after).
func TestGateValidRecordAllocatesNothing(t *testing.T) {
	const runs = 100
	cert := quarCert(9, "www.good.com", "_acme-challenge.mail.good.com")
	fresh := make([]*Record, runs+1) // AllocsPerRun warms up with one extra call
	for i := range fresh {
		fresh[i] = quarRec(7, "84.205.1.1", cert.Clone())
	}
	next := 0
	gate := func(pick func() *Record) float64 {
		return testing.AllocsPerRun(runs, func() {
			if _, _, ok := validateRecord(pick()); !ok {
				t.Fatal("valid record refused")
			}
		})
	}
	if allocs := gate(func() *Record { next++; return fresh[next-1] }); allocs != 0 {
		t.Errorf("first sight: gate allocates %.0f times on a valid record", allocs)
	}
	if allocs := gate(func() *Record { return fresh[0] }); allocs != 0 {
		t.Errorf("memoized: gate allocates %.0f times on a valid record", allocs)
	}
}

func TestAppendQuarantinesMalformed(t *testing.T) {
	ds := NewDataset()
	ds.Freeze()
	valid, batch := badBatch(14)
	if err := ds.Append(14, batch); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if got := ds.DomainRecords("good.com", 0, 0); len(got) != 1 || got[0] != valid {
		t.Fatalf("valid record not indexed: %v", got)
	}
	if q := ds.Quarantine(); q.Total != 8 {
		t.Fatalf("quarantined %d, want 8", q.Total)
	}
	if gen := ds.Generation(); gen != 2 {
		t.Fatalf("generation = %d, want 2", gen)
	}
}

func TestStrictModeRejectsAtomically(t *testing.T) {
	for _, mode := range []string{"addscan", "append"} {
		ds := NewDataset()
		ds.SetStrict(true)
		_, batch := badBatch(7)
		var err error
		if mode == "append" {
			ds.Freeze()
			err = ds.Append(7, batch)
		} else {
			err = ds.AddScan(7, batch)
		}
		if !errors.Is(err, ErrQuarantined) {
			t.Fatalf("%s: err = %v, want ErrQuarantined", mode, err)
		}
		if _, records := ds.Size(); records != 0 {
			t.Errorf("%s: strict reject ingested %d records", mode, records)
		}
		if len(ds.DomainRecords("good.com", 0, 0)) != 0 {
			t.Errorf("%s: strict reject left the valid record behind (not atomic)", mode)
		}
	}
}

func TestStrictModeCleanScanPasses(t *testing.T) {
	ds := NewDataset()
	ds.SetStrict(true)
	if err := ds.AddScan(7, []*Record{quarRec(7, "84.205.1.1", quarCert(1, "www.good.com"))}); err != nil {
		t.Fatalf("clean strict AddScan: %v", err)
	}
	if err := ds.Append(14, []*Record{quarRec(14, "84.205.1.1", quarCert(1, "www.good.com"))}); err != nil {
		t.Fatalf("clean strict Append: %v", err)
	}
	if q := ds.Quarantine(); q.Total != 0 {
		t.Fatalf("clean ingest journaled %d", q.Total)
	}
}

func TestQuarantineOutOfWindowScanDate(t *testing.T) {
	ds := NewDataset()
	if err := ds.AddScan(simtime.StudyEnd+7, nil); err != nil {
		t.Fatalf("AddScan: %v", err)
	}
	if dates := ds.ScanDates(0, 0); len(dates) != 0 {
		t.Fatalf("out-of-window date entered the index: %v", dates)
	}
	q := ds.Quarantine()
	if q.ByReason[QuarBadDate] != 1 {
		t.Fatalf("bad-date count = %d, want 1", q.ByReason[QuarBadDate])
	}
	// Strict mode: same call is a hard error.
	strict := NewDataset()
	strict.SetStrict(true)
	if err := strict.AddScan(-30, nil); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("strict out-of-window AddScan err = %v", err)
	}
}

// TestQuarantineExamplesBounded floods the journal and checks the bound.
func TestQuarantineExamplesBounded(t *testing.T) {
	ds := NewDataset()
	var batch []*Record
	for i := 0; i < 100; i++ {
		batch = append(batch, nil)
	}
	if err := ds.AddScan(7, batch); err != nil {
		t.Fatal(err)
	}
	q := ds.Quarantine()
	if q.Total != 100 || q.ByReason[QuarNilRecord] != 100 {
		t.Fatalf("counters inexact: %+v", q)
	}
	if len(q.Examples) > maxQuarExamples {
		t.Fatalf("journal unbounded: %d examples", len(q.Examples))
	}
}
