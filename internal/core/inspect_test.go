package core

import (
	"net/netip"
	"testing"

	"retrodns/internal/ctlog"
	"retrodns/internal/dnscore"
	"retrodns/internal/ipmeta"
	"retrodns/internal/pdns"
	"retrodns/internal/scanner"
	"retrodns/internal/simtime"
	"retrodns/internal/x509lite"
)

// t1Fixture assembles a complete T1 scenario over period 0:
//   - kyvernisi.gr stable on AS35506/GR all period;
//   - a transient at 95.179.131.225 (AS20473/NL) for one scan, serving a
//     fresh Let's Encrypt cert for mail.kyvernisi.gr;
//   - a CT log holding both certs;
//   - pDNS rows showing the legitimate resolution plus (optionally) the
//     delegation change and redirection during the hijack.
type t1Fixture struct {
	ds        *scanner.Dataset
	log       *ctlog.Log
	db        *pdns.DB
	cand      *Candidate
	inspector *Inspector
	evil      *x509lite.Certificate
	tDate     simtime.Date
}

func newT1Fixture(t *testing.T, withPDNS bool, certIssuedAt simtime.Date) *t1Fixture {
	t.Helper()
	stable := cert(1, "mail.kyvernisi.gr")
	evil := cert(99, "mail.kyvernisi.gr")
	evil.NotBefore = certIssuedAt
	evil.NotAfter = certIssuedAt + 90
	coreKey.Sign(evil)

	scans := simtime.ScansInPeriod(0)
	tDate := scans[len(scans)/2]
	ds := dsFrom(fullPeriod(func(d simtime.Date) []*scanner.Record {
		recs := []*scanner.Record{rec(d, "84.205.248.69", 35506, "GR", stable)}
		if d == tDate {
			recs = append(recs, rec(d, "95.179.131.225", 20473, "NL", evil))
		}
		return recs
	}))

	log := ctlog.NewLog("sim", 1000)
	if _, err := log.Submit(stable, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := log.Submit(evil, certIssuedAt); err != nil {
		t.Fatal(err)
	}

	db := pdns.NewDB()
	// Long-term baseline.
	db.Record(0, "kyvernisi.gr", dnscore.TypeNS, "ns1.otenet.gr")
	db.Record(simtime.Period(0).End()-1, "kyvernisi.gr", dnscore.TypeNS, "ns1.otenet.gr")
	db.Record(0, "mail.kyvernisi.gr", dnscore.TypeA, "84.205.248.69")
	db.Record(simtime.Period(0).End()-1, "mail.kyvernisi.gr", dnscore.TypeA, "84.205.248.69")
	if withPDNS {
		// The hijack: delegation change and redirection for one day.
		db.Record(tDate-2, "kyvernisi.gr", dnscore.TypeNS, "ns1.evil-host.ru")
		db.Record(tDate-1, "mail.kyvernisi.gr", dnscore.TypeA, "95.179.131.225")
	}

	cl := classify(t, ds, "kyvernisi.gr")
	if cl.Category != CategoryTransient || cl.Pattern != PatternT1 {
		t.Fatalf("fixture misclassified: %s %s", cl.Category, cl.Pattern)
	}
	sh := &Shortlister{Params: DefaultParams(), History: map[dnscore.Name]PeriodCategories{}}
	cands, _ := sh.Shortlist(cl)
	if len(cands) != 1 {
		t.Fatalf("fixture shortlisted %d candidates", len(cands))
	}
	return &t1Fixture{
		ds: ds, log: log, db: db, cand: cands[0], evil: evil, tDate: tDate,
		inspector: &Inspector{Params: DefaultParams(), PDNS: db, CT: log},
	}
}

func TestInspectT1Hijacked(t *testing.T) {
	fx := newT1Fixture(t, true, 0)
	fx.evil.NotBefore = fx.tDate - 3 // issued just before the hijack
	// Reissue with the right dates and re-log.
	fx = newT1FixtureWithIssueDate(t, fx.tDate-3)
	f, outcome := fx.inspector.Inspect(fx.cand)
	if outcome != OutcomeHijacked {
		t.Fatalf("outcome = %s", outcome)
	}
	if f.Verdict != VerdictHijacked || f.Method != MethodT1 {
		t.Fatalf("finding: %+v", f)
	}
	if !f.PDNS || !f.CT {
		t.Fatalf("corroboration flags: pdns=%v ct=%v", f.PDNS, f.CT)
	}
	if f.Sub != "mail" {
		t.Errorf("Sub = %q", f.Sub)
	}
	if f.AttackerIP != netip.MustParseAddr("95.179.131.225") || f.AttackerASN != 20473 {
		t.Errorf("attacker: %v %v", f.AttackerIP, f.AttackerASN)
	}
	if len(f.VictimASNs) != 1 || f.VictimASNs[0] != 35506 {
		t.Errorf("victim ASNs: %v", f.VictimASNs)
	}
	if len(f.AttackerNS) != 1 || f.AttackerNS[0] != "ns1.evil-host.ru" {
		t.Errorf("attacker NS: %v", f.AttackerNS)
	}
	// Hijack date comes from the pDNS redirection, not the scan.
	if f.Date != fx.tDate-1 {
		t.Errorf("date = %v, want %v", f.Date, fx.tDate-1)
	}
	if f.TargetName() != "mail.kyvernisi.gr" {
		t.Errorf("TargetName = %s", f.TargetName())
	}
}

// newT1FixtureWithIssueDate builds the fixture with the malicious cert
// issued at the given date and pDNS evidence present.
func newT1FixtureWithIssueDate(t *testing.T, issuedAt simtime.Date) *t1Fixture {
	t.Helper()
	return newT1Fixture(t, true, issuedAt)
}

func TestInspectT1PendingWithoutPDNS(t *testing.T) {
	// Fresh cert near the transient, but pDNS sensors missed the hijack.
	fx := newT1Fixture(t, false, 0)
	fx = newT1Fixture(t, false, fx.tDate-3)
	f, outcome := fx.inspector.Inspect(fx.cand)
	if outcome != OutcomePendingReuse {
		t.Fatalf("outcome = %s", outcome)
	}
	if f.PDNS {
		t.Error("phantom pDNS corroboration")
	}
	if !f.CT {
		t.Error("missing CT corroboration")
	}
}

func TestInspectT1StaleCertInconclusive(t *testing.T) {
	// The transient's certificate was issued months before it became
	// visible: the paper treats these as legitimate deployments briefly
	// visible to scans.
	fx := newT1Fixture(t, false, 0) // issued at study start, transient months later
	_, outcome := fx.inspector.Inspect(fx.cand)
	if outcome != OutcomeInconclusive && outcome != OutcomeNoData {
		t.Fatalf("outcome = %s", outcome)
	}
}

// t2Fixture: the transient relays the stable certificate (proxy prelude).
func newT2Fixture(t *testing.T, withPDNS, withCT, anomalous bool) (*Inspector, *Candidate, simtime.Date) {
	t.Helper()
	stable := cert(1, "mail.mgov.ae")
	scans := simtime.ScansInPeriod(1)
	tDate := scans[len(scans)/2]
	ds := scanner.NewDataset()
	for _, d := range scans {
		recs := []*scanner.Record{rec(d, "84.205.248.69", 5384, "AE", stable)}
		if d == tDate {
			recs = append(recs, rec(d, "185.20.187.8", 50673, "NL", stable))
		}
		ds.AddScan(d, recs)
	}
	cl := DefaultParams().Classify(BuildMap(ds, "mgov.ae", 1), ds.ScanDates(simtime.Period(1).Start(), simtime.Period(1).End()))
	if cl.Category != CategoryTransient || cl.Pattern != PatternT2 {
		t.Fatalf("fixture misclassified: %s %s", cl.Category, cl.Pattern)
	}
	history := map[dnscore.Name]PeriodCategories{}
	if anomalous {
		history["mgov.ae"] = categories(map[simtime.Period]Category{
			0: CategoryStable, 1: CategoryTransient, 2: CategoryStable,
		})
	}
	sh := &Shortlister{Params: DefaultParams(), History: history}
	cands, _ := sh.Shortlist(cl)
	if len(cands) != 1 {
		t.Fatalf("fixture shortlisted %d", len(cands))
	}

	db := pdns.NewDB()
	db.Record(0, "mgov.ae", dnscore.TypeNS, "ns1.aeda.ae")
	db.Record(simtime.StudyEnd-1, "mgov.ae", dnscore.TypeNS, "ns1.aeda.ae")
	db.Record(0, "mail.mgov.ae", dnscore.TypeA, "84.205.248.69")
	if withPDNS {
		db.Record(tDate+1, "mail.mgov.ae", dnscore.TypeA, "185.20.187.8")
	}
	log := ctlog.NewLog("sim", 804429558)
	if _, err := log.Submit(stable, 0); err != nil {
		t.Fatal(err)
	}
	if withCT {
		evil := cert(77, "mail.mgov.ae")
		evil.NotBefore = tDate - 2
		evil.NotAfter = tDate + 88
		coreKey.Sign(evil)
		if _, err := log.Submit(evil, tDate-2); err != nil {
			t.Fatal(err)
		}
	}
	return &Inspector{Params: DefaultParams(), PDNS: db, CT: log}, cands[0], tDate
}

func TestInspectT2Hijacked(t *testing.T) {
	insp, cand, tDate := newT2Fixture(t, true, true, false)
	f, outcome := insp.Inspect(cand)
	if outcome != OutcomeHijacked {
		t.Fatalf("outcome = %s", outcome)
	}
	if f.Method != MethodT2 || !f.PDNS || !f.CT {
		t.Fatalf("finding: %+v", f)
	}
	if f.CrtShID != 804429559 {
		t.Errorf("CrtShID = %d", f.CrtShID)
	}
	if f.Date != tDate+1 { // redirection observation wins
		t.Errorf("date = %v", f.Date)
	}
}

func TestInspectT2RedirectionWithoutCertTargeted(t *testing.T) {
	// The ais.gov.vn case: redirection in pDNS, no suspicious certificate.
	insp, cand, _ := newT2Fixture(t, true, false, false)
	f, outcome := insp.Inspect(cand)
	if outcome != OutcomeTargeted {
		t.Fatalf("outcome = %s", outcome)
	}
	if f.Verdict != VerdictTargeted || !f.PDNS || f.CT {
		t.Fatalf("finding: %+v", f)
	}
}

func TestInspectT2TrulyAnomalousTargeted(t *testing.T) {
	insp, cand, _ := newT2Fixture(t, false, false, true)
	if !cand.TrulyAnomalous && !cand.Sensitive {
		t.Fatal("candidate not anomalous")
	}
	f, outcome := insp.Inspect(cand)
	// Sensitive cert relayed: candidate qualifies via sensitivity; without
	// pDNS/CT there is no corroboration, but the anomaly rule applies only
	// to TrulyAnomalous candidates. Either targeted (anomalous) or
	// no-data/inconclusive (sensitive-only) is paper-consistent; the
	// fixture has stable-adjacent periods, so expect targeted when flagged.
	if cand.TrulyAnomalous && outcome != OutcomeTargeted {
		t.Fatalf("anomalous outcome = %s", outcome)
	}
	_ = f
}

func TestPivotFindsIPAndNSVictims(t *testing.T) {
	db := pdns.NewDB()
	meta := ipmeta.NewDirectory()
	meta.Prefixes.MustAnnounce("178.20.41.0/24", 48282)
	meta.Geo.MustAddPrefix("178.20.41.0/24", "RU")
	meta.Prefixes.MustAnnounce("94.103.91.0/24", 48282)
	meta.Geo.MustAddPrefix("94.103.91.0/24", "RU")

	// Confirmed hijack infrastructure: IP 94.103.91.159, NS ns1.kg-infocom.ru.
	confirmed := &Finding{
		Domain: "mfa.gov.kg", Verdict: VerdictHijacked, Method: MethodT1,
		AttackerIP: netip.MustParseAddr("94.103.91.159"),
		AttackerNS: []dnscore.Name{"ns1.kg-infocom.ru"},
	}
	// P-IP victim: owa.gov.cy-style — another domain resolving to the IP.
	db.Record(1450, "mbox.cyta.com.cy", dnscore.TypeA, "94.103.91.159")
	// P-NS victim: fiu.gov.kg delegated to the attacker NS, with a fresh
	// anomalous resolution in the attacker AS.
	db.Record(1455, "fiu.gov.kg", dnscore.TypeNS, "ns1.kg-infocom.ru")
	db.Record(1455, "mail.fiu.gov.kg", dnscore.TypeA, "178.20.41.140")
	// Baseline that must NOT be flagged.
	db.Record(0, "mail.fiu.gov.kg", dnscore.TypeA, "92.62.65.30")

	log := ctlog.NewLog("sim", 3848797679)
	evil := cert(55, "mail.fiu.gov.kg")
	evil.NotBefore = 1454
	evil.NotAfter = 1544
	coreKey.Sign(evil)
	if _, err := log.Submit(evil, 1454); err != nil {
		t.Fatal(err)
	}

	p := &Pivoter{Params: DefaultParams(), PDNS: db, CT: log, Meta: meta}
	known := map[dnscore.Name]bool{"mfa.gov.kg": true}
	found := p.Pivot(CollectInfrastructure([]*Finding{confirmed}), known)
	if len(found) != 2 {
		t.Fatalf("pivot found %d: %v", len(found), found)
	}
	byDomain := map[dnscore.Name]*Finding{}
	for _, f := range found {
		byDomain[f.Domain] = f
	}
	cy := byDomain["cyta.com.cy"]
	if cy == nil || cy.Method != MethodPivotIP || cy.Sub != "mbox" {
		t.Fatalf("P-IP finding: %+v", cy)
	}
	if cy.AttackerASN != 48282 || cy.AttackerCC != "RU" {
		t.Errorf("P-IP annotation: %v %v", cy.AttackerASN, cy.AttackerCC)
	}
	kg := byDomain["fiu.gov.kg"]
	if kg == nil || kg.Method != MethodPivotNS {
		t.Fatalf("P-NS finding: %+v", kg)
	}
	if kg.AttackerIP != netip.MustParseAddr("178.20.41.140") {
		t.Errorf("P-NS attacker IP: %v", kg.AttackerIP)
	}
	if !kg.CT || kg.CrtShID != 3848797679 {
		t.Errorf("P-NS CT corroboration: ct=%v id=%d", kg.CT, kg.CrtShID)
	}
	if kg.Sub != "mail" {
		t.Errorf("P-NS sub = %q", kg.Sub)
	}
	// Known domains are not rediscovered.
	if known["mfa.gov.kg"] != true || len(known) != 3 {
		t.Errorf("known set: %v", known)
	}
	// Re-pivot discovers nothing new.
	if again := p.Pivot(CollectInfrastructure(append([]*Finding{confirmed}, found...)), known); len(again) != 0 {
		t.Errorf("re-pivot found %v", again)
	}
}

func TestPromoteReuse(t *testing.T) {
	infra := Infrastructure{IPs: map[string]bool{"185.20.187.8": true}, NSs: map[dnscore.Name]bool{}}
	pending := []*Finding{
		{Domain: "apc.gov.ae", Method: MethodT1, AttackerIP: netip.MustParseAddr("185.20.187.8")},
		{Domain: "innocent.example.com", Method: MethodT1, AttackerIP: netip.MustParseAddr("10.0.0.1")},
	}
	promoted, dropped := PromoteReuse(pending, infra)
	if len(promoted) != 1 || promoted[0].Domain != "apc.gov.ae" {
		t.Fatalf("promoted: %v", promoted)
	}
	if promoted[0].Method != MethodT1Star || promoted[0].Verdict != VerdictHijacked {
		t.Fatalf("promotion fields: %+v", promoted[0])
	}
	if len(dropped) != 1 || dropped[0].Domain != "innocent.example.com" {
		t.Fatalf("dropped: %v", dropped)
	}
}

func TestFindingStringAndSort(t *testing.T) {
	a := &Finding{Domain: "a.gov.kg", Date: 100, VictimCCs: []ipmeta.CountryCode{"KG"}}
	b := &Finding{Domain: "b.gov.ae", Date: 50, VictimCCs: []ipmeta.CountryCode{"AE"}}
	c := &Finding{Domain: "c.gov.ae", Date: 10, VictimCCs: []ipmeta.CountryCode{"AE"}}
	d := &Finding{Domain: "pivot.gov.vn", Date: 10} // no stable: falls back to TLD
	fs := []*Finding{a, b, d, c}
	SortFindings(fs)
	if fs[0] != c || fs[1] != b || fs[2] != a || fs[3] != d {
		t.Fatalf("sort order: %v", fs)
	}
	if fs[0].String() == "" {
		t.Error("empty String")
	}
	if (&Finding{Domain: "x.com"}).TargetName() != "x.com" {
		t.Error("TargetName without sub")
	}
	if victimCountry(d) != "VN" {
		t.Errorf("TLD fallback country = %s", victimCountry(d))
	}
	if victimCountry(&Finding{Domain: "pch.net"}) != "??" {
		t.Error("gTLD fallback country")
	}
}

func TestVerdictOutcomeStrings(t *testing.T) {
	if VerdictHijacked.String() != "hijacked" || VerdictTargeted.String() != "targeted" || VerdictInconclusive.String() != "inconclusive" {
		t.Error("verdict names")
	}
	for o, want := range map[InspectOutcome]string{
		OutcomeHijacked: "hijacked", OutcomeTargeted: "targeted",
		OutcomePendingReuse: "pending-reuse", OutcomeInconclusive: "inconclusive",
		OutcomeNoData: "no-data",
	} {
		if o.String() != want {
			t.Errorf("outcome %d = %s", o, o)
		}
	}
}
