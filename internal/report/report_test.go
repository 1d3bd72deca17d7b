package report

import (
	"net/netip"
	"regexp"
	"strings"
	"testing"

	"retrodns/internal/core"
	"retrodns/internal/dnscore"
	"retrodns/internal/ipmeta"
	"retrodns/internal/obsv"
	"retrodns/internal/scanner"
	"retrodns/internal/simtime"
	"retrodns/internal/x509lite"
	"retrodns/internal/zonefiles"
)

var key = x509lite.NewSigningKey("report-test", 3)

func testCert(serial uint64, sans ...dnscore.Name) *x509lite.Certificate {
	c := &x509lite.Certificate{
		Serial: serial, Subject: sans[0], SANs: sans,
		Issuer: "Let's Encrypt", NotBefore: 0, NotAfter: simtime.StudyEnd,
		Method: x509lite.ValidationDNS01,
	}
	key.Sign(c)
	return c
}

func testDataset(reg *obsv.Registry) *scanner.Dataset {
	ds := scanner.NewDataset()
	ds.SetMetrics(reg)
	stable := testCert(1, "mail.kyvernisi.gr")
	evil := testCert(2, "mail.kyvernisi.gr")
	scans := simtime.ScansInPeriod(0)
	for _, d := range scans {
		recs := []*scanner.Record{{
			ScanDate: d, IP: netip.MustParseAddr("84.205.248.69"),
			Ports: []uint16{443, 993, 995}, ASN: 35506, Country: "GR",
			Cert: stable, CrtShID: 1245068498, Trusted: true, Sensitive: true,
		}}
		if d == scans[13] {
			recs = append(recs, &scanner.Record{
				ScanDate: d, IP: netip.MustParseAddr("95.179.131.225"),
				Ports: []uint16{993}, ASN: 20473, Country: "NL",
				Cert: evil, CrtShID: 1394170951, Trusted: true, Sensitive: true,
			})
		}
		ds.AddScan(d, recs)
	}
	return ds
}

func testFindings() (hijacked, targeted []*core.Finding) {
	hijacked = []*core.Finding{
		{
			Domain: "kyvernisi.gr", Sub: "mail", Method: core.MethodT1,
			Verdict: core.VerdictHijacked, Date: simtime.MustParse("2019-04-23"),
			PDNS: true, CT: true,
			AttackerIP: netip.MustParseAddr("95.179.131.225"), AttackerASN: 20473, AttackerCC: "NL",
			VictimASNs: []ipmeta.ASN{35506}, VictimCCs: []ipmeta.CountryCode{"GR"},
			CrtShID: 1394170951, IssuerCA: "Let's Encrypt",
		},
		{
			Domain: "pch.net", Sub: "keriomail", Method: core.MethodPivotNS,
			Verdict: core.VerdictHijacked, Date: simtime.MustParse("2018-12-10"),
			PDNS: true, CT: true,
			AttackerIP: netip.MustParseAddr("159.89.101.204"), AttackerASN: 14061, AttackerCC: "DE",
			CrtShID: 1075482666, IssuerCA: "Comodo",
		},
		{
			Domain: "embassy.ly", Method: core.MethodPivotIP,
			Verdict: core.VerdictHijacked, Date: simtime.MustParse("2018-10-15"),
			PDNS: true, AttackerIP: netip.MustParseAddr("188.166.119.57"),
			AttackerASN: 14061, AttackerCC: "NL",
		},
	}
	targeted = []*core.Finding{
		{
			Domain: "parlament.ch", Method: core.MethodT2,
			Verdict: core.VerdictTargeted, Date: simtime.MustParse("2020-06-15"),
			AttackerIP: netip.MustParseAddr("8.210.146.182"), AttackerASN: 45102, AttackerCC: "SG",
			VictimASNs: []ipmeta.ASN{61098, 3303}, VictimCCs: []ipmeta.CountryCode{"CH"},
		},
	}
	return hijacked, targeted
}

func TestTable1(t *testing.T) {
	ds := testDataset(nil)
	out := Table1(ds, "kyvernisi.gr", 0, simtime.Period(0).End())
	for _, want := range []string{"84.205.248.69", "95.179.131.225", "35506", "20473", "1394170951", "mail.kyvernisi.gr"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table1 missing %q:\n%s", want, out)
		}
	}
	if n := strings.Count(out, "\n"); n < 5 {
		t.Errorf("Table1 rows = %d", n)
	}
}

func TestDeploymentMapFigure(t *testing.T) {
	ds := testDataset(nil)
	m := core.BuildMap(ds, "kyvernisi.gr", 0)
	scans := ds.ScanDates(0, simtime.Period(0).End())
	out := DeploymentMapFigure(m, scans)
	if !strings.Contains(out, "kyvernisi.gr") {
		t.Error("missing domain")
	}
	// Two deployments: one solid row, one with a single '#'.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("figure lines = %d:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[1], "#########") {
		t.Errorf("stable row not solid: %s", lines[1])
	}
	// Count scan cells between the pipes (the row label also contains '#').
	cells := lines[2][strings.Index(lines[2], "|"):]
	if strings.Count(cells, "#") != 1 {
		t.Errorf("transient row should have exactly one scan: %s", lines[2])
	}
}

func TestPatternGallery(t *testing.T) {
	ds := testDataset(nil)
	out := PatternGallery(ds, core.DefaultParams(), map[string]dnscore.Name{
		"T1 example": "kyvernisi.gr",
		"absent":     "ghost.example.com",
	})
	if !strings.Contains(out, "classified transient (pattern T1)") {
		t.Errorf("gallery missed the T1 pattern:\n%s", out)
	}
	if !strings.Contains(out, "no data") {
		t.Error("gallery should report missing domains")
	}
}

func TestVictimTables(t *testing.T) {
	hij, tar := testFindings()
	out2 := Table2(hij)
	for _, want := range []string{"T1", "P-NS", "P-IP", "kyvernisi.gr", "pch.net", "embassy.ly", "Apr'19", "GR", "--"} {
		if !strings.Contains(out2, want) {
			t.Errorf("Table2 missing %q:\n%s", want, out2)
		}
	}
	// Pivot findings with no stable infra show dashes.
	if !strings.Contains(out2, "-") {
		t.Error("Table2 missing dash placeholders")
	}
	out3 := Table3(tar)
	if !strings.Contains(out3, "parlament.ch") || !strings.Contains(out3, "T2") {
		t.Errorf("Table3 wrong:\n%s", out3)
	}
}

func TestTable4Sectors(t *testing.T) {
	hij, tar := testFindings()
	out := Table4(hij, tar, map[dnscore.Name]string{
		"kyvernisi.gr": "Government Internet Services",
		"pch.net":      "Infrastructure Provider",
		"embassy.ly":   "Government Organization",
		"parlament.ch": "Government Organization",
	})
	for _, want := range []string{`Government Organization\s+1\s+1\s+2`, `Total\s+3\s+1\s+4`} {
		if !regexp.MustCompile(want).MatchString(out) {
			t.Errorf("Table4 missing %q:\n%s", want, out)
		}
	}
}

func TestTable5Networks(t *testing.T) {
	hij, tar := testFindings()
	orgs := ipmeta.NewOrgTable()
	orgs.Assign(14061, "Digital Ocean", "do")
	orgs.Assign(20473, "Vultr", "vultr")
	orgs.Assign(45102, "Alibaba", "alibaba")
	out := Table5(hij, tar, orgs)
	if !regexp.MustCompile(`Digital Ocean\s+2\s+0\s+2`).MatchString(out) {
		t.Errorf("Table5 DO row wrong:\n%s", out)
	}
	if !regexp.MustCompile(`Alibaba\s+0\s+1\s+1`).MatchString(out) {
		t.Errorf("Table5 Alibaba row wrong:\n%s", out)
	}
	// Works without an org table too.
	if Table5(hij, tar, nil) == "" {
		t.Error("Table5 without orgs empty")
	}
}

func TestTable9Certificates(t *testing.T) {
	hij, _ := testFindings()
	out := Table9(hij, func(f *core.Finding) (bool, bool) {
		if f.IssuerCA == "Comodo" {
			return true, true
		}
		return false, false
	})
	for _, want := range []string{"1394170951", "1075482666", "issuer Comodo: 1", "issuer Let's Encrypt: 1", "revoked: 1"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table9 missing %q:\n%s", want, out)
		}
	}
	// embassy.ly has no certificate: rendered with dashes.
	if !strings.Contains(out, "embassy.ly") {
		t.Error("Table9 dropped the no-cert victim")
	}
}

func TestFunnelReport(t *testing.T) {
	res := &core.Result{
		Funnel: core.FunnelStats{
			Domains: 100, Maps: 500,
			DomainCategories: map[core.Category]int{
				core.CategoryStable: 96, core.CategoryTransition: 3, core.CategoryTransient: 1,
			},
			PruneCounts: map[core.PruneReason]int{core.PruneSameOrg: 2},
			Outcomes:    map[core.InspectOutcome]int{core.OutcomeHijacked: 1},
			ByMethod:    map[core.Method]int{core.MethodT1: 1},
			Shortlisted: 1, WorthExamining: 1,
		},
		Hijacked: []*core.Finding{{Domain: "x.gov.kg"}},
	}
	out := Funnel(res)
	for _, want := range []string{"96.00%", "shortlisted: 1", "T1=1", "hijacked=1"} {
		if !strings.Contains(out, want) {
			t.Errorf("Funnel missing %q:\n%s", want, out)
		}
	}
}

func TestObservabilityReport(t *testing.T) {
	stats := core.ObservabilityStats{
		Total:           4,
		PDNSDays:        []int{1, 1, 5, 20},
		CertDelayDays:   []int{3, 6, 10},
		ScanAppearances: []int{1, 1, 2, 5},
	}
	out := ObservabilityReport(stats)
	for _, want := range []string{"50%", "observability over 4"} {
		if !strings.Contains(out, want) {
			t.Errorf("observability missing %q:\n%s", want, out)
		}
	}
}

func TestZoneFileReport(t *testing.T) {
	archive := zonefiles.NewArchive("net")
	legit := []zonefiles.Delegation{{Domain: "pch.net", NS: []dnscore.Name{"ns1.pch.net"}}}
	evil := []zonefiles.Delegation{{Domain: "pch.net", NS: []dnscore.Name{"ns1.evil.net"}}}
	for d := simtime.Date(0); d < 40; d++ {
		snap := legit
		if d == 20 {
			snap = evil
		}
		archive.Snapshot("net", d, snap)
	}
	hij, _ := testFindings() // includes pch.net with Date Dec'18
	// Align the finding date to the archive window for the report.
	for _, f := range hij {
		if f.Domain == "pch.net" {
			f.Date = 20
		}
	}
	out := ZoneFileReport(hij, archive)
	if !strings.Contains(out, "pch.net") {
		t.Fatalf("report missing pch.net:\n%s", out)
	}
	if !regexp.MustCompile(`pch.net\s+1\s+Y`).MatchString(out) {
		t.Errorf("pch.net row wrong:\n%s", out)
	}
	// kyvernisi.gr and embassy.ly are under uncovered TLDs: absent.
	if strings.Contains(out, "kyvernisi.gr") {
		t.Error("uncovered domain reported")
	}
	empty := ZoneFileReport(nil, archive)
	if !strings.Contains(empty, "no hijacked domains") {
		t.Error("empty case not handled")
	}
}
