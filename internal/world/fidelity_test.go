package world

import (
	"sync"
	"testing"
	"time"

	"retrodns/internal/core"
	"retrodns/internal/dnscore"
	"retrodns/internal/scanner"
	"retrodns/internal/simtime"
)

// The fidelity tests share one simulated study; building it once keeps the
// suite fast.
var (
	fidelityOnce sync.Once
	fidelityW    *World
	fidelityDS   *scanner.Dataset
	fidelityRes  *core.Result
)

func fidelity(t *testing.T) (*World, *core.Result) {
	t.Helper()
	if testing.Short() {
		t.Skip("full study simulation")
	}
	fidelityOnce.Do(func() {
		fidelityW = New(smallConfig())
		fidelityDS = fidelityW.Run()
		fidelityRes = fidelityW.Pipeline(fidelityDS, 0, nil, nil).Run()
	})
	if len(fidelityW.Errors) != 0 {
		t.Fatalf("world errors: %v", fidelityW.Errors)
	}
	return fidelityW, fidelityRes
}

// TestTable2Fidelity checks every hijacked row against the paper's Table 2
// columns: verdict, identification method, corroboration flags, attacker
// IP/ASN/country, and victim ASNs.
func TestTable2Fidelity(t *testing.T) {
	_, res := fidelity(t)
	byDomain := make(map[dnscore.Name]*core.Finding)
	for _, f := range res.Hijacked {
		byDomain[f.Domain] = f
	}
	if len(res.Hijacked) != len(HijackedRows) {
		t.Errorf("hijacked count = %d, paper reports %d", len(res.Hijacked), len(HijackedRows))
	}
	for _, row := range HijackedRows {
		f := byDomain[row.Domain]
		if f == nil {
			t.Errorf("%s: not identified", row.Domain)
			continue
		}
		if string(f.Method) != string(row.Kind) {
			t.Errorf("%s: method %s, paper %s", row.Domain, f.Method, row.Kind)
		}
		if f.PDNS != row.PDNS {
			t.Errorf("%s: pDNS corroboration %v, paper %v", row.Domain, f.PDNS, row.PDNS)
		}
		if f.CT != row.CT {
			t.Errorf("%s: CT corroboration %v, paper %v", row.Domain, f.CT, row.CT)
		}
		if f.Sub != row.Sub {
			t.Errorf("%s: sub %q, paper %q", row.Domain, f.Sub, row.Sub)
		}
		if f.AttackerIP.String() != row.IP {
			t.Errorf("%s: attacker IP %s, paper %s", row.Domain, f.AttackerIP, row.IP)
		}
		if f.AttackerASN != row.ASN {
			t.Errorf("%s: attacker ASN %v, paper AS%d", row.Domain, f.AttackerASN, row.ASN)
		}
		if f.AttackerCC != row.AttCC {
			t.Errorf("%s: attacker CC %s, paper %s", row.Domain, f.AttackerCC, row.AttCC)
		}
		// Victim infrastructure, for rows that have scannable stable infra.
		if len(row.Victim) > 0 {
			if len(f.VictimASNs) != len(row.Victim) {
				t.Errorf("%s: victim ASNs %v, paper %v", row.Domain, f.VictimASNs, row.Victim)
			}
		} else if len(f.VictimASNs) != 0 {
			t.Errorf("%s: pivot finding has victim ASNs %v", row.Domain, f.VictimASNs)
		}
		// The measured date lands within ±6 weeks of the paper's month
		// (boundary dates are nudged to stay scan-interior).
		paperMid, err := time.Parse("Jan'06", row.Month)
		if err != nil {
			t.Fatal(err)
		}
		want := simtime.FromTime(paperMid.AddDate(0, 0, 14))
		if diff := int(f.Date.Sub(want)); diff < -42 || diff > 42 {
			t.Errorf("%s: date %s, paper %s (Δ %d days)", row.Domain, f.Date, row.Month, diff)
		}
		// The malicious certificate's issuer matches Table 9.
		if row.Issuer != "" && f.IssuerCA != row.Issuer {
			t.Errorf("%s: issuer %q, paper %q", row.Domain, f.IssuerCA, row.Issuer)
		}
		if row.CT && f.CrtShID == 0 {
			t.Errorf("%s: missing crt.sh ID", row.Domain)
		}
	}
}

// TestTable3Fidelity checks the targeted rows.
func TestTable3Fidelity(t *testing.T) {
	_, res := fidelity(t)
	byDomain := make(map[dnscore.Name]*core.Finding)
	for _, f := range res.Targeted {
		byDomain[f.Domain] = f
	}
	if len(res.Targeted) != len(TargetedRows) {
		t.Errorf("targeted count = %d, paper reports %d", len(res.Targeted), len(TargetedRows))
	}
	for _, row := range TargetedRows {
		f := byDomain[row.Domain]
		if f == nil {
			t.Errorf("%s: not identified as targeted", row.Domain)
			continue
		}
		if f.Verdict != core.VerdictTargeted {
			t.Errorf("%s: verdict %s", row.Domain, f.Verdict)
		}
		if f.Method != core.MethodT2 {
			t.Errorf("%s: method %s, targeted rows match pattern T2", row.Domain, f.Method)
		}
		if f.PDNS != row.PDNS {
			t.Errorf("%s: pDNS %v, paper %v", row.Domain, f.PDNS, row.PDNS)
		}
		if f.CT != row.CT {
			t.Errorf("%s: CT %v, paper %v", row.Domain, f.CT, row.CT)
		}
		if f.AttackerIP.String() != row.IP {
			t.Errorf("%s: attacker IP %s, paper %s", row.Domain, f.AttackerIP, row.IP)
		}
		if f.AttackerASN != row.ASN {
			t.Errorf("%s: attacker ASN %v, paper AS%d", row.Domain, f.AttackerASN, row.ASN)
		}
	}
}

// TestCertificateIssuerMix verifies the paper's Table 9 aggregate: of the
// 40 malicious certificates (embassy.ly used none), 28 came from Let's
// Encrypt and 12 from Comodo, and only the Comodo CRL records revocations.
func TestCertificateIssuerMix(t *testing.T) {
	w, _ := fidelity(t)
	issuers := map[string]int{}
	for _, cert := range w.MaliciousCerts() {
		issuers[cert.Issuer]++
	}
	if issuers["Let's Encrypt"] != 28 {
		t.Errorf("Let's Encrypt count = %d, paper 28", issuers["Let's Encrypt"])
	}
	if issuers["Comodo"] != 12 {
		t.Errorf("Comodo count = %d, paper 12", issuers["Comodo"])
	}
	crl, err := w.Comodo.CRL()
	if err != nil {
		t.Fatal(err)
	}
	if len(crl) != 4 {
		t.Errorf("revoked certificates = %d, paper 4", len(crl))
	}
	if _, err := w.LetsEncrypt.CRL(); err == nil {
		t.Error("Let's Encrypt analogue published a CRL; the paper notes it cannot")
	}
}

// TestPopulationClassification checks the benign population lands in the
// right map categories and that no benign domain reaches the verdict lists.
func TestPopulationClassification(t *testing.T) {
	w, res := fidelity(t)
	flagged := make(map[dnscore.Name]bool)
	for _, f := range res.Findings() {
		flagged[f.Domain] = true
	}
	for _, truth := range w.TruthList() {
		switch truth.Kind {
		case "stable", "transition", "noisy", "benign-transient":
			if flagged[truth.Domain] {
				t.Errorf("benign %s domain %s flagged", truth.Kind, truth.Domain)
			}
		}
	}
	// The stable share dominates, as in the paper.
	total := 0
	for _, n := range res.Funnel.DomainCategories {
		total += n
	}
	stable := res.Funnel.DomainCategories[core.CategoryStable]
	if float64(stable)/float64(total) < 0.4 {
		t.Errorf("stable share %.2f unexpectedly low (campaigns dominate the small test world)", float64(stable)/float64(total))
	}
}

// TestObservabilityStats reproduces §5.3: most malicious certificates are
// seen in very few weekly scans, and pDNS evidence of the hijack itself is
// short-lived for about half the victims.
func TestObservabilityStats(t *testing.T) {
	w, res := fidelity(t)
	stats := core.Observability(res.Hijacked, fidelityDS, w.PDNSDB, w.CT)
	if stats.Total == 0 {
		t.Fatal("no hijacked findings to analyze")
	}
	if frac := stats.FracPDNSAtMostOneDay(); frac < 0.35 || frac > 0.75 {
		t.Errorf("pDNS ≤1day fraction %.2f, paper reports 51%%", frac)
	}
	if frac := stats.FracCertSeenWithin8Days(); frac < 0.5 {
		t.Errorf("cert-visible-within-8-days fraction %.2f, paper reports >50%%", frac)
	}
	if frac := stats.FracSeenInOneScan(); frac < 0.4 {
		t.Errorf("one-scan fraction %.2f, paper reports >50%%", frac)
	}
}

// TestDNSSECDowngradeSignal verifies the §7.1 extension: signed victims
// attacked at the registry level show a Secure→Insecure downgrade exactly
// bracketing the hijack, while victims attacked through their DNS
// provider's account stay "secure" throughout — DNSSEC sees nothing when
// the signer itself is compromised.
func TestDNSSECDowngradeSignal(t *testing.T) {
	w, res := fidelity(t)
	monitored := w.SecLog.Domains()
	if len(monitored) == 0 {
		t.Fatal("no domains monitored")
	}
	byDomain := make(map[dnscore.Name]*core.Finding)
	for _, f := range res.Findings() {
		byDomain[f.Domain] = f
	}
	downgraded, steady := 0, 0
	for _, domain := range monitored {
		truth := w.Truth[domain]
		if truth == nil {
			t.Errorf("monitored non-victim %s", domain)
			continue
		}
		changes := w.SecLog.Changes(domain)
		f := byDomain[domain]
		switch truth.Method {
		case "T1", "T2", "P-NS":
			// Registry-level attack on a signed zone: DS stripped →
			// downgrade, later restored.
			hasDowngrade := false
			for _, c := range changes {
				if c.IsDowngrade() {
					hasDowngrade = true
				}
			}
			if !hasDowngrade {
				t.Errorf("%s (%s): signed registry-level victim shows no downgrade (changes: %v)",
					domain, truth.Method, changes)
				continue
			}
			downgraded++
			// The map-flagged findings carry the extra corroboration bit.
			if (truth.Method == "T1" || truth.Method == "T2") && f != nil && !f.DNSSECChange {
				t.Errorf("%s: finding lacks DNSSECChange annotation", domain)
			}
		case "P-IP":
			// Provider-account attack: the attacker re-signs with the
			// provider's key; the chain never wavers.
			if len(changes) != 0 {
				t.Errorf("%s: provider-path victim shows DNSSEC changes: %v", domain, changes)
				continue
			}
			steady++
		case "TAR":
			// Preludes never touch DNS.
			if len(changes) != 0 {
				t.Errorf("%s: targeted prelude shows DNSSEC changes: %v", domain, changes)
			}
		}
	}
	if downgraded == 0 || steady == 0 {
		t.Errorf("signal coverage too thin: %d downgraded, %d steady", downgraded, steady)
	}
	t.Logf("monitored=%d downgraded=%d provider-path-steady=%d", len(monitored), downgraded, steady)
}

// TestZoneFileInvisibility reproduces §5.3's zone-file observations: of
// the three victims under zone-file-covered TLDs, the hijack is invisible
// in the daily snapshots for two (ocom.com, netnod.se — delegation
// switched and reverted between snapshots) and visible for exactly one
// day for pch.net, even though passive DNS captured all three.
func TestZoneFileInvisibility(t *testing.T) {
	w, res := fidelity(t)
	byDomain := make(map[dnscore.Name]*core.Finding)
	for _, f := range res.Hijacked {
		byDomain[f.Domain] = f
	}
	want := map[dnscore.Name]int{"ocom.com": 0, "netnod.se": 0, "pch.net": 1}
	for domain, wantDays := range want {
		f := byDomain[domain]
		if f == nil {
			t.Errorf("%s not identified", domain)
			continue
		}
		if !w.ZoneFiles.Covers(domain) {
			t.Errorf("%s TLD not covered by the archive", domain)
			continue
		}
		got := w.ZoneFiles.VisibleAnomalyDays(domain, f.Date-40, f.Date+40)
		if got != wantDays {
			t.Errorf("%s: hijack visible in %d daily zone files, paper observed %d", domain, got, wantDays)
		}
		if !f.PDNS {
			t.Errorf("%s: passive DNS missed what it should capture", domain)
		}
	}
	// Sanity: an uncovered victim reports zero regardless.
	if got := w.ZoneFiles.VisibleAnomalyDays("mfa.gov.kg", 0, simtime.StudyEnd); got != 0 {
		t.Errorf("uncovered TLD reported %d visible days", got)
	}
}
