package core

import (
	"fmt"
	"net/netip"
	"reflect"
	"runtime"
	"testing"

	"retrodns/internal/ctlog"
	"retrodns/internal/dnscore"
	"retrodns/internal/ipmeta"
	"retrodns/internal/pdns"
	"retrodns/internal/scanner"
	"retrodns/internal/simtime"
	"retrodns/internal/x509lite"
)

// worldScan is one scan of the fabricated pipeline world, in date order —
// the replayable form the incremental tests feed through Dataset.Append
// one scan at a time.
type worldScan struct {
	date simtime.Date
	recs []*scanner.Record
}

// pipelineWorldData fabricates the multi-domain scan series and evidence
// sources over periods 0–2:
//
//   - 10 stable domains;
//   - 1 transition domain (provider switch in period 1);
//   - 1 T1 hijack victim (hijack in period 1, pDNS + CT corroborated);
//   - 1 T1 victim with no pDNS, sharing the attacker IP (T1* promotion);
//   - 1 T2 prelude victim (truly anomalous, targeted);
//   - 1 pivot-only victim visible exclusively in pDNS (P-NS);
//   - 1 benign-transient domain pruned for same-country.
func pipelineWorldData(t *testing.T) ([]worldScan, *pdns.DB, *ctlog.Log, *ipmeta.Directory) {
	t.Helper()
	db := pdns.NewDB()
	log := ctlog.NewLog("sim", 5000)
	meta := ipmeta.NewDirectory()
	meta.Prefixes.MustAnnounce("84.205.0.0/16", 35506)
	meta.Geo.MustAddPrefix("84.205.0.0/16", "GR")
	meta.Prefixes.MustAnnounce("95.179.128.0/18", 20473)
	meta.Geo.MustAddPrefix("95.179.128.0/18", "NL")
	meta.Prefixes.MustAnnounce("178.20.41.0/24", 48282)
	meta.Geo.MustAddPrefix("178.20.41.0/24", "RU")

	periods := []simtime.Period{0, 1, 2}
	p1 := simtime.Period(1)
	scansP1 := simtime.ScansInPeriod(1)
	hijackScan := scansP1[len(scansP1)/2]

	// Certificates.
	type domainSpec struct {
		domain dnscore.Name
		ip     string
		asn    ipmeta.ASN
		cc     ipmeta.CountryCode
	}
	var stableSpecs []domainSpec
	stableCert := make(map[dnscore.Name]*x509lite.Certificate)
	for i := 0; i < 10; i++ {
		d := dnscore.Name(fmt.Sprintf("stable%d.com", i))
		stableSpecs = append(stableSpecs, domainSpec{
			domain: d,
			ip:     fmt.Sprintf("84.205.1.%d", i+1), asn: 35506, cc: "GR",
		})
		stableCert[d] = cert(uint64(100+i), "www."+d)
	}

	victimT1 := cert(201, "mail.victim-t1.gov.kg")
	evilT1 := cert(301, "mail.victim-t1.gov.kg")
	evilT1.NotBefore, evilT1.NotAfter = hijackScan-3, hijackScan+87
	coreKey.Sign(evilT1)

	victimT1s := cert(202, "mail.victim-t1s.gov.kg")
	evilT1s := cert(302, "mail.victim-t1s.gov.kg")
	evilT1s.NotBefore, evilT1s.NotAfter = hijackScan-2, hijackScan+88
	coreKey.Sign(evilT1s)

	victimT2 := cert(203, "mail.victim-t2.gov.kg")
	transitionOld := cert(204, "www.mover.com")
	transitionNew := cert(205, "www.mover.com")
	benignT := cert(206, "mail.benign.com")
	benignTNew := cert(306, "mail.benign.com")
	benignTNew.NotBefore, benignTNew.NotAfter = hijackScan-3, hijackScan+87
	coreKey.Sign(benignTNew)

	for _, c := range []*x509lite.Certificate{victimT1, evilT1, victimT1s, evilT1s, victimT2, benignTNew} {
		if _, err := log.Submit(c, c.NotBefore); err != nil {
			t.Fatal(err)
		}
	}

	// Scans.
	var scans []worldScan
	for _, period := range periods {
		for _, d := range simtime.ScansInPeriod(period) {
			var recs []*scanner.Record
			for _, s := range stableSpecs {
				recs = append(recs, rec(d, s.ip, s.asn, s.cc, stableCert[s.domain]))
			}
			// Transition domain: AS35506 in period 0 and first half of 1,
			// then AS20473 from mid period 1 on.
			if d < p1.Start()+simtime.DaysPerPeriod/2 {
				recs = append(recs, rec(d, "84.205.2.1", 35506, "GR", transitionOld))
			} else {
				recs = append(recs, rec(d, "95.179.2.1", 20473, "NL", transitionNew))
			}
			// Victims' stable deployments.
			recs = append(recs, rec(d, "84.205.3.1", 35506, "GR", victimT1))
			recs = append(recs, rec(d, "84.205.3.2", 35506, "GR", victimT1s))
			recs = append(recs, rec(d, "84.205.3.3", 35506, "GR", victimT2))
			recs = append(recs, rec(d, "84.205.3.4", 35506, "GR", benignT))
			// Transients on the hijack scan.
			if d == hijackScan {
				recs = append(recs, rec(d, "95.179.131.225", 20473, "NL", evilT1))
				recs = append(recs, rec(d, "95.179.131.225", 20473, "NL", evilT1s))
				recs = append(recs, rec(d, "95.179.131.226", 20473, "NL", victimT2)) // proxy: stable cert
				// Benign transient: same country as stable → pruned.
				recs = append(recs, rec(d, "84.205.9.9", 64999, "GR", benignTNew))
			}
			scans = append(scans, worldScan{date: d, recs: recs})
		}
	}

	// Passive DNS.
	baseline := func(domain dnscore.Name, mail string, ip string) {
		db.Record(0, domain, dnscore.TypeNS, "ns1."+string(domain))
		db.Record(simtime.StudyEnd-1, domain, dnscore.TypeNS, "ns1."+string(domain))
		db.Record(0, dnscore.Name(mail), dnscore.TypeA, ip)
		db.Record(simtime.StudyEnd-1, dnscore.Name(mail), dnscore.TypeA, ip)
	}
	baseline("victim-t1.gov.kg", "mail.victim-t1.gov.kg", "84.205.3.1")
	baseline("victim-t1s.gov.kg", "mail.victim-t1s.gov.kg", "84.205.3.2")
	baseline("victim-t2.gov.kg", "mail.victim-t2.gov.kg", "84.205.3.3")
	// T1 hijack trail: delegation change + one-day redirection.
	db.Record(hijackScan-2, "victim-t1.gov.kg", dnscore.TypeNS, "ns1.kg-infocom.ru")
	db.Record(hijackScan-1, "mail.victim-t1.gov.kg", dnscore.TypeA, "95.179.131.225")
	// T2 prelude trail: redirection to the proxy.
	db.Record(hijackScan-1, "mail.victim-t2.gov.kg", dnscore.TypeA, "95.179.131.226")
	// Pivot-only victim: delegated to the same attacker NS; fresh
	// resolution in the attacker AS. No scan records at all.
	db.Record(hijackScan+3, "pivot-victim.gov.kg", dnscore.TypeNS, "ns1.kg-infocom.ru")
	db.Record(hijackScan+3, "mail.pivot-victim.gov.kg", dnscore.TypeA, "178.20.41.140")

	return scans, db, log, meta
}

// buildPipelineWorld loads the fabricated world into a bulk-ingested
// dataset, the way a cold retroactive run consumes it.
func buildPipelineWorld(t *testing.T) *Pipeline {
	t.Helper()
	scans, db, log, meta := pipelineWorldData(t)
	ds := scanner.NewDataset()
	for _, s := range scans {
		ds.AddScan(s.date, s.recs)
	}
	return &Pipeline{Params: DefaultParams(), Dataset: ds, Meta: meta, PDNS: db, CT: log}
}

func TestPipelineEndToEnd(t *testing.T) {
	p := buildPipelineWorld(t)
	res := p.Run()

	// Funnel sanity.
	if res.Funnel.Domains != 15 {
		t.Errorf("domains = %d", res.Funnel.Domains)
	}
	if res.Funnel.DomainCategories[CategoryStable] < 10 {
		t.Errorf("stable domains = %d", res.Funnel.DomainCategories[CategoryStable])
	}
	if res.Funnel.DomainCategories[CategoryTransient] != 4 {
		t.Errorf("transient domains = %d", res.Funnel.DomainCategories[CategoryTransient])
	}
	if res.Funnel.DomainCategories[CategoryTransition] != 1 {
		t.Errorf("transition domains = %d", res.Funnel.DomainCategories[CategoryTransition])
	}
	if res.Funnel.PruneCounts[PruneSameCountry] != 1 {
		t.Errorf("same-country prunes = %d (%v)", res.Funnel.PruneCounts[PruneSameCountry], res.Funnel.PruneCounts)
	}
	if res.Funnel.Shortlisted != 3 {
		t.Errorf("shortlisted = %d", res.Funnel.Shortlisted)
	}

	byDomain := map[dnscore.Name]*Finding{}
	for _, f := range res.Findings() {
		byDomain[f.Domain] = f
	}

	// T1 victim: hijacked with full corroboration.
	f := byDomain["victim-t1.gov.kg"]
	if f == nil || f.Verdict != VerdictHijacked || f.Method != MethodT1 || !f.PDNS || !f.CT {
		t.Fatalf("T1 finding: %+v", f)
	}
	// T1* victim: promoted through attacker-IP reuse.
	f = byDomain["victim-t1s.gov.kg"]
	if f == nil || f.Verdict != VerdictHijacked || f.Method != MethodT1Star {
		t.Fatalf("T1* finding: %+v", f)
	}
	// T2 victim: redirection without suspicious certificate → targeted.
	f = byDomain["victim-t2.gov.kg"]
	if f == nil || f.Verdict != VerdictTargeted || f.Method != MethodT2 {
		t.Fatalf("T2 finding: %+v", f)
	}
	// Pivot victim: found only through pDNS.
	f = byDomain["pivot-victim.gov.kg"]
	if f == nil || f.Verdict != VerdictHijacked || f.Method != MethodPivotNS {
		t.Fatalf("pivot finding: %+v", f)
	}
	if f.AttackerIP != netip.MustParseAddr("178.20.41.140") || f.AttackerASN != 48282 {
		t.Errorf("pivot attacker infra: %v %v", f.AttackerIP, f.AttackerASN)
	}
	// The benign transient must NOT be flagged.
	if byDomain["benign.com"] != nil {
		t.Error("benign transient flagged")
	}
	if byDomain["mover.com"] != nil {
		t.Error("transition domain flagged")
	}

	if res.Funnel.ByMethod[MethodT1] != 1 || res.Funnel.ByMethod[MethodT1Star] != 1 || res.Funnel.ByMethod[MethodPivotNS] != 1 {
		t.Errorf("ByMethod = %v", res.Funnel.ByMethod)
	}
	if res.Funnel.PivotFound != 1 {
		t.Errorf("PivotFound = %d", res.Funnel.PivotFound)
	}
	if len(res.Hijacked) != 3 || len(res.Targeted) != 1 {
		t.Errorf("hijacked=%d targeted=%d", len(res.Hijacked), len(res.Targeted))
	}
	if s := res.Funnel.String(); s == "" {
		t.Error("funnel string empty")
	}
}

func TestPipelineDefaultParams(t *testing.T) {
	// A zero Params struct falls back to the paper defaults.
	p := buildPipelineWorld(t)
	p.Params = Params{}
	res := p.Run()
	if len(res.Hijacked) == 0 {
		t.Fatal("default-params run found nothing")
	}
}

// requireIdenticalResults asserts that two pipeline runs produced the
// same findings, funnel, history, and candidate list — everything except
// Stats, which records execution timings.
func requireIdenticalResults(t *testing.T, a, b *Result) {
	t.Helper()
	if !reflect.DeepEqual(a.Funnel, b.Funnel) {
		t.Errorf("funnels differ:\n%v\nvs\n%v", a.Funnel, b.Funnel)
	}
	if !reflect.DeepEqual(a.History, b.History) {
		t.Error("histories differ")
	}
	renderFindings := func(fs []*Finding) []string {
		out := make([]string, len(fs))
		for i, f := range fs {
			out[i] = f.String()
		}
		return out
	}
	if got, want := renderFindings(a.Hijacked), renderFindings(b.Hijacked); !reflect.DeepEqual(got, want) {
		t.Errorf("hijacked differ:\n%v\nvs\n%v", got, want)
	}
	if got, want := renderFindings(a.Targeted), renderFindings(b.Targeted); !reflect.DeepEqual(got, want) {
		t.Errorf("targeted differ:\n%v\nvs\n%v", got, want)
	}
	if len(a.Candidates) != len(b.Candidates) {
		t.Fatalf("candidate counts differ: %d vs %d", len(a.Candidates), len(b.Candidates))
	}
	for i := range a.Candidates {
		if a.Candidates[i].String() != b.Candidates[i].String() {
			t.Errorf("candidate %d differs: %s vs %s", i, a.Candidates[i], b.Candidates[i])
		}
	}
}

// TestPipelineDeterminism runs the same seeded world serially and with an
// 8-way worker pool and requires identical results — the guarantee that
// lets the Workers knob be purely an execution detail. The stitching
// variant exercises the stitchDomain fan-out too. Run under -race by the
// ci target.
func TestPipelineDeterminism(t *testing.T) {
	for _, stitch := range []bool{false, true} {
		run := func(workers int) *Result {
			p := buildPipelineWorld(t)
			p.Params.StitchPeriods = stitch
			p.Workers = workers
			return p.Run()
		}
		serial := run(1)
		parallel := run(8)
		requireIdenticalResults(t, serial, parallel)
		if serial.Stats.Workers != 1 || parallel.Stats.Workers != 8 {
			t.Errorf("stats workers = %d, %d", serial.Stats.Workers, parallel.Stats.Workers)
		}
	}
}

func TestPipelineStageStats(t *testing.T) {
	p := buildPipelineWorld(t)
	res := p.Run()
	if res.Stats.Workers != runtime.GOMAXPROCS(0) {
		t.Errorf("default workers = %d, want GOMAXPROCS=%d", res.Stats.Workers, runtime.GOMAXPROCS(0))
	}
	if res.Stats.Total <= 0 {
		t.Error("total wall time not recorded")
	}
	for _, name := range []string{"freeze", "classify", "shortlist", "inspect", "pivot"} {
		s := res.Stats.Stage(name)
		if s.Name != name {
			t.Errorf("stage %q missing from %v", name, res.Stats.Stages)
		}
	}
	if got := res.Stats.Stage("classify").Items; got != res.Funnel.Maps {
		t.Errorf("classify items = %d, want maps = %d", got, res.Funnel.Maps)
	}
	if got := res.Stats.Stage("inspect").Items; got != res.Funnel.Shortlisted {
		t.Errorf("inspect items = %d, want shortlisted = %d", got, res.Funnel.Shortlisted)
	}
	if s := res.Stats.String(); s == "" {
		t.Error("stats string empty")
	}
	if !p.Dataset.Frozen() {
		t.Error("Run did not freeze the dataset")
	}
}

func TestParamsIsZero(t *testing.T) {
	if !(Params{}).IsZero() {
		t.Error("zero Params not IsZero")
	}
	if DefaultParams().IsZero() {
		t.Error("DefaultParams IsZero")
	}
	if (Params{StitchPeriods: true}).IsZero() {
		t.Error("StitchPeriods-only Params IsZero")
	}
	if (Params{MinPresence: 0.5}).IsZero() {
		t.Error("MinPresence-only Params IsZero")
	}
}

func TestRollupCategory(t *testing.T) {
	cases := []struct {
		in   map[simtime.Period]Category
		want Category
	}{
		{map[simtime.Period]Category{0: CategoryStable, 1: CategoryStable}, CategoryStable},
		{map[simtime.Period]Category{0: CategoryStable, 1: CategoryTransient}, CategoryTransient},
		{map[simtime.Period]Category{0: CategoryTransition, 1: CategoryStable}, CategoryTransition},
		{map[simtime.Period]Category{0: CategoryNoisy, 1: CategoryNoisy, 2: CategoryStable}, CategoryNoisy},
		{map[simtime.Period]Category{0: CategoryNoisy, 1: CategoryStable, 2: CategoryStable}, CategoryStable},
		{map[simtime.Period]Category{}, CategoryNoisy},
		// Tie pin: "majority-noisy" means strictly more than half. An exact
		// half-noisy split keeps the domain usable — the paper's §4.2 split
		// (96.5% stable / 2.95% transition / 0.13% transient / 0.35% noisy)
		// would be unreachable if every half-noisy history counted noisy.
		{map[simtime.Period]Category{0: CategoryNoisy, 1: CategoryStable}, CategoryStable},
		{map[simtime.Period]Category{0: CategoryNoisy, 1: CategoryNoisy, 2: CategoryStable, 3: CategoryStable}, CategoryStable},
		{map[simtime.Period]Category{0: CategoryNoisy, 1: CategoryNoisy, 2: CategoryNoisy, 3: CategoryStable}, CategoryNoisy},
		{map[simtime.Period]Category{0: CategoryNoisy}, CategoryNoisy},
	}
	for i, c := range cases {
		if got := categories(c.in).rollup(); got != c.want {
			t.Errorf("case %d: rollup = %s, want %s", i, got, c.want)
		}
	}
}
