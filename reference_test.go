package retrodns_bench

import (
	"slices"
	"sort"

	"retrodns/internal/core"
	"retrodns/internal/dnscore"
	"retrodns/internal/ipmeta"
	"retrodns/internal/scanner"
	"retrodns/internal/simtime"
)

// The reference pipeline: the paper's five methodology steps (PAPER.md §4)
// written plainly, on one goroutine, from the raw weekly scans. It shares
// no mechanism with the production engine — no scanner.Dataset, shard,
// view, window cursor, prefetch, arena or classify cache — and calls only
// the exported rules: Params.Classify and Params.Stitch, Shortlister,
// Inspector, Pivoter, PromoteReuse and SortFindings. configurations_test.go
// holds every execution configuration of core.Pipeline to its output, so a
// plumbing bug two optimized configurations share still shows.

// studyInput is what the methodology consumes: the weekly scans as the
// scanner produced them, and the evidence sources §4.4 inspects and §4.5
// pivots over. Any source may be nil.
type studyInput struct {
	dates []simtime.Date
	scans [][]*scanner.Record // scans[i] was taken on dates[i]
	src   core.Sources
}

// prefix is the study cut after its first n scans (in date order).
func (s *studyInput) prefix(n int) *studyInput {
	cut := *s
	cut.dates, cut.scans = s.dates[:n], s.scans[:n]
	return &cut
}

// referenceRecords is step 1's input: every record scanner.ValidateRecord
// accepts, filed under each registered domain its certificate secures and
// sorted by scan date (ties keep the order the scans were taken in); the
// study's scan dates, sorted; and how many rows the ingest gate refuses —
// each invalid record, and each scan dated outside the study.
func referenceRecords(s *studyInput) (byDomain map[dnscore.Name][]*scanner.Record, dates []simtime.Date, refused int) {
	order := make([]int, len(s.dates))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return s.dates[order[a]] < s.dates[order[b]] })
	byDomain = map[dnscore.Name][]*scanner.Record{}
	for _, i := range order {
		if s.dates[i].InStudy() {
			dates = append(dates, s.dates[i])
		} else {
			refused++
		}
		for _, r := range s.scans[i] {
			if _, _, ok := scanner.ValidateRecord(r); !ok {
				refused++
				continue
			}
			var filed []dnscore.Name
			for _, san := range r.Cert.SANs {
				if apex := san.RegisteredDomain(); apex != "" && !slices.Contains(filed, apex) {
					filed = append(filed, apex)
					byDomain[apex] = append(byDomain[apex], r)
				}
			}
		}
	}
	for _, recs := range byDomain {
		sort.SliceStable(recs, func(a, b int) bool { return recs[a].ScanDate < recs[b].ScanDate })
	}
	return byDomain, dates, refused
}

// referenceMap is step 1 (§4.1) for one domain and period: the period's
// records grouped into one deployment per origin AS, in order of first
// appearance (records arrive in date order), each with its sorted IPs and
// countries, its distinct certificates by fingerprint in first-seen order,
// its records and its distinct scan dates. Nil when the domain has no
// record in the period.
func referenceMap(domain dnscore.Name, period simtime.Period, recs []*scanner.Record, scans []simtime.Date) *core.DeploymentMap {
	m := &core.DeploymentMap{Domain: domain, Period: period, TotalScans: len(scans)}
	byASN := map[ipmeta.ASN]*core.Deployment{}
	present := map[simtime.Date]bool{}
	for _, r := range recs {
		if !period.Contains(r.ScanDate) {
			continue
		}
		present[r.ScanDate] = true
		d := byASN[r.ASN]
		if d == nil {
			d = &core.Deployment{ASN: r.ASN}
			byASN[r.ASN] = d
			m.Deployments = append(m.Deployments, d)
		}
		if !slices.Contains(d.IPs, r.IP) {
			d.IPs = append(d.IPs, r.IP)
		}
		if !slices.Contains(d.Countries, r.Country) {
			d.Countries = append(d.Countries, r.Country)
		}
		fp := r.Cert.Fingerprint()
		if !slices.ContainsFunc(d.Certs, func(c core.CertObs) bool { return c.FP == fp }) {
			d.Certs = append(d.Certs, core.CertObs{FP: fp, Cert: r.Cert})
		}
		d.Records = append(d.Records, r)
		if !slices.Contains(d.ScanDates, r.ScanDate) {
			d.ScanDates = append(d.ScanDates, r.ScanDate)
		}
	}
	if len(m.Deployments) == 0 {
		return nil
	}
	m.PresentScans = len(present)
	for _, d := range m.Deployments {
		sort.Slice(d.IPs, func(a, b int) bool { return d.IPs[a].Less(d.IPs[b]) })
		slices.Sort(d.Countries)
	}
	return m
}

// referenceRollup is the paper's domain-level label (§4.2): any transient
// period makes the domain transient, else any transition period makes it
// a transition, else a strict majority of noisy periods makes it noisy;
// it is stable otherwise, and noisy with no classified period at all.
func referenceRollup(h core.PeriodCategories) core.Category {
	count := map[core.Category]int{}
	n := 0
	for p := simtime.Period(0); p < simtime.NumPeriods; p++ {
		if c, ok := h.At(p); ok {
			count[c]++
			n++
		}
	}
	switch {
	case n == 0:
		return core.CategoryNoisy
	case count[core.CategoryTransient] > 0:
		return core.CategoryTransient
	case count[core.CategoryTransition] > 0:
		return core.CategoryTransition
	case 2*count[core.CategoryNoisy] > n:
		return core.CategoryNoisy
	default:
		return core.CategoryStable
	}
}

// referenceRun runs the five steps over the study and returns what
// core.Pipeline.Run must produce for it, up to execution metadata (Stats
// and Trace stay zero).
func referenceRun(s *studyInput, params core.Params) *core.Result {
	res := &core.Result{History: map[dnscore.Name]core.PeriodCategories{}}
	res.Funnel.DomainCategories = map[core.Category]int{}
	res.Funnel.MapCategories = map[core.Category]int{}
	res.Funnel.PruneCounts = map[core.PruneReason]int{}
	res.Funnel.Outcomes = map[core.InspectOutcome]int{}
	res.Funnel.ByMethod = map[core.Method]int{}
	byDomain, dates, _ := referenceRecords(s)
	var domains []dnscore.Name
	for d := range byDomain {
		domains = append(domains, d)
	}
	slices.Sort(domains)
	res.Funnel.Domains = len(domains)
	var periods []simtime.Period
	scansOf := map[simtime.Period][]simtime.Date{}
	for _, date := range dates {
		p := simtime.PeriodOf(date)
		if len(scansOf[p]) == 0 {
			periods = append(periods, p)
		}
		scansOf[p] = append(scansOf[p], date)
	}

	// Steps 1 and 2 (§4.1–§4.2): a deployment map per domain and period,
	// classified.
	var transients []*core.Classification
	maps := map[dnscore.Name]map[simtime.Period]*core.DeploymentMap{}
	for _, domain := range domains {
		var h core.PeriodCategories
		maps[domain] = map[simtime.Period]*core.DeploymentMap{}
		for _, p := range periods {
			m := referenceMap(domain, p, byDomain[domain], scansOf[p])
			if m == nil {
				continue
			}
			maps[domain][p] = m
			c := params.Classify(m, scansOf[p])
			res.Funnel.Maps++
			res.Funnel.MapCategories[c.Category]++
			h.Set(p, c.Category)
			if c.Category == core.CategoryTransient {
				transients = append(transients, c)
			}
		}
		res.Funnel.DomainCategories[referenceRollup(h)]++
		if h != (core.PeriodCategories{}) {
			res.History[domain] = h
		}
	}

	// The cross-period extension: consecutive analyzed periods with maps,
	// neither already transient.
	for _, domain := range domains {
		for i := 0; params.StitchPeriods && i+1 < len(periods); i++ {
			a, b := periods[i], periods[i+1]
			ca, _ := res.History[domain].At(a)
			cb, _ := res.History[domain].At(b)
			mapA, mapB := maps[domain][a], maps[domain][b]
			if ca == core.CategoryTransient || cb == core.CategoryTransient || mapA == nil || mapB == nil {
				continue
			}
			if c := params.Stitch(mapA, mapB, scansOf[a], scansOf[b]); c != nil {
				transients = append(transients, c)
				res.Funnel.Stitched++
			}
		}
	}

	// Step 3 (§4.3): shortlist.
	shortlister := &core.Shortlister{Params: params, History: res.History}
	if s.src.Meta != nil {
		shortlister.Orgs = s.src.Meta.Orgs
	}
	for _, c := range transients {
		kept, pruned := shortlister.Shortlist(c)
		for _, reason := range pruned {
			res.Funnel.PruneCounts[reason]++
		}
		res.Candidates = append(res.Candidates, kept...)
	}
	res.Funnel.Shortlisted = len(res.Candidates)
	for _, c := range res.Candidates {
		if c.TrulyAnomalous && !c.Sensitive {
			res.Funnel.ShortlistedAnomalous++
		}
	}

	// Step 4 (§4.4): inspect every candidate against pDNS and CT.
	inspector := &core.Inspector{Params: params, PDNS: s.src.PDNS, CT: s.src.CT, DNSSEC: s.src.DNSSEC}
	known := map[dnscore.Name]bool{}
	var hijacked, targeted, pending []*core.Finding
	for _, c := range res.Candidates {
		f, outcome := inspector.Inspect(c)
		res.Funnel.Outcomes[outcome]++
		if outcome != core.OutcomeNoData {
			res.Funnel.WorthExamining++
		}
		switch outcome {
		case core.OutcomeHijacked:
			hijacked = append(hijacked, f)
		case core.OutcomeTargeted:
			targeted = append(targeted, f)
		case core.OutcomePendingReuse:
			pending = append(pending, f)
		default:
			continue
		}
		known[f.Domain] = true
	}

	// Step 5 (§4.5): pivot on confirmed attacker infrastructure and promote
	// the pending T1* findings it confirms, until nothing new turns up.
	// Unconfirmed T1* findings stay out of the tables.
	pivoter := &core.Pivoter{Params: params, PDNS: s.src.PDNS, CT: s.src.CT, Meta: s.src.Meta}
	for iter, before := 0, -1; iter < 4 && len(hijacked) != before; iter++ {
		before = len(hijacked)
		found := pivoter.Pivot(core.CollectInfrastructure(hijacked), known)
		hijacked = append(hijacked, found...)
		res.Funnel.PivotFound += len(found)
		promoted, rest := core.PromoteReuse(pending, core.CollectInfrastructure(hijacked))
		hijacked, pending = append(hijacked, promoted...), rest
	}
	if len(pending) > 0 {
		res.Funnel.Outcomes[core.OutcomeInconclusive] += len(pending)
	}
	for _, f := range hijacked {
		res.Funnel.ByMethod[f.Method]++
	}
	core.SortFindings(hijacked)
	core.SortFindings(targeted)
	res.Hijacked, res.Targeted = hijacked, targeted
	return res
}
