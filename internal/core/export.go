package core

import (
	"sort"

	"retrodns/internal/dnscore"
	"retrodns/internal/simtime"
)

// PeriodCategories is a domain's category history as a fixed, comparable
// array: entry p is the Category of period p plus one, or zero where the
// domain has no deployment map in that period. Equal arrays mean equal
// rollups and period rows, so a serving index can render them once.
type PeriodCategories [simtime.NumPeriods]uint8

// At returns period p's category, and whether the domain has one.
func (pc PeriodCategories) At(p simtime.Period) (Category, bool) {
	return Category(pc[p] - 1), pc[p] != 0
}

// Set records period p's category.
func (pc *PeriodCategories) Set(p simtime.Period, c Category) { pc[p] = uint8(c) + 1 }

// rollup reduces a domain's per-period categories to one label, with the
// precedence the paper's domain-level percentages imply: any transient
// period marks the domain transient; otherwise any transition marks it
// transition; otherwise majority-noisy (strictly more than half of the
// periods) marks it noisy; otherwise it is stable. An exact half-noisy
// split is NOT a majority and resolves to stable — the paper's §4.2 split
// (96.5% stable vs 0.35% noisy) leans hard toward stable, and a domain
// classifiable in half its periods has a usable history. A domain with no
// classified period at all (pivot-only) is noisy.
func (pc PeriodCategories) rollup() Category {
	var counts [CategoryNoisy + 1]int
	n := 0
	for _, c := range pc {
		if c != 0 {
			counts[c-1]++
			n++
		}
	}
	switch {
	case n == 0:
		return CategoryNoisy
	case counts[CategoryTransient] > 0:
		return CategoryTransient
	case counts[CategoryTransition] > 0:
		return CategoryTransition
	case counts[CategoryNoisy]*2 > n:
		return CategoryNoisy
	default:
		return CategoryStable
	}
}

// DomainExport aggregates everything one Run concluded about a single
// registered domain: its per-period classifications, the shortlist
// candidates it produced, and the findings (hijacked/targeted verdicts)
// it appears in. It is the per-domain unit a read-optimized serving
// index holds, so a query for one domain never walks the full Result.
type DomainExport struct {
	Domain dnscore.Name
	// Rollup is the domain-level category (the paper's §4.2 split).
	Rollup Category
	// Periods holds each analyzed period's map category; all zero for
	// pivot-discovered domains with no deployment maps of their own.
	Periods PeriodCategories
	// Candidates lists the domain's shortlist survivors in pipeline order.
	Candidates []*Candidate
	// Findings lists the domain's rows of Tables 2 and 3, hijacked first,
	// each in its table's order.
	Findings []*Finding
}

// Verdict reduces the domain's findings to the single most severe
// verdict, or VerdictInconclusive when the domain has none.
func (d *DomainExport) Verdict() Verdict {
	v := VerdictInconclusive
	for _, f := range d.Findings {
		if f.Verdict > v {
			v = f.Verdict
		}
	}
	return v
}

// ResultExport is the snapshot-export view of a Result: one DomainExport
// per domain the run said anything about (classified, shortlisted, or
// found via pivot), addressable by name and iterable in sorted order.
// The export aliases the Result's candidates and findings; treat those as
// read-only, and — under a ClassifyCache, which extends their deployment
// maps in place — consume them before the next Run.
type ResultExport struct {
	// Domains is sorted by domain name.
	Domains []*DomainExport
}

// Domain returns the export entry for one domain, or nil if the run had
// nothing to say about it.
func (e *ResultExport) Domain(name dnscore.Name) *DomainExport {
	return findDomain(e.Domains, name)
}

// findDomain binary-searches a name-sorted entry list.
func findDomain(sorted []*DomainExport, name dnscore.Name) *DomainExport {
	i := sort.Search(len(sorted), func(i int) bool { return sorted[i].Domain >= name })
	if i < len(sorted) && sorted[i].Domain == name {
		return sorted[i]
	}
	return nil
}

// Export builds the read-optimized per-domain index of the result — the
// hook a serving layer snapshots after every Run. The walk covers
// History (every classified domain), Candidates, and both verdict
// tables, so pivot-discovered domains absent from History still get an
// entry. Cost is one pass over each; the Result itself is not mutated.
// Classified domains come in the order Run already walked them, so only
// the handful of pivot-only names is sorted; a Result not produced by Run,
// or whose History was edited since, sorts its History keys instead.
func (r *Result) Export() *ResultExport {
	classified := r.exportClassified(r.roster)
	if len(classified) != len(r.History) {
		roster := make([]dnscore.Name, 0, len(r.History))
		for name := range r.History {
			roster = append(roster, name)
		}
		sort.Slice(roster, func(i, j int) bool { return roster[i] < roster[j] })
		classified = r.exportClassified(roster)
	}

	// A candidate's or finding's domain with no History entry is pivot-only:
	// never classified, its rollup is the empty history's noisy.
	var pivotOnly []*DomainExport
	pivotByName := map[dnscore.Name]*DomainExport{}
	entry := func(name dnscore.Name) *DomainExport {
		if d := findDomain(classified, name); d != nil {
			return d
		}
		d := pivotByName[name]
		if d == nil {
			d = &DomainExport{Domain: name, Rollup: PeriodCategories{}.rollup()}
			pivotByName[name] = d
			pivotOnly = append(pivotOnly, d)
		}
		return d
	}
	for _, c := range r.Candidates {
		d := entry(c.Domain)
		d.Candidates = append(d.Candidates, c)
	}
	for _, f := range r.Hijacked {
		d := entry(f.Domain)
		d.Findings = append(d.Findings, f)
	}
	for _, f := range r.Targeted {
		d := entry(f.Domain)
		d.Findings = append(d.Findings, f)
	}
	if len(pivotOnly) == 0 {
		return &ResultExport{Domains: classified}
	}

	sort.Slice(pivotOnly, func(i, j int) bool { return pivotOnly[i].Domain < pivotOnly[j].Domain })
	merged := make([]*DomainExport, 0, len(classified)+len(pivotOnly))
	for _, d := range classified {
		for len(pivotOnly) > 0 && pivotOnly[0].Domain < d.Domain {
			merged = append(merged, pivotOnly[0])
			pivotOnly = pivotOnly[1:]
		}
		merged = append(merged, d)
	}
	return &ResultExport{Domains: append(merged, pivotOnly...)}
}

// exportClassified returns one entry per roster name that has a History
// entry, in roster order, all backed by one allocation — which must not
// grow, so a roster that repeats a name (not one Run produced) yields nil,
// as does one too short to cover History.
func (r *Result) exportClassified(roster []dnscore.Name) []*DomainExport {
	if len(roster) < len(r.History) {
		return nil
	}
	slab := make([]DomainExport, 0, len(r.History))
	out := make([]*DomainExport, 0, len(r.History))
	for _, name := range roster {
		pc, ok := r.History[name]
		if !ok {
			continue
		}
		if len(slab) == cap(slab) {
			return nil
		}
		slab = append(slab, DomainExport{Domain: name, Rollup: pc.rollup(), Periods: pc})
		out = append(out, &slab[len(slab)-1])
	}
	return out
}
