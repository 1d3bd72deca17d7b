package core

import (
	"retrodns/internal/dnscore"
	"retrodns/internal/ipmeta"
	"retrodns/internal/scanner"
	"retrodns/internal/simtime"
)

// Cross-period stitching. The paper evaluates each six-month period
// independently, which makes transients that straddle a period boundary
// (the real Kyrgyzstan wave ran December 22–January 12) look like two
// edge-touching partial deployments, neither classifiable as transient.
// With Params.StitchPeriods enabled, the pipeline additionally examines
// consecutive period pairs: a deployment that appears at the tail of one
// period and disappears early in the next, with a combined lifetime within
// the transient threshold and a stable background on both sides, is
// synthesized into a transient classification and fed to the shortlist
// like any other.

// stitchDomain scans one domain's consecutive period pairs for
// boundary-straddling transients. The domain's per-period history names
// the periods that built a map and those already transient, so only a pair
// of two mapped, non-transient periods is examined, and the domain's
// windows are read — one Seek of cur to the domain's rank — only when
// there is such a pair. Independent per domain, so Pipeline.Run walks it
// shard-affine over the worker pool and merges the per-shard fragments
// back into domain order (mergeByDomain).
func stitchDomain(params Params, cur *scanner.WindowCursor, rank int, domain dnscore.Name, periods []simtime.Period, scansByPeriod periodScans, byPeriod PeriodCategories) (out []*Classification) {
	examined := func(p simtime.Period) bool {
		c, ok := byPeriod.At(p)
		return ok && c != CategoryTransient
	}
	for i := 0; i+1 < len(periods); i++ {
		a, b := periods[i], periods[i+1]
		if !examined(a) || !examined(b) {
			continue
		}
		cur.Seek(rank)
		// Stitch maps are retained in classifications, so storage is
		// heap-allocated (nil arena).
		mapA := buildMapFrom(domain, a, cur.Records(a.Start(), a.End()), len(scansByPeriod[a]), nil)
		mapB := buildMapFrom(domain, b, cur.Records(b.Start(), b.End()), len(scansByPeriod[b]), nil)
		if c := params.Stitch(mapA, mapB, scansByPeriod[a], scansByPeriod[b]); c != nil {
			keepMap(cur, c.Map)
			out = append(out, c)
		}
	}
	return out
}

// Stitch is the cross-period rule over one domain's maps of two
// consecutive analyzed periods, mapA's before mapB's, with each period's
// scan roster. It returns the synthesized transient classification of a
// deployment that straddles the boundary between them, or nil. The maps
// are only read: the classification shares their deployments.
func (p Params) Stitch(mapA, mapB *DeploymentMap, scansA, scansB []simtime.Date) *Classification {
	if len(scansA) < 4 || len(scansB) < 4 {
		return nil
	}
	domain, a := mapA.Domain, mapA.Period
	clsA := p.Classify(mapA, scansA)
	clsB := p.Classify(mapB, scansB)
	// A stable background must exist on both sides — the transient is
	// anomalous relative to it.
	if len(clsA.Stables) == 0 || len(clsB.Stables) == 0 {
		return nil
	}

	margin := p.EdgeMarginScans
	byASN := func(deps []*Deployment) map[ipmeta.ASN]*Deployment {
		m := make(map[ipmeta.ASN]*Deployment, len(deps))
		for _, d := range deps {
			m[d.ASN] = d
		}
		return m
	}
	depsB := byASN(mapB.Deployments)
	stableASNs := map[ipmeta.ASN]bool{}
	for _, s := range append(append([]*Deployment{}, clsA.Stables...), clsB.Stables...) {
		stableASNs[s.ASN] = true
	}

	for _, dA := range mapA.Deployments {
		if stableASNs[dA.ASN] {
			continue
		}
		dB, ok := depsB[dA.ASN]
		if !ok {
			continue
		}
		// dA must run into the end of period a; dB must start at the
		// beginning of period b; both must be interior otherwise.
		if dA.Last() < scansA[len(scansA)-1-margin] {
			continue
		}
		if dB.First() > scansB[margin] {
			continue
		}
		if dA.First() <= scansA[margin] {
			continue // present from the start of a: not an appearance
		}
		if dB.Last() >= scansB[len(scansB)-1-margin] {
			continue // persists through b: a transition, not a transient
		}
		span := int(dB.Last().Sub(dA.First())) + simtime.DaysPerWeek
		if span > p.TransientMaxDays {
			continue
		}
		merged := mergeDeployments(dA, dB)
		stables := append(append([]*Deployment{}, clsA.Stables...), clsB.Stables...)
		pattern := PatternT2
		for i := range merged.Certs {
			if !servedByAny(stables, merged.Certs[i].FP) {
				pattern = PatternT1
				break
			}
		}
		// The synthetic map lives in period a (where the transient began)
		// and carries the merged deployment plus the stable background.
		synthetic := &DeploymentMap{
			Domain:       domain,
			Period:       a,
			Deployments:  append([]*Deployment{merged}, clsA.Stables...),
			PresentScans: mapA.PresentScans,
			TotalScans:   mapA.TotalScans,
		}
		return &Classification{
			Map:               synthetic,
			Category:          CategoryTransient,
			Pattern:           pattern,
			Transients:        []*Deployment{merged},
			TransientPatterns: []Pattern{pattern},
			Stables:           clsA.Stables,
		}
	}
	return nil
}

// mergeDeployments combines the two halves of a boundary-straddling
// deployment into one longitudinal deployment. The slice-sets union with
// their invariants preserved: IPs/Countries stay sorted, Certs keep
// first-seen order across a then b.
func mergeDeployments(a, b *Deployment) *Deployment {
	m := &Deployment{ASN: a.ASN}
	for _, src := range []*Deployment{a, b} {
		for _, ip := range src.IPs {
			m.IPs = insertAddr(m.IPs, ip)
		}
		for _, cc := range src.Countries {
			m.Countries = insertCountry(m.Countries, cc)
		}
		for _, co := range src.Certs {
			if !m.HasCert(co.FP) {
				m.Certs = append(m.Certs, co)
			}
		}
		m.Records = append(m.Records, src.Records...)
		m.ScanDates = append(m.ScanDates, src.ScanDates...)
	}
	return m
}
