package core

import (
	"fmt"

	"retrodns/internal/dnscore"
	"retrodns/internal/ipmeta"
	"retrodns/internal/scanner"
	"retrodns/internal/simtime"
)

// Candidate is a transient deployment that survived shortlisting and is
// headed for manual-style inspection (paper §4.3).
type Candidate struct {
	Domain    dnscore.Name
	Period    simtime.Period
	Class     *Classification
	Transient *Deployment
	Pattern   Pattern
	// TrulyAnomalous marks candidates kept because the domain was stable
	// for a full period before and after the transient, rather than
	// because the certificate secures a sensitive name.
	TrulyAnomalous bool
	// Sensitive marks candidates whose transient certificate secures a
	// sensitive subdomain with browser trust.
	Sensitive bool
}

// String renders the candidate for logs and reports.
func (c *Candidate) String() string {
	tag := ""
	if c.TrulyAnomalous {
		tag = " (truly anomalous)"
	}
	return fmt.Sprintf("candidate %s %s %s %s%s", c.Domain, c.Period, c.Pattern, c.Transient.ASN, tag)
}

// PruneReason explains why a transient map was removed during shortlisting;
// the funnel statistics report these.
type PruneReason string

// Prune reasons (paper §4.3).
const (
	PruneSameOrg       PruneReason = "transient ASN organizationally related to stable ASN"
	PruneSameCountry   PruneReason = "transient geolocates to a stable deployment country"
	PruneLowPresence   PruneReason = "domain missing from too many scans"
	PruneRepeatedly    PruneReason = "transients in too many consecutive periods"
	PruneNotSensitive  PruneReason = "no trusted certificate on a sensitive subdomain and not truly anomalous"
	PruneUntrustedCert PruneReason = "transient certificate not browser-trusted"
)

// Shortlister applies the paper's §4.3 heuristics.
type Shortlister struct {
	Params Params
	Orgs   *ipmeta.OrgTable
	// History maps domain → period → category, for the consecutive-
	// transient and truly-anomalous checks. The pipeline fills it with
	// every classification before shortlisting.
	History map[dnscore.Name]PeriodCategories
}

// categoryAt returns the domain's category in the given period and whether
// the domain was observed there at all.
func (s *Shortlister) categoryAt(domain dnscore.Name, p simtime.Period) (Category, bool) {
	if !p.Valid() {
		return 0, false
	}
	return s.History[domain].At(p)
}

// consecutiveTransients counts how many consecutive periods ending at p
// (inclusive) classified the domain transient.
func (s *Shortlister) consecutiveTransients(domain dnscore.Name, p simtime.Period) int {
	n := 0
	for q := p; q.Valid(); q-- {
		c, ok := s.categoryAt(domain, q)
		if !ok || c != CategoryTransient {
			break
		}
		n++
	}
	return n
}

// trulyAnomalous reports whether the domain had a fully stable map in the
// periods immediately before and after p (paper §4.3's rare-anomaly rule;
// study-boundary periods never qualify because one side is unobservable).
func (s *Shortlister) trulyAnomalous(domain dnscore.Name, p simtime.Period) bool {
	prev, okPrev := s.categoryAt(domain, p-1)
	next, okNext := s.categoryAt(domain, p+1)
	return okPrev && okNext && prev == CategoryStable && next == CategoryStable
}

// sensitiveTrusted reports whether the transient deployment returned a
// browser-trusted certificate securing a sensitive name under the domain,
// and the matched name.
func sensitiveTrusted(domain dnscore.Name, t *Deployment) (dnscore.Name, bool) {
	for _, r := range t.Records {
		if !r.Trusted {
			continue
		}
		for _, san := range r.Cert.SANs {
			if san.RegisteredDomain() != domain && san != domain {
				continue
			}
			if scanner.IsSensitiveName(san) {
				return san, true
			}
		}
	}
	return "", false
}

// Shortlist evaluates one transient classification and returns the
// surviving candidates (one per qualifying transient deployment) together
// with the prune reasons for the rejected ones.
func (s *Shortlister) Shortlist(c *Classification) ([]*Candidate, []PruneReason) {
	var out []*Candidate
	var pruned []PruneReason
	if c.Category != CategoryTransient {
		return nil, nil
	}
	domain, period := c.Map.Domain, c.Map.Period

	// Domain-level visibility pruning applies to the whole map.
	if c.Map.Presence() < s.Params.MinPresence {
		return nil, []PruneReason{PruneLowPresence}
	}
	if s.consecutiveTransients(domain, period) >= s.Params.MaxTransientPeriods {
		return nil, []PruneReason{PruneRepeatedly}
	}
	anomalous := s.trulyAnomalous(domain, period) && len(c.Transients) == 1

	for i, t := range c.Transients {
		pattern := c.TransientPatterns[i]
		// Organizationally related to any stable deployment?
		related := false
		sameCountry := false
		for _, st := range c.Stables {
			if s.Orgs != nil && s.Orgs.SameOrg(t.ASN, st.ASN) {
				related = true
			}
			if t.SharesCountryWith(st) {
				sameCountry = true
			}
		}
		switch {
		case related:
			pruned = append(pruned, PruneSameOrg)
			continue
		case sameCountry:
			pruned = append(pruned, PruneSameCountry)
			continue
		}
		_, sensitive := sensitiveTrusted(domain, t)
		// T2 transients serve the stable certificate, which legitimately
		// secures sensitive names; for them browser trust of the relayed
		// certificate still gates, but sensitivity alone is expected —
		// both T1 and T2 pass through the same gate as in the paper.
		if !sensitive && !anomalous && !s.Params.DisableSensitiveGate {
			pruned = append(pruned, PruneNotSensitive)
			continue
		}
		out = append(out, &Candidate{
			Domain:         domain,
			Period:         period,
			Class:          c,
			Transient:      t,
			Pattern:        pattern,
			TrulyAnomalous: anomalous,
			Sensitive:      sensitive,
		})
	}
	return out, pruned
}
