// Package core implements the paper's primary contribution: the five-step
// methodology for retroactively identifying DNS infrastructure hijacks.
//
//  1. Build deployment maps from longitudinal scan data (deploymap.go).
//  2. Classify maps into stable / transition / transient / noisy patterns
//     (classify.go).
//  3. Shortlist suspicious transients with pruning heuristics
//     (shortlist.go).
//  4. Inspect shortlisted maps against passive DNS and CT for
//     corroborating evidence (inspect.go).
//  5. Pivot on confirmed attacker infrastructure to find further victims
//     (pivot.go).
//
// The pipeline type (pipeline.go) runs all five steps over a scan dataset
// and emits findings shaped like the paper's Tables 2 and 3.
package core

import (
	"cmp"
	"fmt"
	"net/netip"
	"slices"
	"sort"
	"strings"

	"retrodns/internal/dnscore"
	"retrodns/internal/ipmeta"
	"retrodns/internal/scanner"
	"retrodns/internal/simtime"
	"retrodns/internal/x509lite"
)

// CertObs pairs a certificate with its memoized fingerprint, the element of
// a deployment's certificate slice-set.
type CertObs struct {
	FP   x509lite.Fingerprint
	Cert *x509lite.Certificate
}

// Deployment is the longitudinal aggregation of a domain's deployment
// groups that share an origin AS within one analysis period: the IPs,
// countries, certificates, and scan dates at which infrastructure in that
// AS returned a certificate for the domain (paper §4.1).
//
// The member collections are small-slice sets, not maps: deployments hold
// a handful of IPs/countries/certs, so linear or binary-search membership
// beats hashed inserts on the build hot path, iteration order is
// deterministic, and the backing arrays recycle through the classify arena
// (arena.go).
type Deployment struct {
	// ASN originates every IP in the deployment (deployment groups are
	// keyed by origin AS).
	ASN ipmeta.ASN
	// IPs observed serving the domain from this AS, sorted ascending.
	IPs []netip.Addr
	// Countries the deployment's IPs geolocate to, sorted ascending.
	Countries []ipmeta.CountryCode
	// Certs holds each distinct certificate the deployment returned, in
	// first-observed order.
	Certs []CertObs
	// Records holds the underlying scan records, in scan order.
	Records []*scanner.Record
	// ScanDates are the distinct scan dates the deployment appeared in,
	// sorted ascending.
	ScanDates []simtime.Date
}

// First returns the first scan date the deployment appeared.
func (d *Deployment) First() simtime.Date { return d.ScanDates[0] }

// Last returns the last scan date the deployment appeared.
func (d *Deployment) Last() simtime.Date { return d.ScanDates[len(d.ScanDates)-1] }

// SpanDays is the number of days between first and last appearance,
// counting the trailing scan week.
func (d *Deployment) SpanDays() simtime.Duration {
	return d.Last().Sub(d.First()) + simtime.DaysPerWeek
}

// AnyIP returns one IP of the deployment (the lowest, for determinism).
// IPs are kept sorted, so this is the first element.
func (d *Deployment) AnyIP() netip.Addr {
	if len(d.IPs) == 0 {
		return netip.Addr{}
	}
	return d.IPs[0]
}

// CountryList returns the deployment's countries, sorted. The returned
// slice is the deployment's own set — callers must not mutate it.
func (d *Deployment) CountryList() []ipmeta.CountryCode {
	return d.Countries
}

// HasCert reports whether the deployment served the fingerprinted cert.
func (d *Deployment) HasCert(fp x509lite.Fingerprint) bool {
	for i := range d.Certs {
		if d.Certs[i].FP == fp {
			return true
		}
	}
	return false
}

// SharesCertWith reports whether any certificate of d is also served by o.
func (d *Deployment) SharesCertWith(o *Deployment) bool {
	for i := range d.Certs {
		if o.HasCert(d.Certs[i].FP) {
			return true
		}
	}
	return false
}

// SharesCountryWith reports whether the two deployments geolocate to any
// common country — a sorted-set intersection probe.
func (d *Deployment) SharesCountryWith(o *Deployment) bool {
	i, j := 0, 0
	for i < len(d.Countries) && j < len(o.Countries) {
		switch {
		case d.Countries[i] == o.Countries[j]:
			return true
		case d.Countries[i] < o.Countries[j]:
			i++
		default:
			j++
		}
	}
	return false
}

// servedByAny reports whether any deployment in deps serves the
// fingerprinted certificate.
func servedByAny(deps []*Deployment, fp x509lite.Fingerprint) bool {
	for _, d := range deps {
		if d.HasCert(fp) {
			return true
		}
	}
	return false
}

// resetFor clears the deployment for reuse under a new ASN, keeping the
// slice capacities (the arena's free list recycles these).
func (d *Deployment) resetFor(asn ipmeta.ASN) {
	d.ASN = asn
	d.IPs = d.IPs[:0]
	d.Countries = d.Countries[:0]
	d.Certs = d.Certs[:0]
	d.Records = d.Records[:0]
	d.ScanDates = d.ScanDates[:0]
}

// insertAddr adds ip to a sorted address slice-set, preserving order.
func insertAddr(ips []netip.Addr, ip netip.Addr) []netip.Addr {
	i := sort.Search(len(ips), func(k int) bool { return !ips[k].Less(ip) })
	if i < len(ips) && ips[i] == ip {
		return ips
	}
	ips = append(ips, netip.Addr{})
	copy(ips[i+1:], ips[i:])
	ips[i] = ip
	return ips
}

// insertCountry adds cc to a sorted country slice-set, preserving order.
func insertCountry(ccs []ipmeta.CountryCode, cc ipmeta.CountryCode) []ipmeta.CountryCode {
	i := sort.Search(len(ccs), func(k int) bool { return ccs[k] >= cc })
	if i < len(ccs) && ccs[i] == cc {
		return ccs
	}
	ccs = append(ccs, "")
	copy(ccs[i+1:], ccs[i:])
	ccs[i] = cc
	return ccs
}

// addCert appends the certificate to the set unless its fingerprint is
// already present (first observation wins; same fingerprint implies same
// certificate content). A pooled certificate is its fingerprint's one
// instance, so a pointer match settles the common case without loading the
// certificate; the fingerprint scan covers datasets built with interning
// off, where equal certificates arrive as distinct instances.
func (d *Deployment) addCert(c *x509lite.Certificate) {
	for i := range d.Certs {
		if d.Certs[i].Cert == c {
			return
		}
	}
	fp := c.Fingerprint()
	for i := range d.Certs {
		if d.Certs[i].FP == fp {
			return
		}
	}
	d.Certs = append(d.Certs, CertObs{FP: fp, Cert: c})
}

// String renders the deployment compactly.
func (d *Deployment) String() string {
	return fmt.Sprintf("deployment %s %v ips=%d certs=%d scans=%d [%s..%s]",
		d.ASN, d.CountryList(), len(d.IPs), len(d.Certs), len(d.ScanDates), d.First(), d.Last())
}

// DeploymentMap models where and when infrastructure provided service for
// one domain during one analysis period (paper §4.1, Figure 2).
type DeploymentMap struct {
	// Domain is the registered domain the map describes.
	Domain dnscore.Name
	// Period is the six-month analysis period.
	Period simtime.Period
	// Deployments lists the domain's deployments, ordered by first scan.
	Deployments []*Deployment
	// PresentScans counts scan dates in the period on which at least one
	// record for the domain appeared.
	PresentScans int
	// TotalScans counts scan dates in the period.
	TotalScans int
}

// Presence is the fraction of the period's scans in which the domain was
// visible, the quantity behind the paper's "missing from 20% of scans"
// pruning rule.
func (m *DeploymentMap) Presence() float64 {
	if m.TotalScans == 0 {
		return 0
	}
	return float64(m.PresentScans) / float64(m.TotalScans)
}

// String renders the map one deployment per line.
func (m *DeploymentMap) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "map %s %s presence=%.0f%%\n", m.Domain, m.Period, m.Presence()*100)
	for i, d := range m.Deployments {
		fmt.Fprintf(&sb, "  #%d %s\n", i+1, d)
	}
	return sb.String()
}

// BuildMap constructs the deployment map of a domain for one period from
// the dataset. It returns nil when the domain has no records in the period.
func BuildMap(ds *scanner.Dataset, domain dnscore.Name, period simtime.Period) *DeploymentMap {
	records := ds.DomainRecords(domain, period.Start(), period.End())
	if len(records) == 0 {
		return nil
	}
	return buildMapFrom(domain, period, records, len(ds.ScanDates(period.Start(), period.End())), nil)
}

// buildMapFrom builds a map from an explicit date-sorted record window and
// period scan count — the cold half of the incremental path. A non-nil
// arena supplies recycled map/deployment storage (see arena.go); nil
// allocates from the heap, which every retaining caller (the classify
// cache, stitching) must use.
func buildMapFrom(domain dnscore.Name, period simtime.Period, records []*scanner.Record, totalScans int, ar *classifyArena) *DeploymentMap {
	m := ar.newMap(domain, period, totalScans)
	mergeRecords(m, records, ar)
	return m
}

// mergeRecords folds further date-sorted records into a deployment map,
// drawing deployments from an optional arena (nil for a map the cache
// keeps: a kept map must never sit on recycled storage). Every record's
// date must be >= the map's last observed date, as holds for a cold build
// and for an incremental extension (Append journals out-of-order merges as
// full-rebuild cells). Deployments are got-or-created by ASN in first-seen
// order, then stable-sorted by first appearance, so extending a map yields
// exactly the map a rebuild over the full window would.
func mergeRecords(m *DeploymentMap, records []*scanner.Record, ar *classifyArena) {
	// Deployments per map number in the low single digits, so the
	// get-or-create lookup is a linear scan instead of a throwaway map —
	// this runs once per dirty cell per incremental Run.
	var last simtime.Date
	haveLast := false
	for _, d := range m.Deployments {
		if l := d.Last(); !haveLast || l > last {
			last, haveLast = l, true
		}
	}
	deps := m.Deployments
	added := 0
	ar.prefetch(records)
	for i, r := range records {
		if !haveLast || r.ScanDate != last {
			m.PresentScans++
			last, haveLast = r.ScanDate, true
		}
		var d *Deployment
		for _, e := range deps {
			if e.ASN == r.ASN {
				d = e
				break
			}
		}
		if d == nil {
			d = ar.newDeployment(r.ASN)
			if ar == nil { // a heap deployment: sized once for the rest of the window
				d.Records = make([]*scanner.Record, 0, len(records)-i)
				d.ScanDates = make([]simtime.Date, 0, len(records)-i)
			}
			deps = append(deps, d)
			added++
		}
		d.IPs = insertAddr(d.IPs, r.IP)
		d.Countries = insertCountry(d.Countries, r.Country)
		d.addCert(r.Cert)
		d.Records = append(d.Records, r)
		if n := len(d.ScanDates); n == 0 || d.ScanDates[n-1] != r.ScanDate {
			d.ScanDates = append(d.ScanDates, r.ScanDate)
		}
	}
	m.Deployments = deps
	if added == 0 {
		// Extension that touched only existing deployments: their First
		// dates are unchanged, so the order is already the cold build's.
		return
	}
	// New deployments start at dates >= every existing deployment's first
	// date, so the stable sort reproduces the cold build's order: ties on
	// First keep existing (earlier-seen) deployments ahead.
	slices.SortStableFunc(m.Deployments, func(a, b *Deployment) int {
		return cmp.Compare(a.First(), b.First())
	})
}
