package core

// ClassifyCache serialization for the durability layer. A snapshot taken
// right after a Pipeline.Run (cache generation == dataset generation)
// captures each built (domain, period) cell: the record-window prefix the
// deployment map was built from, the map's cross-deployment scan counts,
// each deployment as an ASN plus the indexes of its records within the
// window, the classification as indexes into the deployment list, and the
// domain's published category history. On restore the deployments re-fold
// from the dataset's restored windows with the same set-insert helpers the
// cold build path uses, so a warm boot classifies only cells the WAL
// replay dirtied — the clean ones replay their cached result verbatim.
//
// The restored cache must be paired with the dataset snapshot it was taken
// against: DecodeState resolves record indexes through the dataset's
// windows and fails (typed error, never a panic) on any mismatch, at which
// point the caller falls back to a cold cache — correctness never depends
// on the cache being restorable.

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"

	"retrodns/internal/dnscore"
	"retrodns/internal/ipmeta"
	"retrodns/internal/scanner"
	"retrodns/internal/simtime"
	"retrodns/internal/wire"
)

// ErrCacheState reports a cache snapshot that does not match the dataset
// it is being restored against.
var ErrCacheState = errors.New("core: cache snapshot does not match dataset")

// cacheMagic versions the classify-cache snapshot payload.
const cacheMagic = "rcc1"

// EncodeState serializes the cache to w. Call only between pipeline runs
// (the cache is single-writer by contract).
func (c *ClassifyCache) EncodeState(out io.Writer) error {
	var w wire.Writer
	w.String(cacheMagic)
	w.Uvarint(c.gen)
	w.String(c.paramsFP)

	domains := make([]dnscore.Name, 0, len(c.byDomain))
	for domain := range c.byDomain {
		domains = append(domains, domain)
	}
	sort.Slice(domains, func(i, j int) bool { return domains[i] < domains[j] })
	w.Uvarint(uint64(len(domains)))
	for _, domain := range domains {
		dc := c.byDomain[domain]
		w.String(string(domain))
		mask := uint64(0)
		for pi := range dc.cells {
			if dc.cells[pi].built {
				mask |= 1 << uint(pi)
			}
		}
		w.Uvarint(mask)
		for pi := range dc.cells {
			if !dc.cells[pi].built {
				continue
			}
			if err := encodeCell(&w, c.dataset, domain, simtime.Period(pi), &dc.cells[pi]); err != nil {
				return err
			}
		}
		nhist := 0
		for _, c := range dc.byPeriod {
			if c != 0 {
				nhist++
			}
		}
		w.Uvarint(uint64(nhist))
		for p, c := range dc.byPeriod {
			if c != 0 {
				w.Int(int64(p))
				w.Uvarint(uint64(c - 1))
			}
		}
	}
	_, err := out.Write(w.Bytes())
	return err
}

// encodeCell writes one built cell. Deployment records are written as
// indexes into the domain's period window as the dataset currently holds
// it; the cell's recCount bounds the prefix the map was built from.
func encodeCell(w *wire.Writer, ds *scanner.Dataset, domain dnscore.Name, period simtime.Period, ps *cellState) error {
	w.Uvarint(uint64(ps.recCount))
	if ps.m == nil {
		w.Bool(false)
		return nil
	}
	w.Bool(true)
	window := ds.DomainRecords(domain, period.Start(), period.End())
	if len(window) < ps.recCount {
		return fmt.Errorf("%w: %s %v window %d < recCount %d",
			ErrCacheState, domain, period, len(window), ps.recCount)
	}
	m := ps.m
	w.Uvarint(uint64(m.PresentScans))
	w.Uvarint(uint64(m.TotalScans))
	w.Uvarint(uint64(len(m.Deployments)))
	depIdx := make(map[*Deployment]int, len(m.Deployments))
	for di, dep := range m.Deployments {
		depIdx[dep] = di
		w.Uvarint(uint64(dep.ASN))
		w.Uvarint(uint64(len(dep.Records)))
		// A map files each record of the window prefix under its origin
		// AS's deployment, in window order, so a deployment's records are
		// the prefix's records of its AS. They are matched by content, not
		// by pointer: a spilled shard decodes a fresh window on every read,
		// so a cell built over one holds copies of the window's records.
		prev, k := -1, 0
		for i, rec := range window[:ps.recCount] {
			if rec.ASN != dep.ASN {
				continue
			}
			if k == len(dep.Records) || !sameObservation(dep.Records[k], rec) {
				return fmt.Errorf("%w: %s %v deployment record not in window prefix",
					ErrCacheState, domain, period)
			}
			w.Uvarint(uint64(i - prev - 1)) // gap-coded ascending indexes
			prev, k = i, k+1
		}
		if k != len(dep.Records) {
			return fmt.Errorf("%w: %s %v deployment records are not the window prefix's",
				ErrCacheState, domain, period)
		}
	}
	class := ps.class
	if class == nil {
		w.Bool(false)
		return nil
	}
	w.Bool(true)
	w.Uvarint(uint64(class.Category))
	w.Uvarint(uint64(class.Pattern))
	w.Uvarint(uint64(len(class.Transients)))
	for i, dep := range class.Transients {
		di, ok := depIdx[dep]
		if !ok {
			return fmt.Errorf("%w: %s %v transient not in deployment list", ErrCacheState, domain, period)
		}
		w.Uvarint(uint64(di))
		pattern := PatternNone
		if i < len(class.TransientPatterns) {
			pattern = class.TransientPatterns[i]
		}
		w.Uvarint(uint64(pattern))
	}
	w.Uvarint(uint64(len(class.Stables)))
	for _, dep := range class.Stables {
		di, ok := depIdx[dep]
		if !ok {
			return fmt.Errorf("%w: %s %v stable not in deployment list", ErrCacheState, domain, period)
		}
		w.Uvarint(uint64(di))
	}
	return nil
}

// DecodeState restores the cache from an EncodeState payload, resolving
// record indexes against ds (which must be the dataset snapshot the cache
// was serialized with, or a WAL-replayed extension of it — extensions only
// grow windows past each cell's recCount, which extendCell handles).
func (c *ClassifyCache) DecodeState(data []byte, ds *scanner.Dataset) error {
	r := wire.NewReader(data)
	if r.String() != cacheMagic {
		return fmt.Errorf("%w: bad cache magic", ErrCacheState)
	}
	gen := r.Uvarint()
	paramsFP := r.String()
	byDomain := make(map[dnscore.Name]*domainCells)
	ndom := r.Count()
	for i := 0; i < ndom; i++ {
		if r.Err() != nil {
			return r.Err()
		}
		domain := dnscore.Name(r.String())
		mask := r.Uvarint()
		if mask >= 1<<simtime.NumPeriods {
			return fmt.Errorf("%w: period mask %#x", ErrCacheState, mask)
		}
		dc := &domainCells{}
		for pi := 0; pi < simtime.NumPeriods; pi++ {
			if mask&(1<<uint(pi)) == 0 {
				continue
			}
			if err := decodeCell(r, ds, domain, simtime.Period(pi), &dc.cells[pi]); err != nil {
				return err
			}
		}
		nhist := r.Count()
		for j := 0; j < nhist; j++ {
			p := simtime.Period(r.Int())
			cat := Category(r.Uvarint())
			if !p.Valid() || cat > CategoryNoisy {
				return fmt.Errorf("%w: history entry %v/%v", ErrCacheState, p, cat)
			}
			dc.byPeriod.Set(p, cat)
		}
		byDomain[domain] = dc
	}
	if r.Err() != nil {
		return r.Err()
	}
	if r.Len() != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrCacheState, r.Len())
	}
	c.dataset = ds
	c.gen = gen
	c.paramsFP = paramsFP
	c.byDomain = byDomain
	return nil
}

// sameObservation reports whether two records carry the same observation:
// the same record, or a copy of it.
func sameObservation(a, b *scanner.Record) bool {
	if a == b {
		return true
	}
	return a.ScanDate == b.ScanDate && a.ASN == b.ASN && a.IP == b.IP &&
		a.Country == b.Country && a.CrtShID == b.CrtShID &&
		a.Trusted == b.Trusted && a.Sensitive == b.Sensitive &&
		slices.Equal(a.Ports, b.Ports) &&
		(a.Cert == b.Cert || a.Cert != nil && b.Cert != nil && a.Cert.Fingerprint() == b.Cert.Fingerprint())
}

func decodeCell(r *wire.Reader, ds *scanner.Dataset, domain dnscore.Name, period simtime.Period, ps *cellState) error {
	ps.built = true
	ps.recCount = int(r.Uvarint())
	hasMap := r.Bool()
	if r.Err() != nil {
		return r.Err()
	}
	window := ds.DomainRecords(domain, period.Start(), period.End())
	if len(window) < ps.recCount {
		return fmt.Errorf("%w: %s %v window %d < recCount %d",
			ErrCacheState, domain, period, len(window), ps.recCount)
	}
	if ps.recCount > 0 {
		ps.lastRec = window[ps.recCount-1]
	}
	if !hasMap {
		return nil
	}
	m := &DeploymentMap{Domain: domain, Period: period}
	m.PresentScans = int(r.Uvarint())
	m.TotalScans = int(r.Uvarint())
	ndeps := r.Count()
	for di := 0; di < ndeps; di++ {
		if r.Err() != nil {
			return r.Err()
		}
		dep := &Deployment{ASN: ipmeta.ASN(r.Uvarint())}
		nrecs := r.Count()
		idx := -1
		for ri := 0; ri < nrecs; ri++ {
			gap := r.Uvarint()
			if r.Err() != nil {
				return r.Err()
			}
			idx += int(gap) + 1
			if idx >= ps.recCount || idx >= len(window) {
				return fmt.Errorf("%w: %s %v record index %d out of prefix %d",
					ErrCacheState, domain, period, idx, ps.recCount)
			}
			rec := window[idx]
			// Re-fold the deployment exactly as buildMapFrom would.
			dep.IPs = insertAddr(dep.IPs, rec.IP)
			dep.Countries = insertCountry(dep.Countries, rec.Country)
			if rec.Cert != nil {
				dep.addCert(rec.Cert)
			}
			dep.Records = append(dep.Records, rec)
			if n := len(dep.ScanDates); n == 0 || dep.ScanDates[n-1] != rec.ScanDate {
				dep.ScanDates = append(dep.ScanDates, rec.ScanDate)
			}
		}
		if len(dep.ScanDates) == 0 {
			return fmt.Errorf("%w: %s %v empty deployment", ErrCacheState, domain, period)
		}
		m.Deployments = append(m.Deployments, dep)
	}
	ps.m = m
	hasClass := r.Bool()
	if r.Err() != nil {
		return r.Err()
	}
	if !hasClass {
		return nil
	}
	class := &Classification{Map: m}
	class.Category = Category(r.Uvarint())
	class.Pattern = Pattern(r.Uvarint())
	if class.Category > CategoryNoisy || class.Pattern > PatternT2 {
		return fmt.Errorf("%w: %s %v classification enums", ErrCacheState, domain, period)
	}
	ntrans := r.Count()
	for i := 0; i < ntrans; i++ {
		di := r.Uvarint()
		pattern := Pattern(r.Uvarint())
		if r.Err() != nil {
			return r.Err()
		}
		if di >= uint64(len(m.Deployments)) || pattern > PatternT2 {
			return fmt.Errorf("%w: %s %v transient ref", ErrCacheState, domain, period)
		}
		class.Transients = append(class.Transients, m.Deployments[di])
		class.TransientPatterns = append(class.TransientPatterns, pattern)
	}
	nstable := r.Count()
	for i := 0; i < nstable; i++ {
		di := r.Uvarint()
		if r.Err() != nil {
			return r.Err()
		}
		if di >= uint64(len(m.Deployments)) {
			return fmt.Errorf("%w: %s %v stable ref", ErrCacheState, domain, period)
		}
		class.Stables = append(class.Stables, m.Deployments[di])
	}
	ps.class = class
	return nil
}

// Generation returns the dataset generation the cache last validated
// against (0 for a fresh cache). Exposed for the durability layer's
// snapshot bookkeeping.
func (c *ClassifyCache) Generation() uint64 { return c.gen }
