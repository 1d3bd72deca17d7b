package core

// ClassifyCache serialization for the durability layer. A snapshot taken
// right after a Pipeline.Run (cache generation == dataset generation)
// captures each built (domain, period) cell as the decisions the cold path
// cannot rebuild from the record window alone: the window prefix length
// the deployment map was built from, the map's period scan count, and the
// classification, with its transient and stable deployments as indexes
// into the map's deployment list. The domain's published category history
// follows the cells. The map itself is not stored: paper §4 step 1 makes it
// a function of the window, so on restore buildMapFrom rebuilds it from the
// dataset's restored window, the same call the cold path makes, and a warm
// boot classifies only cells the WAL replay dirtied — the clean ones replay
// their cached result verbatim.
//
// The restored cache must be paired with the dataset snapshot it was taken
// against, or a WAL-replayed extension of it: DecodeState reads each
// cell's window prefix from the dataset and fails (typed error, never a
// panic) on any mismatch it can see, at which point the caller falls back
// to a cold cache — correctness never depends on the cache being
// restorable.

import (
	"errors"
	"fmt"
	"sort"

	"retrodns/internal/dnscore"
	"retrodns/internal/scanner"
	"retrodns/internal/simtime"
	"retrodns/internal/wire"
)

// ErrCacheState reports a cache snapshot that does not match the dataset
// it is being restored against.
var ErrCacheState = errors.New("core: cache snapshot does not match dataset")

// cacheMagic versions the classify-cache snapshot payload; a section under
// any other magic, rcc1's stored deployments included, is refused.
const cacheMagic = "rcc2"

// EncodeState appends the cache's serialization to dst and returns the
// extended slice; a caller that sizes dst from the last encoding gets it
// without a regrow. Call only between pipeline runs (the cache is
// single-writer by contract).
func (c *ClassifyCache) EncodeState(dst []byte) ([]byte, error) {
	w := wire.NewWriter(dst)
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
			if err := encodeCell(&w, &dc.cells[pi]); err != nil {
				return dst, fmt.Errorf("%s %v: %w", domain, simtime.Period(pi), err)
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
	return w.Bytes(), nil
}

// encodeCell writes one built cell: its window prefix length, and for a
// cell with a map the map's scan count and its classification.
func encodeCell(w *wire.Writer, ps *cellState) error {
	w.Uvarint(uint64(ps.recCount))
	m := ps.m
	w.Bool(m != nil)
	if m == nil {
		return nil
	}
	w.Uvarint(uint64(m.TotalScans))
	class := ps.class
	w.Bool(class != nil)
	if class == nil {
		return nil
	}
	depIdx := make(map[*Deployment]int, len(m.Deployments))
	for di, dep := range m.Deployments {
		depIdx[dep] = di
	}
	w.Uvarint(uint64(class.Category))
	w.Uvarint(uint64(class.Pattern))
	w.Uvarint(uint64(len(class.Transients)))
	for i, dep := range class.Transients {
		di, ok := depIdx[dep]
		if !ok {
			return fmt.Errorf("%w: transient not in deployment list", ErrCacheState)
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
			return fmt.Errorf("%w: stable not in deployment list", ErrCacheState)
		}
		w.Uvarint(uint64(di))
	}
	return nil
}

// DecodeState restores the cache from an EncodeState payload, rebuilding
// each cell's map from ds (which must be the dataset snapshot the cache
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
	var prev dnscore.Name
	for i := 0; i < ndom; i++ {
		if r.Err() != nil {
			return r.Err()
		}
		domain := dnscore.Name(r.String())
		if i > 0 && domain <= prev {
			return fmt.Errorf("%w: domain %q out of order", ErrCacheState, domain)
		}
		prev = domain
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
		last := simtime.Period(-1)
		for j := 0; j < nhist; j++ {
			p := simtime.Period(r.Int())
			cat := Category(r.Uvarint())
			if !p.Valid() || p <= last || cat > CategoryNoisy {
				return fmt.Errorf("%w: history entry %v/%v", ErrCacheState, p, cat)
			}
			dc.byPeriod.Set(p, cat)
			last = p
		}
		byDomain[domain] = dc
	}
	if err := r.Finish(); err != nil {
		return err
	}
	c.dataset = ds
	c.gen = gen
	c.paramsFP = paramsFP
	c.byDomain = byDomain
	return nil
}

// decodeCell reads what encodeCell wrote and rebuilds the cell's map over
// the first recCount records of its window, as rebuildCell built it.
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
	if ps.recCount == 0 {
		return fmt.Errorf("%w: %s %v map over no records", ErrCacheState, domain, period)
	}
	totalScans := int(r.Uvarint())
	hasClass := r.Bool()
	if r.Err() != nil {
		return r.Err()
	}
	m := buildMapFrom(domain, period, window[:ps.recCount], totalScans, nil)
	ps.m = m
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
