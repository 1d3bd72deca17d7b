package core

// ClassifyCache serialization for the durability layer. A snapshot taken
// right after a Pipeline.Run stores each built (domain, period) cell as the
// decisions its record window alone does not give back: the window prefix
// length the map was built from, the map's scan count, and the
// classification, its deployments as indexes into the map's list; the
// domain's category history follows. Maps are not stored. A restore parses
// the decisions, then rebuilds every map on one walk of the dataset's
// shards, each read through its cursor and built by keepCell as a run
// builds it, so a warm boot classifies only the cells WAL replay dirtied.
//
// The parse refuses what the payload alone shows wrong (order, enums,
// a map without records or classification), the build what only the
// dataset shows (a window shorter than its prefix, a deployment index past
// the map, a domain the dataset does not hold): a typed error, never a
// panic, and the caller restores cold — correctness never depends on it.

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
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

	var domains []dnscore.Name
	for _, cells := range c.byShard {
		for domain := range cells {
			domains = append(domains, domain)
		}
	}
	slices.Sort(domains)
	w.Uvarint(uint64(len(domains)))
	for _, domain := range domains {
		dc := c.byShard[c.dataset.ShardOf(domain)][domain]
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
	class := ps.class
	w.Bool(class != nil) // the cell has a map, and the map a classification
	if class == nil {
		return nil
	}
	m := class.Map
	w.Uvarint(uint64(m.TotalScans))
	w.Bool(true)
	w.Uvarint(uint64(class.Category))
	w.Uvarint(uint64(class.Pattern))
	w.Uvarint(uint64(len(class.Transients)))
	for i, dep := range class.Transients {
		di := slices.Index(m.Deployments, dep)
		if di < 0 {
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
		di := slices.Index(m.Deployments, dep)
		if di < 0 {
			return fmt.Errorf("%w: stable not in deployment list", ErrCacheState)
		}
		w.Uvarint(uint64(di))
	}
	return nil
}

// DecodeState restores the cache from an EncodeState payload against ds:
// the dataset snapshot the cache was serialized with, or a WAL-replayed
// extension of it, whose windows only grew past each cell's recCount
// (extendCell's case). It parses each domain's decisions into its cells,
// then builds their maps on one walk of ds (restore.build).
//
// The payload's domain names are read as views into data, never copied:
// each domain's cells are keyed on the string the dataset's roster holds,
// found on the build walk for a domain with a map cell and by a roster
// lookup for one without.
func (c *ClassifyCache) DecodeState(data []byte, ds *scanner.Dataset) error {
	r := wire.NewReader(data)
	if r.String() != cacheMagic {
		return fmt.Errorf("%w: bad cache magic", ErrCacheState)
	}
	gen, paramsFP, ndom := r.Uvarint(), r.String(), r.Count()
	var cache ClassifyCache
	cache.reset(ds, ndom)
	st := restore{domains: make([]restoreDomain, 0, ndom), picks: make([][]int, ds.Shards()), vals: make([]uint64, 0, 4*ndom)}
	var prev []byte
	var slab []domainCells // cells come in blocks: one allocation per 256 domains
	for i := 0; i < ndom; i++ {
		if r.Err() != nil {
			return r.Err()
		}
		name := r.Blob()
		if i > 0 && string(name) <= string(prev) {
			return fmt.Errorf("%w: domain %q out of order", ErrCacheState, name)
		}
		prev = name
		mask := r.Uvarint()
		if mask >= 1<<simtime.NumPeriods {
			return fmt.Errorf("%w: period mask %#x", ErrCacheState, mask)
		}
		sid := ds.ShardOf(dnscore.Name(name))
		if len(slab) == 0 {
			slab = make([]domainCells, min(256, ndom-i))
		}
		rd := restoreDomain{name: name, dc: &slab[0], lo: len(st.vals)}
		slab = slab[1:]
		for pi := 0; pi < simtime.NumPeriods; pi++ {
			if mask&(1<<uint(pi)) == 0 {
				continue
			}
			if err := st.parseCell(r, name, simtime.Period(pi), &rd.dc.cells[pi]); err != nil {
				return err
			}
		}
		if rd.lo < len(st.vals) {
			// The build walk reaches it, and keys it.
			st.picks[sid] = append(st.picks[sid], len(st.domains))
			st.domains = append(st.domains, rd)
		} else {
			cache.byShard[sid][rosterKey(ds.ShardView(sid).Domains(), name)] = rd.dc
		}
		nhist := r.Count()
		last := simtime.Period(-1)
		for j := 0; j < nhist; j++ {
			p := simtime.Period(r.Int())
			cat := Category(r.Uvarint())
			if !p.Valid() || p <= last || cat > CategoryNoisy {
				return fmt.Errorf("%w: history entry %v/%v", ErrCacheState, p, cat)
			}
			rd.dc.byPeriod.Set(p, cat)
			last = p
		}
	}
	if err := r.Finish(); err != nil {
		return err
	}
	if err := st.build(ds, cache.byShard); err != nil {
		return err
	}
	cache.gen, cache.paramsFP = gen, paramsFP
	*c = cache
	return nil
}

// restore is a parsed payload awaiting its build: each domain with a map
// cell, listed by owning shard in picks, and in vals, per map cell in
// domain then period order, what cellState has no room for — the map's
// scan count, the stable count, then the classification's deployment
// indexes, transients' first, into a map not built yet.
type restore struct {
	domains []restoreDomain
	picks   [][]int
	vals    []uint64
}

// rosterKey returns the roster's own string for name, or a copy of name
// when the sorted roster does not hold it.
func rosterKey(roster []dnscore.Name, name []byte) dnscore.Name {
	j := sort.Search(len(roster), func(k int) bool { return string(roster[k]) >= string(name) })
	if j < len(roster) && string(roster[j]) == string(name) {
		return roster[j]
	}
	return dnscore.Name(name)
}

// restoreDomain is a parsed domain, lo its first cell's offset in vals.
// name is a view into the payload.
type restoreDomain struct {
	name    []byte
	dc      *domainCells
	lo      int
	visited bool // the build's walk reached it
}

// parseCell reads what encodeCell wrote, into ps and, for a cell with a
// map, a classification awaiting its map. A cell holds a map exactly when
// its window prefix holds records, and every map a classification.
func (st *restore) parseCell(r *wire.Reader, domain []byte, period simtime.Period, ps *cellState) error {
	ps.built, ps.recCount = true, int(r.Uvarint())
	switch hasMap := r.Bool(); {
	case r.Err() != nil:
		return r.Err()
	case hasMap != (ps.recCount > 0):
		return fmt.Errorf("%w: %s %v map=%v over %d records", ErrCacheState, domain, period, hasMap, ps.recCount)
	case !hasMap:
		return nil
	}
	head := len(st.vals)
	st.vals = append(st.vals, r.Uvarint(), 0)
	if !r.Bool() && r.Err() == nil {
		return fmt.Errorf("%w: %s %v map without a classification", ErrCacheState, domain, period)
	}
	class := &Classification{Category: Category(r.Uvarint()), Pattern: Pattern(r.Uvarint())}
	for i, n := 0, r.Count(); i < n; i++ {
		st.vals = append(st.vals, r.Uvarint())
		class.TransientPatterns = append(class.TransientPatterns, Pattern(r.Uvarint()))
	}
	if class.Category > CategoryNoisy || class.Pattern > PatternT2 ||
		slices.ContainsFunc(class.TransientPatterns, func(p Pattern) bool { return p > PatternT2 }) {
		return fmt.Errorf("%w: %s %v classification enums", ErrCacheState, domain, period)
	}
	st.vals[head+1] = uint64(r.Count())
	for i := uint64(0); i < st.vals[head+1]; i++ {
		st.vals = append(st.vals, r.Uvarint())
	}
	ps.class = class
	return r.Err()
}

// build rebuilds every parsed map on one walk of ds's shards across
// GOMAXPROCS workers, each reading through its shard's cursor and keying
// the domains it reaches into byShard[sid], and returns the first refusal
// in shard order, then any domain the walk never reached.
func (st *restore) build(ds *scanner.Dataset, byShard []map[dnscore.Name]*domainCells) error {
	errs := make([]error, ds.Shards())
	parallelFor(len(errs), runtime.GOMAXPROCS(0), func(sid int) {
		errs[sid] = st.buildShard(ds.ShardView(sid), st.picks[sid], byShard[sid])
	})
	for i := range st.domains {
		if rd := &st.domains[i]; !rd.visited {
			errs = append(errs, fmt.Errorf("%w: %s is not in the dataset", ErrCacheState, rd.name))
		}
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// buildShard builds the maps of the picked domains and keys each in cells
// on its roster string. They ascend, as the shard's roster does, so one
// pass over both finds each domain's rank.
func (st *restore) buildShard(v scanner.ShardView, picks []int, cells map[dnscore.Name]*domainCells) error {
	roster, cur, j := v.Domains(), v.Cursor(), 0
	for _, k := range picks {
		rd := &st.domains[k]
		for j < len(roster) && string(roster[j]) < string(rd.name) {
			j++
		}
		if j == len(roster) || string(roster[j]) != string(rd.name) {
			continue
		}
		rd.visited = true
		domain := roster[j]
		cells[domain] = rd.dc
		cur.Seek(j)
		vals := st.vals[rd.lo:]
		for pi := range rd.dc.cells {
			ps, period := &rd.dc.cells[pi], simtime.Period(pi)
			if ps.recCount == 0 {
				continue
			}
			window := cur.Records(period.Start(), period.End())
			if len(window) < ps.recCount {
				return fmt.Errorf("%w: %s %v window %d < recCount %d", ErrCacheState, rd.name, period, len(window), ps.recCount)
			}
			class, ntrans := ps.class, len(ps.class.TransientPatterns)
			m := keepCell(cur, domain, period, window[:ps.recCount], int(vals[0]), ps)
			refs := vals[2 : 2+ntrans+int(vals[1])]
			for i, di := range refs {
				if di >= uint64(len(m.Deployments)) {
					return fmt.Errorf("%w: %s %v deployment ref", ErrCacheState, rd.name, period)
				}
				if i < ntrans {
					class.Transients = append(class.Transients, m.Deployments[di])
				} else {
					class.Stables = append(class.Stables, m.Deployments[di])
				}
			}
			class.Map, ps.class, vals = m, class, vals[2+len(refs):]
		}
	}
	return nil
}

// Generation returns the dataset generation the cache last validated
// against (0 for a fresh cache). Exposed for the durability layer's
// snapshot bookkeeping.
func (c *ClassifyCache) Generation() uint64 { return c.gen }
