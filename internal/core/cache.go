package core

import (
	"fmt"
	"math"
	"math/bits"
	"time"

	"retrodns/internal/dnscore"
	"retrodns/internal/obsv"
	"retrodns/internal/scanner"
	"retrodns/internal/simtime"
)

// cellState caches one (domain, period) analysis cell: the deployment map,
// its classification, and enough of the record window's shape to validate
// an incremental extension on the next run.
type cellState struct {
	// built marks that the cell has been computed at least once (a built
	// cell with a nil map means the domain has no records in the period).
	built bool
	m     *DeploymentMap
	class *Classification
	// recCount and lastRec snapshot the record window the map was built
	// from: an extension is valid only if the current window begins with
	// the same recCount records (checked by pointer identity on the last
	// one) — otherwise records merged out of order and the cell rebuilds.
	recCount int
	lastRec  *scanner.Record
}

// domainCells holds one domain's cells as a fixed array so parallel
// workers touch disjoint memory with no shared map writes.
type domainCells struct {
	cells [simtime.NumPeriods]cellState
	// byPeriod is the domain's category history as last published into a
	// Result — by value, so a Result handed out by an earlier run keeps its
	// snapshot even as later Appends re-run the pipeline (asserted by
	// TestCachedHistoryNotAliased).
	byPeriod PeriodCategories
}

// ClassifyCache memoizes the build-and-classify stage of Pipeline.Run
// across runs over the same dataset. Keyed by (domain, period) cell and
// validated against the dataset's generation and a fingerprint of the
// effective Params: clean cells replay their cached Classification
// verbatim, cells the dataset journaled as dirty re-enter BuildMap (as an
// incremental extension when the new records merely extend the window),
// and cells in a period that gained a scan date re-classify against the
// period's new scan roster. A params change invalidates classifications
// but keeps the maps — maps depend only on the records.
//
// The cache is owned by at most one Pipeline at a time: Run mutates it
// without locking (the per-cell work is partitioned per domain across the
// worker pool). Result.History is safe to retain across Appends: every Run
// fills a map of its own with category histories held by value. Deployment
// maps inside Candidates and Classifications, by contrast, still alias
// cache-owned state that an incremental extension may update in place;
// consume those before the next Append.
type ClassifyCache struct {
	dataset  *scanner.Dataset
	gen      uint64
	paramsFP string
	byDomain map[dnscore.Name]*domainCells
}

// NewClassifyCache returns an empty cache ready to attach to a Pipeline.
func NewClassifyCache() *ClassifyCache {
	return &ClassifyCache{byDomain: make(map[dnscore.Name]*domainCells)}
}

// fingerprint canonicalizes Params for cache validation with an explicit
// field-by-field encoding. Every field MUST appear here: a field missing
// from the fingerprint would silently stop invalidating cached
// classifications when it changes (TestParamsFingerprintCoversAllFields
// enforces this by reflection). Floats encode as exact bit patterns so
// distinct values can never collide through decimal rounding.
func (p Params) fingerprint() string {
	return fmt.Sprintf("v1:tmd=%d;smd=%d;ems=%d;mp=%016x;mtp=%d;isd=%d;dsg=%t;sp=%t",
		p.TransientMaxDays,
		p.StableMinDays,
		p.EdgeMarginScans,
		math.Float64bits(p.MinPresence),
		p.MaxTransientPeriods,
		p.InspectSlackDays,
		p.DisableSensitiveGate,
		p.StitchPeriods)
}

// reset clears the cache for a new dataset.
func (c *ClassifyCache) reset(ds *scanner.Dataset) {
	c.dataset = ds
	c.gen = 0
	c.paramsFP = ""
	c.byDomain = make(map[dnscore.Name]*domainCells)
}

// classifyCached is the cached counterpart of Run's build-and-classify
// stage, shard-affine like the cold path: workers claim whole shards and
// walk them through pinned views, filling per-domain classifyOut slots
// exactly as the cold path does — same maps, same classifications, same
// order — reusing cached cells where the dataset's dirty journal proves
// nothing changed. Cached cells are retained across runs, so this path
// never touches an arena. The dirty journal is read where it lives: each
// worker asks its shard's pinned view for a domain's dirty periods as it
// reaches the domain. It returns the workers' summed busy time, the
// journaled dirty-cell count, and the per-shard fragments.
func (p *Pipeline) classifyCached(params Params, workers int, periods []simtime.Period, scansByPeriod map[simtime.Period][]simtime.Date, sp *obsv.Span) (busy time.Duration, dirtyCells int, frags []shardClassifyOut) {
	cache := p.Cache
	if cache.dataset != p.Dataset || cache.byDomain == nil {
		cache.reset(p.Dataset)
	}
	fp := params.fingerprint()
	paramsChanged := cache.gen != 0 && cache.paramsFP != fp

	// What changed since the cached generation: cells that gained records
	// rebuild or extend; periods that gained a scan date re-classify every
	// cell against the new scan roster (presence and edge checks shift even
	// for domains with no new records).
	since, tracked := cache.gen, cache.gen != 0
	var periodMask uint16
	if tracked {
		periodMask = p.Dataset.DirtyPeriodMask(since)
	}

	// Cell containers are created serially — workers then write only into
	// their own shard's domains' fixed-size cell arrays.
	nsh := p.Dataset.Shards()
	frags = make([]shardClassifyOut, nsh)
	dirtyBy := make([]int, nsh)
	views := make([]scanner.ShardView, nsh)
	cells := make([][]*domainCells, nsh)
	for sid := 0; sid < nsh; sid++ {
		v := p.Dataset.ShardView(sid)
		views[sid] = v
		doms := v.Domains()
		frags[sid].domains = doms
		frags[sid].outs = make([]classifyOut, len(doms))
		dcs := make([]*domainCells, len(doms))
		for i, domain := range doms {
			dc := cache.byDomain[domain]
			if dc == nil {
				dc = &domainCells{}
				cache.byDomain[domain] = dc
			}
			dcs[i] = dc
		}
		cells[sid] = dcs
	}

	busy = parallelForWorkers(nsh, workers, func(_, sid int) {
		start := time.Now()
		child := sp.Child(shardSpanName(sid))
		f := &frags[sid]
		v := views[sid]
		for i, domain := range f.domains {
			dc := cells[sid][i]
			o := &f.outs[i]
			var mask uint16
			if tracked {
				mask = v.DirtyMask(i, since)
				dirtyBy[sid] += bits.OnesCount16(mask)
			}
			for _, period := range periods {
				ps := &dc.cells[period]
				bit := uint16(1) << uint(period)
				scans := scansByPeriod[period]
				switch {
				case !ps.built:
					rebuildCell(v, params, domain, period, scans, ps)
					if ps.m != nil {
						o.misses++
					}
				case mask&bit != 0:
					extendCell(v, params, domain, period, scans, ps)
					if ps.m != nil {
						o.misses++
					}
				case periodMask&bit != 0 || paramsChanged:
					if ps.m != nil {
						ps.m.TotalScans = len(scans)
						ps.class = params.Classify(ps.m, scans)
						o.misses++
					}
				default:
					if ps.m != nil {
						o.hits++
					}
				}
				if ps.m == nil {
					continue
				}
				o.maps++
				dc.byPeriod.Set(period, ps.class.Category)
				if ps.class.Category == CategoryTransient {
					o.transients = append(o.transients, ps.class)
				}
			}
			o.byPeriod = dc.byPeriod
		}
		f.fold()
		f.finish(child, start)
	})
	cache.gen = p.Dataset.Generation()
	cache.paramsFP = fp
	for _, n := range dirtyBy {
		dirtyCells += n
	}
	return busy, dirtyCells, frags
}

// rebuildCell computes a cell from scratch over its full record window,
// read through the owning shard's view. Cached maps are retained across
// runs, so storage comes from the heap (nil arena), never a recycler.
func rebuildCell(v scanner.ShardView, params Params, domain dnscore.Name, period simtime.Period, scans []simtime.Date, ps *cellState) {
	window := v.DomainRecords(domain, period.Start(), period.End())
	ps.built = true
	ps.recCount = len(window)
	if len(window) == 0 {
		ps.m, ps.class, ps.lastRec = nil, nil, nil
		return
	}
	ps.lastRec = window[len(window)-1]
	ps.m = buildMapFrom(domain, period, window, len(scans), nil)
	ps.class = params.Classify(ps.m, scans)
}

// extendCell folds a dirty cell's new records into its cached map when the
// window grew by pure append (the cached prefix is untouched); any other
// shape — out-of-order merge, shrink — falls back to a full rebuild. The
// pointer-identity validation and the in-place mergeRecords both operate
// on the slice-set deployment representation: growth appends into the
// retained map's sorted/first-seen slices exactly as a cold build would.
func extendCell(v scanner.ShardView, params Params, domain dnscore.Name, period simtime.Period, scans []simtime.Date, ps *cellState) {
	window := v.DomainRecords(domain, period.Start(), period.End())
	if ps.m == nil || len(window) < ps.recCount || ps.recCount == 0 ||
		window[ps.recCount-1] != ps.lastRec {
		rebuildCell(v, params, domain, period, scans, ps)
		return
	}
	mergeRecords(ps.m, window[ps.recCount:])
	ps.m.TotalScans = len(scans)
	ps.recCount = len(window)
	ps.lastRec = window[len(window)-1]
	ps.class = params.Classify(ps.m, scans)
}
