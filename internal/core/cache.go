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

// cellState caches one (domain, period) analysis cell: the classification,
// whose Map is the cell's deployment map, and enough of the record window's
// shape to validate an incremental extension on the next run.
type cellState struct {
	// built marks that the cell has been computed at least once; a built
	// cell without a classification has no records in the period.
	built bool
	class *Classification
	// recCount and lastRec snapshot the record window the map was built
	// from: an extension is valid only if the current window begins with
	// the same recCount records (checked by pointer identity on the last
	// one) — otherwise records merged out of order and the cell rebuilds.
	recCount int
	lastRec  *scanner.Record
}

// domainCells holds one domain's cells as a fixed array: its shard's walk
// writes them without touching another domain's.
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
// verbatim, cells the dataset journaled as dirty are extended or rebuilt
// (extendCell), and cells in a period that gained a scan date re-classify
// against the period's new scan roster. A params change invalidates
// classifications but keeps the maps — maps depend only on the records.
//
// The cache is owned by at most one Pipeline at a time: Run mutates it
// without locking, as each shard's cells are written by the one worker
// walking the shard. Result.History is safe to retain across Appends:
// every Run fills a map of its own with category histories held by value.
// Deployment maps inside Candidates and Classifications, by contrast,
// still alias cache-owned state that an incremental extension may update
// in place; consume those before the next Append.
type ClassifyCache struct {
	dataset  *scanner.Dataset
	gen      uint64
	paramsFP string
	// byShard holds the cells of each dataset shard's domains.
	byShard []map[dnscore.Name]*domainCells
}

// NewClassifyCache returns an empty cache ready to attach to a Pipeline.
func NewClassifyCache() *ClassifyCache { return &ClassifyCache{} }

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

// reset clears the cache for a new dataset, sizing each shard's cell map
// for about n domains.
func (c *ClassifyCache) reset(ds *scanner.Dataset, n int) {
	*c = ClassifyCache{dataset: ds, byShard: make([]map[dnscore.Name]*domainCells, ds.Shards())}
	for sid := range c.byShard {
		c.byShard[sid] = make(map[dnscore.Name]*domainCells, n/len(c.byShard))
	}
}

// classifyCached is the cached counterpart of Run's build-and-classify
// stage: the same shard walk (walkShards) filling the same per-domain slots
// — same maps, same classifications, same order — but reusing the cells
// the dirty journal, read off each shard's pinned view as the walk reaches
// a domain, proves unchanged. A domain's windows are read (its cursor
// Seek) only for a cell that must be built. It returns the workers' summed
// busy time, the journaled dirty-cell count, and the per-shard fragments.
func (p *Pipeline) classifyCached(params Params, workers int, periods []simtime.Period, scansByPeriod periodScans, sp *obsv.Span) (busy time.Duration, dirtyCells int, frags []shardClassifyOut) {
	cache := p.Cache
	if cache.dataset != p.Dataset {
		cache.reset(p.Dataset, 0)
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

	dirtyBy := make([]int, p.Dataset.Shards())
	busy, frags = walkShards(p.Dataset, workers, sp, func(_, sid int, v scanner.ShardView, cur *scanner.WindowCursor, f *shardClassifyOut) {
		cells := cache.byShard[sid]
		for i, domain := range f.domains {
			dc := cells[domain]
			if dc == nil {
				dc = &domainCells{}
				cells[domain] = dc
			}
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
				case !ps.built || mask&bit != 0:
					cur.Seek(i)
					extendCell(cur, params, domain, period, scans, ps)
					if ps.class != nil {
						o.misses++
					}
				case periodMask&bit != 0 || paramsChanged:
					if ps.class != nil {
						ps.class.Map.TotalScans = len(scans)
						ps.class = params.Classify(ps.class.Map, scans)
						o.misses++
					}
				default:
					if ps.class != nil {
						o.hits++
					}
				}
				if ps.class == nil {
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
	})
	cache.gen, cache.paramsFP = p.Dataset.Generation(), fp
	for _, n := range dirtyBy {
		dirtyCells += n
	}
	return busy, dirtyCells, frags
}

// keepCell builds cell ps over window, the records a cursor returned for
// the cell's period, and returns its map (nil over no records): the one
// builder of every cell the cache keeps, for a run's rebuilds and a
// restore's alike. The records are kept past the cursor's next Seek and
// the map is heap-built (nil arena), since a kept map outlives the run;
// the map's classification is the caller's to attach.
func keepCell(cur *scanner.WindowCursor, domain dnscore.Name, period simtime.Period, window []*scanner.Record, totalScans int, ps *cellState) *DeploymentMap {
	cur.Keep(window)
	*ps = cellState{built: true, recCount: len(window)}
	if len(window) == 0 {
		return nil
	}
	ps.lastRec = window[len(window)-1]
	return buildMapFrom(domain, period, window, totalScans, nil)
}

// extendCell brings a cell up to the cursor's current domain. When the
// window grew by pure append — the cached prefix untouched, checked by
// pointer identity on its last record — the new records fold into the
// cached map in place, exactly as a cold build would append them; any
// other window (an unbuilt cell, an out-of-order merge, a shrink, a
// spilled shard's fresh copies) rebuilds the cell whole.
func extendCell(cur *scanner.WindowCursor, params Params, domain dnscore.Name, period simtime.Period, scans []simtime.Date, ps *cellState) {
	window := cur.Records(period.Start(), period.End())
	var m *DeploymentMap
	if ps.class == nil || len(window) < ps.recCount || ps.recCount == 0 ||
		window[ps.recCount-1] != ps.lastRec {
		m = keepCell(cur, domain, period, window, len(scans), ps)
	} else {
		m = ps.class.Map
		grown := window[ps.recCount:]
		cur.Keep(grown)
		mergeRecords(m, grown, nil)
		m.TotalScans = len(scans)
		ps.recCount, ps.lastRec = len(window), window[len(window)-1]
	}
	if m != nil {
		ps.class = params.Classify(m, scans)
	}
}
