package core

import (
	"strconv"
	"time"

	"retrodns/internal/dnscore"
	"retrodns/internal/obsv"
	"retrodns/internal/scanner"
	"retrodns/internal/simtime"
)

// Shard-affine build-and-classify. Each worker claims whole dataset shards
// and walks a shard's own sorted domain list, reading windows through a
// cursor over a pinned scanner.ShardView — no domain hash, no snapshot
// load — into a shardClassifyOut fragment. The fragments merge
// deterministically:
//
//   - Funnel partials (map/domain category tallies, map and cache
//     counters) are order-free sums.
//   - History entries are per-domain map inserts — each domain is owned by
//     exactly one shard, so no two fragments write the same key.
//   - Transient classifications are interleaved back into global domain
//     order by mergeByDomain; see its determinism argument.
//
// The result is byte-identical for any (shards, workers) pair, and equal
// to a single-goroutine reference written straight from the paper's five
// steps (the root package's reference_test.go), which the configuration
// table and fuzz target there assert on findings, funnel, shortlist and
// history.

// shardClassifyOut is one shard's fragment of the build-and-classify
// stage: the shard's domain list, the per-domain slots, and the folded
// funnel partials.
type shardClassifyOut struct {
	domains    []dnscore.Name
	outs       []classifyOut
	transients []*Classification
	maps       int
	hits       int
	misses     int
	mapCats    [CategoryNoisy + 1]int
	domCats    [CategoryNoisy + 1]int
	// busy is the shard's wall time inside its worker, the input of the
	// ShardSkew stat and the shard's child span.
	busy time.Duration
}

// fold aggregates the filled per-domain slots into the fragment's funnel
// partials and flattens the transients in domain order.
func (f *shardClassifyOut) fold() {
	for i := range f.outs {
		o := &f.outs[i]
		f.maps += o.maps
		f.hits += o.hits
		f.misses += o.misses
		for _, c := range o.byPeriod {
			if c != 0 {
				f.mapCats[c-1]++
			}
		}
		f.domCats[o.byPeriod.rollup()]++
		f.transients = append(f.transients, o.transients...)
	}
}

// walkShards is the shard walk of both build-and-classify passes: fn fills a
// shard's fragment, one classifyOut slot per domain of the shard's pinned
// view, through a cursor over the shard; the fragment folds, and the
// shard's busy time lands on its classify/shard=K span, where per-shard
// skew shows.
func walkShards(ds *scanner.Dataset, workers int, sp *obsv.Span, fn func(worker, sid int, v scanner.ShardView, cur *scanner.WindowCursor, f *shardClassifyOut)) (time.Duration, []shardClassifyOut) {
	frags := make([]shardClassifyOut, ds.Shards())
	busy := parallelForWorkers(len(frags), workers, func(w, sid int) {
		start := time.Now()
		child := sp.Child("classify/shard=" + strconv.Itoa(sid))
		f, v := &frags[sid], ds.ShardView(sid)
		f.domains = v.Domains()
		f.outs = make([]classifyOut, len(f.domains))
		fn(w, sid, v, v.Cursor(), f)
		f.fold()
		f.busy = time.Since(start)
		child.AddBusy(f.busy)
		child.End()
	})
	return busy, frags
}

// keepMap makes every record m's deployments hold safe past cur's next
// Seek: the step before a map built off the cursor is retained.
func keepMap(cur *scanner.WindowCursor, m *DeploymentMap) {
	for _, d := range m.Deployments {
		cur.Keep(d.Records)
	}
}

// classifyShards is the uncached build-and-classify pass. Each worker
// allocates through a per-worker arena: maps and classifications of
// non-transient cells — the overwhelming majority — recycle immediately, so
// steady state allocates almost nothing per record. Only transient
// classifications (retained in the Result) and the per-domain histories
// survive the stage.
func (p *Pipeline) classifyShards(params Params, workers int, periods []simtime.Period, scansByPeriod periodScans, sp *obsv.Span) (time.Duration, []shardClassifyOut) {
	arenas := make([]classifyArena, max(1, min(workers, p.Dataset.Shards())))
	return walkShards(p.Dataset, workers, sp, func(w, _ int, _ scanner.ShardView, cur *scanner.WindowCursor, f *shardClassifyOut) {
		ar := &arenas[w]
		// The cursor's records are the worker's scratch as the arena's
		// maps are: the next domain overwrites them on a spilled shard.
		for i, domain := range f.domains {
			o := &f.outs[i]
			cur.Seek(i)
			for _, period := range periods {
				recs := cur.Records(period.Start(), period.End())
				if len(recs) == 0 {
					continue
				}
				scans := scansByPeriod[period]
				m := buildMapFrom(domain, period, recs, len(scans), ar)
				o.maps++
				c := params.classifyWith(m, scans, ar)
				o.byPeriod.Set(period, c.Category)
				if c.Category == CategoryTransient {
					keepMap(cur, m)
					o.transients = append(o.transients, c)
				} else {
					// Nothing retains the map or the classification: the
					// category was copied out, so the whole cell recycles.
					ar.recycle(c)
				}
			}
		}
		// Shard-batch boundary: drop the arena's free lists so recycled
		// objects never outlive the shard that produced them.
		ar.reset()
	})
}

// mergeClassifyFrags folds the shard fragments into the Result — funnel
// partials sum, history fragments insert under disjoint keys — and returns
// the transient classifications restored to global domain order.
func mergeClassifyFrags(res *Result, frags []shardClassifyOut) []*Classification {
	lists := make([][]*Classification, 0, len(frags))
	for i := range frags {
		f := &frags[i]
		res.Funnel.Maps += f.maps
		res.Stats.CacheHits += f.hits
		res.Stats.CacheMisses += f.misses
		for cat := Category(0); cat <= CategoryNoisy; cat++ {
			// Only categories that occur get a key: the funnel's maps are
			// increment-on-occurrence.
			if n := f.mapCats[cat]; n > 0 {
				res.Funnel.MapCategories[cat] += n
			}
			if n := f.domCats[cat]; n > 0 {
				res.Funnel.DomainCategories[cat] += n
			}
		}
		for j, domain := range f.domains {
			if bp := f.outs[j].byPeriod; bp != (PeriodCategories{}) {
				res.History[domain] = bp
			}
		}
		lists = append(lists, f.transients)
	}
	return mergeByDomain(lists)
}

// mergeByDomain interleaves per-shard classification lists into global
// domain order. Determinism argument: (1) each list ascends by Map.Domain,
// because a shard walk ascends the shard's sorted domain list and emits a
// domain's classifications consecutively (period-ascending); (2) the
// domain sets are disjoint across lists, because a registered domain is
// owned by exactly one shard; (3) the global domain list is exactly the
// sorted merge of the shard lists. Therefore picking the smallest head
// domain and draining its full run reproduces, verbatim, the sequence a
// single walk over Dataset.Domains() would have appended.
func mergeByDomain(lists [][]*Classification) []*Classification {
	total, nonEmpty, last := 0, 0, 0
	for i, l := range lists {
		total += len(l)
		if len(l) > 0 {
			nonEmpty, last = nonEmpty+1, i
		}
	}
	if total == 0 {
		return nil
	}
	if nonEmpty == 1 {
		return lists[last]
	}
	out := make([]*Classification, 0, total)
	cur := make([]int, len(lists))
	for len(out) < total {
		best := -1
		var bestDom dnscore.Name
		for i, l := range lists {
			if cur[i] >= len(l) {
				continue
			}
			if d := l[cur[i]].Map.Domain; best < 0 || d < bestDom {
				best, bestDom = i, d
			}
		}
		l := lists[best]
		for cur[best] < len(l) && l[cur[best]].Map.Domain == bestDom {
			out = append(out, l[cur[best]])
			cur[best]++
		}
	}
	return out
}

// shardSkew is the max/min ratio of summed per-shard classify busy time
// over shards that did work — the load-balance figure surfaced as
// PipelineStats.ShardSkew. 0 means "no signal": fewer than two shards did
// measurable work (every single-shard run).
func shardSkew(frags []shardClassifyOut) float64 {
	var minB, maxB time.Duration
	n := 0
	for i := range frags {
		b := frags[i].busy
		if len(frags[i].domains) == 0 || b <= 0 {
			continue
		}
		if n == 0 || b < minB {
			minB = b
		}
		if b > maxB {
			maxB = b
		}
		n++
	}
	if n < 2 || minB <= 0 {
		return 0
	}
	return float64(maxB) / float64(minB)
}
