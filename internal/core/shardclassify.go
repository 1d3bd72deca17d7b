package core

import (
	"strconv"
	"time"

	"retrodns/internal/dnscore"
	"retrodns/internal/obsv"
	"retrodns/internal/simtime"
)

// Shard-affine build-and-classify. Instead of fanning out per domain over
// the globally merged (and therefore shard-interleaved) domain list, each
// worker claims whole dataset shards: it walks the shard's own sorted
// domain list through a pinned scanner.ShardView — skipping the per-call
// domain hash and snapshot load — and accumulates a shardClassifyOut
// fragment. The fragments then merge deterministically:
//
//   - Funnel partials (map/domain category tallies, map and cache
//     counters) are order-free sums.
//   - History entries are per-domain map inserts — each domain is owned by
//     exactly one shard, so no two fragments write the same key.
//   - Transient classifications are interleaved back into global domain
//     order by mergeByDomain; see its determinism argument.
//
// The result is byte-identical to the legacy per-domain fan-out for any
// (shards, workers) pair, which TestShardCountInvariance and
// TestPipelineLegacyFanoutIdentical assert on report JSON.

// shardClassifyOut is one shard's fragment of the build-and-classify
// stage: the shard's domain list, the per-domain slots (filled exactly as
// the legacy path fills them), and the folded funnel partials.
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

// finish stamps the fragment's busy time onto its classify/shard=K child
// span, making per-shard merge skew visible in the run trace.
func (f *shardClassifyOut) finish(child *obsv.Span, start time.Time) {
	f.busy = time.Since(start)
	child.AddBusy(f.busy)
	child.End()
}

func shardSpanName(sid int) string {
	return "classify/shard=" + strconv.Itoa(sid)
}

// classifyShards is the uncached shard-affine build-and-classify driver.
// Each worker owns whole shards and allocates through a per-worker arena:
// maps and classifications of non-transient cells — the overwhelming
// majority — recycle immediately, so steady state allocates almost nothing
// per record. Only transient classifications (retained in the Result) and
// the per-domain histories survive the stage.
func (p *Pipeline) classifyShards(params Params, workers int, periods []simtime.Period, scansByPeriod map[simtime.Period][]simtime.Date, sp *obsv.Span) (time.Duration, []shardClassifyOut) {
	nsh := p.Dataset.Shards()
	frags := make([]shardClassifyOut, nsh)
	scansOf := make([][]simtime.Date, len(periods))
	for pi, period := range periods {
		scansOf[pi] = scansByPeriod[period]
	}
	aw := workers
	if aw > nsh {
		aw = nsh
	}
	if aw < 1 {
		aw = 1
	}
	arenas := make([]classifyArena, aw)
	busy := parallelForWorkers(nsh, workers, func(w, sid int) {
		start := time.Now()
		child := sp.Child(shardSpanName(sid))
		f := &frags[sid]
		v := p.Dataset.ShardView(sid)
		f.domains = v.Domains()
		f.outs = make([]classifyOut, len(f.domains))
		ar := &arenas[w]
		// The cursor's records are the worker's scratch as the arena's
		// maps are: the next domain overwrites them on a spilled shard.
		cur := v.Cursor()
		for i, domain := range f.domains {
			o := &f.outs[i]
			cur.Seek(i)
			for pi, period := range periods {
				recs := cur.Records(period.Start(), period.End())
				if len(recs) == 0 {
					continue
				}
				scans := scansOf[pi]
				m := buildMapFrom(domain, period, recs, len(scans), ar)
				o.maps++
				c := params.classifyWith(m, scans, ar)
				o.byPeriod.Set(period, c.Category)
				if c.Category == CategoryTransient {
					for _, d := range m.Deployments {
						cur.Keep(d.Records)
					}
					o.transients = append(o.transients, c)
				} else {
					// Nothing retains the map or the classification: the
					// category was copied out, so the whole cell recycles.
					ar.recycle(c)
				}
			}
		}
		f.fold()
		// Shard-batch boundary: drop the arena's free lists so recycled
		// objects never outlive the shard that produced them.
		ar.reset()
		f.finish(child, start)
	})
	return busy, frags
}

// classifyLegacy is the pre-shard-affine per-domain fan-out over the
// globally merged domain list, kept behind Pipeline.LegacyFanout as the
// A/B reference for the byte-identity invariant (scripts/smoke_scale.sh
// diffs its findings against the shard-affine path). It produces a single
// fragment covering every domain, so the downstream merge is shared.
func (p *Pipeline) classifyLegacy(params Params, workers int, domains []dnscore.Name, periods []simtime.Period, scansByPeriod map[simtime.Period][]simtime.Date) (time.Duration, []shardClassifyOut) {
	outs := make([]classifyOut, len(domains))
	busy := parallelFor(len(domains), workers, func(i int) {
		o := &outs[i]
		for _, period := range periods {
			m := BuildMap(p.Dataset, domains[i], period)
			if m == nil {
				continue
			}
			o.maps++
			c := params.Classify(m, scansByPeriod[period])
			o.byPeriod.Set(period, c.Category)
			if c.Category == CategoryTransient {
				o.transients = append(o.transients, c)
			}
		}
	})
	frag := shardClassifyOut{domains: domains, outs: outs}
	frag.fold()
	return busy, []shardClassifyOut{frag}
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
			// Only categories that occur get a key, matching the legacy
			// merge's increment-on-occurrence map shape.
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
// measurable work (including every legacy-fanout run).
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
