package core

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"retrodns/internal/ctlog"
	"retrodns/internal/dnscore"
	"retrodns/internal/dnssecmon"
	"retrodns/internal/ipmeta"
	"retrodns/internal/obsv"
	"retrodns/internal/pdns"
	"retrodns/internal/scanner"
	"retrodns/internal/simtime"
)

// Pipeline wires the five methodology steps over the input data sets, the
// way Figure 1 of the paper composes them.
type Pipeline struct {
	Params  Params
	Dataset *scanner.Dataset
	Meta    *ipmeta.Directory
	PDNS    *pdns.DB
	CT      *ctlog.Log
	// DNSSEC optionally supplies the §7.1 validation-status monitor log.
	DNSSEC *dnssecmon.Log
	// DisablePivot skips step five (ablation: how much does the pivot
	// contribute?). T1* reuse promotion is also disabled, since it feeds
	// on pivot-confirmed infrastructure.
	DisablePivot bool
	// Workers bounds the fan-out of the map-building/classification,
	// stitching, and inspection stages, which are independent per domain
	// (or per candidate) and merge deterministically. <= 0 means
	// runtime.GOMAXPROCS(0). The result is byte-identical regardless of
	// the setting.
	Workers int
	// Cache, when set, memoizes build-and-classify across Runs over the
	// same dataset: only cells the dataset journaled as dirty since the
	// last analyzed generation recompute, the rest replay verbatim. The
	// Result stays byte-identical to an uncached run (asserted by
	// TestIncrementalReplayEquivalence). A cache belongs to one pipeline
	// at a time: Run mutates it without locking.
	Cache *ClassifyCache
	// Metrics, when set, receives the funnel gauges, cache counters, and
	// per-stage timing series of every Run (family names in metrics.go).
	// The registry may be shared with the dataset and evidence sources
	// and scraped concurrently; nil disables publication entirely.
	Metrics *obsv.Registry
}

// periodScans is each analyzed period's scan roster, by period.
type periodScans [simtime.NumPeriods][]simtime.Date

// classifyOut is one domain's slot of the build-and-classify stage: both
// the cold and the cached path fill these identically, so the merge below
// them is shared.
type classifyOut struct {
	byPeriod     PeriodCategories
	maps         int
	transients   []*Classification
	hits, misses int
}

// workerCount resolves the Workers knob.
func (p *Pipeline) workerCount() int {
	if p.Workers > 0 {
		return p.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// FunnelStats counts every stage of the pipeline, mirroring the numbers the
// paper reports in §4.2–§4.5.
type FunnelStats struct {
	// Domains is the number of registered domains with deployment maps.
	Domains int
	// Maps is the number of (domain, period) maps built.
	Maps int
	// DomainCategories rolls categories up per domain (the paper's 96.5%
	// stable / 2.95% transition / 0.13% transient / 0.35% noisy split).
	DomainCategories map[Category]int
	// MapCategories counts per-map classifications.
	MapCategories map[Category]int
	// Shortlisted is the candidate count surviving §4.3 (8143 analogue);
	// ShortlistedAnomalous the truly-anomalous subset (47 analogue).
	Shortlisted          int
	ShortlistedAnomalous int
	// PruneCounts tallies shortlist rejections by reason.
	PruneCounts map[PruneReason]int
	// WorthExamining counts candidates with relevant pDNS/CT data (1256
	// analogue) — every candidate whose inspection got past the no-data
	// gate.
	WorthExamining int
	// Outcomes tallies inspection outcomes.
	Outcomes map[InspectOutcome]int
	// ByMethod tallies final hijacked findings per identification method.
	ByMethod map[Method]int
	// PivotFound counts domains identified only by pivoting.
	PivotFound int
	// Stitched counts boundary-straddling transients recovered by the
	// cross-period extension (0 unless Params.StitchPeriods).
	Stitched int
}

// String renders the funnel like the paper's running totals.
func (s FunnelStats) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "domains=%d maps=%d\n", s.Domains, s.Maps)
	fmt.Fprintf(&sb, "domain categories: stable=%d transition=%d transient=%d noisy=%d\n",
		s.DomainCategories[CategoryStable], s.DomainCategories[CategoryTransition],
		s.DomainCategories[CategoryTransient], s.DomainCategories[CategoryNoisy])
	fmt.Fprintf(&sb, "shortlisted=%d (truly anomalous=%d) worth-examining=%d\n",
		s.Shortlisted, s.ShortlistedAnomalous, s.WorthExamining)
	fmt.Fprintf(&sb, "outcomes: hijacked=%d targeted=%d pending=%d inconclusive=%d no-data=%d\n",
		s.Outcomes[OutcomeHijacked], s.Outcomes[OutcomeTargeted], s.Outcomes[OutcomePendingReuse],
		s.Outcomes[OutcomeInconclusive], s.Outcomes[OutcomeNoData])
	fmt.Fprintf(&sb, "pivot found=%d\n", s.PivotFound)
	return sb.String()
}

// Result is the pipeline's full output.
type Result struct {
	Funnel FunnelStats
	// Hijacked and Targeted are the final verdict lists (Tables 2 and 3),
	// sorted like the paper's tables.
	Hijacked []*Finding
	Targeted []*Finding
	// Candidates carries every shortlisted candidate for diagnostics.
	Candidates []*Candidate
	// History maps every observed domain to its per-period category.
	History map[dnscore.Name]PeriodCategories
	// roster is the dataset's sorted domain list as Run walked it (a
	// superset of History's keys), kept so Export need not sort them again.
	roster []dnscore.Name
	// Stats carries the per-stage wall-clock and throughput counters of
	// this run. Execution metadata only: excluded from determinism
	// comparisons.
	Stats PipelineStats
	// Trace is the run's span tree: a pipeline.run root with one child
	// per stage, carrying the same wall/busy numbers as Stats.Stages.
	// Execution metadata only, like Stats.
	Trace *obsv.Span
}

// Findings returns hijacked and targeted findings together.
func (r *Result) Findings() []*Finding {
	out := make([]*Finding, 0, len(r.Hijacked)+len(r.Targeted))
	out = append(out, r.Hijacked...)
	out = append(out, r.Targeted...)
	return out
}

// Run executes the whole methodology and returns the result.
//
// The map-building/classification, stitching, and inspection stages fan
// out over Workers goroutines: each unit (domain or candidate) is
// independent, results land in per-index slots, and the merge walks those
// slots in input order, so the Result is byte-identical for any Workers
// setting (asserted by TestPipelineDeterminism).
func (p *Pipeline) Run() *Result {
	params := p.Params
	if params.IsZero() {
		params = DefaultParams()
	}
	workers := p.workerCount()

	res := &Result{
		Funnel: FunnelStats{
			DomainCategories: make(map[Category]int),
			MapCategories:    make(map[Category]int),
			PruneCounts:      make(map[PruneReason]int),
			Outcomes:         make(map[InspectOutcome]int),
			ByMethod:         make(map[Method]int),
		},
		Stats: PipelineStats{Workers: workers, Shards: p.Dataset.Shards()},
	}
	describeMetrics(p.Metrics)
	root := obsv.StartSpan("pipeline.run")
	res.Trace = root
	// stage closes sp, folds the parallel busy time in (serial stages
	// pass 0 and inherit their wall time), records the StageStats row,
	// and publishes the per-stage metric series.
	stage := func(sp *obsv.Span, items, stageWorkers int, busy time.Duration) {
		sp.AddBusy(busy)
		wall := sp.End()
		res.Stats.Stages = append(res.Stats.Stages, StageStats{
			Name: sp.Name(), Items: items, Wall: wall, Busy: sp.Busy(), Workers: stageWorkers,
		})
		if m := p.Metrics; m != nil {
			m.Gauge(MetricStageItems, "stage", sp.Name()).Set(int64(items))
			m.Histogram(MetricStageWallSec, obsv.DurationBuckets, "stage", sp.Name()).Observe(wall.Seconds())
			m.Histogram(MetricStageBusySec, obsv.DurationBuckets, "stage", sp.Name()).Observe(sp.Busy().Seconds())
		}
	}

	// Index the dataset: one-time per-domain sort, after which every
	// period-window read below is a lock-free binary search.
	sp := root.Child("freeze")
	p.Dataset.Freeze()
	domains := p.Dataset.Domains()
	res.roster = domains
	res.History = make(map[dnscore.Name]PeriodCategories, len(domains))
	res.Stats.Quarantined = p.Dataset.Quarantine().Total
	stage(sp, len(domains), 1, 0)

	// Step 1 + 2: build and classify deployment maps per period, fanned
	// out per domain.
	sp = root.Child("classify")
	periods := p.Dataset.Periods()
	var scansByPeriod periodScans
	for _, period := range periods {
		scansByPeriod[period] = p.Dataset.ScanDates(period.Start(), period.End())
	}
	res.Funnel.Domains = len(domains)
	var busy time.Duration
	var frags []shardClassifyOut
	switch {
	case p.Cache != nil:
		busy, res.Stats.DirtyCells, frags = p.classifyCached(params, workers, periods, scansByPeriod, sp)
		res.Stats.Generation = p.Dataset.Generation()
	default:
		busy, frags = p.classifyShards(params, workers, periods, scansByPeriod, sp)
	}
	transientClasses := mergeClassifyFrags(res, frags)
	res.Stats.ShardSkew = shardSkew(frags)
	res.Stats.SpilledShards = p.Dataset.SpilledShards()
	stage(sp, res.Funnel.Maps, workers, busy)

	if params.StitchPeriods {
		sp = root.Child("stitch")
		stitchFrags := make([][]*Classification, p.Dataset.Shards())
		busy = parallelFor(len(stitchFrags), workers, func(sid int) {
			v := p.Dataset.ShardView(sid)
			cur := v.Cursor()
			for i, domain := range v.Domains() {
				stitchFrags[sid] = append(stitchFrags[sid], stitchDomain(params, cur, i, domain, periods, scansByPeriod, res.History[domain])...)
			}
		})
		stitched := mergeByDomain(stitchFrags)
		transientClasses = append(transientClasses, stitched...)
		res.Funnel.Stitched = len(stitched)
		stage(sp, len(domains), workers, busy)
	}

	// Step 3: shortlist. Serial: cheap, and prune tallies accumulate in
	// classification order.
	sp = root.Child("shortlist")
	shortlister := &Shortlister{Params: params, Orgs: orgsOf(p.Meta), History: res.History}
	for _, c := range transientClasses {
		candidates, pruned := shortlister.Shortlist(c)
		for _, reason := range pruned {
			res.Funnel.PruneCounts[reason]++
		}
		res.Candidates = append(res.Candidates, candidates...)
	}
	res.Funnel.Shortlisted = len(res.Candidates)
	for _, c := range res.Candidates {
		// Count candidates kept *because* of the anomaly rule (the
		// paper's 47), not sensitive candidates that also happen to be
		// anomalous.
		if c.TrulyAnomalous && !c.Sensitive {
			res.Funnel.ShortlistedAnomalous++
		}
	}
	stage(sp, len(transientClasses), 1, 0)

	// Step 4: inspect, fanned out per candidate; outcomes merge in
	// candidate order.
	sp = root.Child("inspect")
	inspector := &Inspector{Params: params, PDNS: p.PDNS, CT: p.CT, DNSSEC: p.DNSSEC}
	type inspectOut struct {
		finding *Finding
		outcome InspectOutcome
	}
	iouts := make([]inspectOut, len(res.Candidates))
	busy = parallelFor(len(res.Candidates), workers, func(i int) {
		f, outcome := inspector.Inspect(res.Candidates[i])
		iouts[i] = inspectOut{f, outcome}
	})
	known := make(map[dnscore.Name]bool)
	var hijacked, targeted, pending []*Finding
	for _, io := range iouts {
		f, outcome := io.finding, io.outcome
		res.Funnel.Outcomes[outcome]++
		if outcome != OutcomeNoData {
			res.Funnel.WorthExamining++
		}
		switch outcome {
		case OutcomeHijacked:
			hijacked = append(hijacked, f)
			known[f.Domain] = true
		case OutcomeTargeted:
			targeted = append(targeted, f)
			known[f.Domain] = true
		case OutcomePendingReuse:
			pending = append(pending, f)
			known[f.Domain] = true
		}
	}
	stage(sp, len(res.Candidates), workers, busy)

	// Step 5: pivot on confirmed infrastructure, then promote T1* reuse.
	// Serial: each iteration consumes the previous one's findings.
	sp = root.Child("pivot")
	pivoter := &Pivoter{Params: params, PDNS: p.PDNS, CT: p.CT, Meta: p.Meta}
	prevCount := -1
	if p.DisablePivot {
		prevCount = len(hijacked) // loop body never runs
	}
	for iter := 0; iter < 4 && len(hijacked) != prevCount; iter++ {
		prevCount = len(hijacked)
		infra := CollectInfrastructure(hijacked)
		// Pending T1 attacker IPs are attacker infrastructure candidates;
		// reuse promotion needs them discoverable by the IP set check.
		pivots := pivoter.Pivot(infra, known)
		hijacked = append(hijacked, pivots...)
		res.Funnel.PivotFound += len(pivots)

		promoted, rest := PromoteReuse(pending, CollectInfrastructure(hijacked))
		hijacked = append(hijacked, promoted...)
		pending = rest
	}
	// Unpromoted pending findings stay out of the tables (the paper only
	// reports T1* when infrastructure reuse confirms them).
	for range pending {
		res.Funnel.Outcomes[OutcomeInconclusive]++
	}

	for _, f := range hijacked {
		res.Funnel.ByMethod[f.Method]++
	}
	SortFindings(hijacked)
	SortFindings(targeted)
	res.Hijacked = hijacked
	res.Targeted = targeted
	stage(sp, res.Funnel.PivotFound, 1, 0)
	res.Stats.Total = root.End()
	p.publishMetrics(res)
	return res
}

func orgsOf(meta *ipmeta.Directory) *ipmeta.OrgTable {
	if meta == nil {
		return nil
	}
	return meta.Orgs
}
