package main

import (
	"fmt"
	"sort"
	"time"

	"retrodns/internal/report"
)

// minGatedStageWall is the noise floor for per-stage timing gates: a
// stage whose baseline wall time is below this is too fast to measure a
// 20% regression reliably from a single run, so it is reported but not
// gated. Benchmark samples have no floor — the testing package already
// averages them over N iterations.
const minGatedStageWall = 50 * time.Millisecond

// Result is the outcome of one baseline comparison.
type Result struct {
	// Failures are gate violations; any entry fails the build.
	Failures []string
	// Info lines narrate what was compared and what moved.
	Info []string
}

// compare applies the gates: funnel counts must match exactly, timings
// (bench ns/op; stage wall times above the noise floor) must not regress
// past tol, and load samples must hold their p99 and QPS.
func compare(baseline, current *report.RunReport, tol float64) Result {
	var res Result
	res.compareFunnel(baseline, current)
	res.compareStages(baseline, current, tol)
	res.compareBench(baseline, current, tol)
	res.compareLoad(baseline, current, tol)
	return res
}

// compareFunnel enforces zero drift across the union of funnel keys —
// plus the quarantine total, which is equally deterministic on the
// seeded world.
func (res *Result) compareFunnel(baseline, current *report.RunReport) {
	if len(current.Funnel) == 0 {
		if len(baseline.Funnel) > 0 {
			res.Info = append(res.Info, "no fresh run report given: funnel drift not checked")
		}
		return
	}
	keys := make(map[string]bool, len(baseline.Funnel))
	for k := range baseline.Funnel {
		keys[k] = true
	}
	for k := range current.Funnel {
		keys[k] = true
	}
	sorted := make([]string, 0, len(keys))
	for k := range keys {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)
	matched := 0
	for _, k := range sorted {
		b, inB := baseline.Funnel[k]
		c, inC := current.Funnel[k]
		switch {
		case !inB:
			res.Failures = append(res.Failures, fmt.Sprintf("funnel %s: new count %d absent from baseline (regenerate the baseline if intended)", k, c))
		case !inC:
			res.Failures = append(res.Failures, fmt.Sprintf("funnel %s: baseline count %d missing from fresh run", k, b))
		case b != c:
			res.Failures = append(res.Failures, fmt.Sprintf("funnel %s: %d -> %d (drift on the seeded world)", k, b, c))
		default:
			matched++
		}
	}
	if baseline.Quarantine.Total != current.Quarantine.Total {
		res.Failures = append(res.Failures, fmt.Sprintf("quarantine total: %d -> %d", baseline.Quarantine.Total, current.Quarantine.Total))
	}
	res.Info = append(res.Info, fmt.Sprintf("funnel: %d/%d counts match", matched, len(sorted)))
}

// compareStages gates wall-time regressions for stages slow enough to
// measure, matching stages by name.
func (res *Result) compareStages(baseline, current *report.RunReport, tol float64) {
	if len(current.Stages) == 0 || len(baseline.Stages) == 0 {
		return
	}
	byName := make(map[string]report.StageReport, len(baseline.Stages))
	for _, s := range baseline.Stages {
		byName[s.Name] = s
	}
	for _, c := range current.Stages {
		b, ok := byName[c.Name]
		if !ok || b.WallNS <= 0 {
			continue
		}
		ratio := float64(c.WallNS) / float64(b.WallNS)
		line := fmt.Sprintf("stage %s: %s -> %s (%+.1f%%)", c.Name,
			time.Duration(b.WallNS).Round(time.Microsecond),
			time.Duration(c.WallNS).Round(time.Microsecond), (ratio-1)*100)
		if ratio > 1+tol && time.Duration(b.WallNS) >= minGatedStageWall {
			res.Failures = append(res.Failures, line)
			continue
		}
		res.Info = append(res.Info, line)
	}
}

// ioBoundBench names benchmark samples whose inner loop is bound by the
// page cache and fault latency rather than the CPU: a single run cannot
// hold the 20% timing gate (observed swings approach 2x on loaded
// runners), so their ns/op gate is widened by ioBoundTolFactor. Their
// allocs/op are deterministic and stay on the normal gate, which is
// what catches real segment-read regressions — an extra copy or a
// reintroduced per-window allocation.
var ioBoundBench = map[string]bool{
	"BenchmarkSegmentRead/mmap":   true,
	"BenchmarkSegmentRead/stream": true,
}

// ioBoundTolFactor widens the timing tolerance for ioBoundBench samples
// (default 20% -> 100%).
const ioBoundTolFactor = 5

// allocTol is the gate for allocs/op regressions. Allocation counts are
// deterministic (no timer noise), but GC-triggered map growth and pool
// warm-up still wobble a few percent across runs; 20% headroom gates real
// regressions — a dropped arena, a reintroduced per-record map — without
// flaking on noise.
const allocTol = 0.20

// foldBench reduces a benchmark's repeated lines (several passes appended
// to one file, or -count=N) to one sample, in order of first appearance:
// the fastest ns/op (with its iteration count) and the lowest measured
// allocs/op. A single run's ns/op swings past the timing gate on a shared
// box with nothing changed; interference only ever adds time, so the
// fastest of a few repeats is the figure that repeats. The allocs/op gate
// then holds that floor to the baseline's. Applied once, where bench output
// is read (loadCurrent), so the recorded baseline is folded too.
func foldBench(samples []report.BenchSample) []report.BenchSample {
	at := make(map[string]int, len(samples))
	out := make([]report.BenchSample, 0, len(samples))
	for _, s := range samples {
		i, seen := at[s.Name]
		if !seen {
			at[s.Name] = len(out)
			out = append(out, s)
			continue
		}
		best := &out[i]
		allocs := best.AllocsPerOp
		if s.AllocsPerOp > 0 && (allocs <= 0 || s.AllocsPerOp < allocs) {
			allocs = s.AllocsPerOp
		}
		if s.NsPerOp < best.NsPerOp {
			*best = s
		}
		best.AllocsPerOp = allocs
	}
	return out
}

// compareBench gates ns/op and allocs/op regressions for benchmarks
// present on both sides; benchmarks that appear or disappear are
// informational, since the bench selection legitimately changes, but each
// one is named, so a renamed or split benchmark cannot drop its gate
// unseen. The alloc gate only fires when both sides measured allocations
// (ran with -benchmem), so old baselines without the column stay valid.
func (res *Result) compareBench(baseline, current *report.RunReport, tol float64) {
	if len(current.Bench) == 0 || len(baseline.Bench) == 0 {
		return
	}
	byName := make(map[string]report.BenchSample, len(baseline.Bench))
	for _, s := range baseline.Bench {
		byName[s.Name] = s
	}
	ran := make(map[string]bool, len(current.Bench))
	for _, c := range current.Bench {
		ran[c.Name] = true
	}
	for _, b := range baseline.Bench {
		if !ran[b.Name] {
			res.Info = append(res.Info, fmt.Sprintf("bench %s: in the baseline, not in this run: ungated", b.Name))
		}
	}
	for _, c := range current.Bench {
		b, ok := byName[c.Name]
		if !ok {
			res.Info = append(res.Info, fmt.Sprintf("bench %s: new benchmark, no baseline", c.Name))
			continue
		}
		if b.NsPerOp <= 0 {
			continue
		}
		effTol := tol
		if ioBoundBench[c.Name] {
			effTol = tol * ioBoundTolFactor
		}
		ratio := c.NsPerOp / b.NsPerOp
		line := fmt.Sprintf("bench %s: %.0f -> %.0f ns/op (%+.1f%%)", c.Name, b.NsPerOp, c.NsPerOp, (ratio-1)*100)
		if ratio > 1+effTol {
			res.Failures = append(res.Failures, line)
		} else {
			res.Info = append(res.Info, line)
		}
		if b.AllocsPerOp > 0 && c.AllocsPerOp > 0 {
			aratio := c.AllocsPerOp / b.AllocsPerOp
			aline := fmt.Sprintf("bench %s: %.0f -> %.0f allocs/op (%+.1f%%)", c.Name, b.AllocsPerOp, c.AllocsPerOp, (aratio-1)*100)
			if aratio > 1+allocTol {
				res.Failures = append(res.Failures, aline)
				continue
			}
			res.Info = append(res.Info, aline)
		}
	}
}

// compareLoad gates serving load samples by name: p99 latency may not
// regress past tol, and achieved QPS may not fall below baseline ×
// (1 - tol). Unlike bench samples, a baseline load sample missing from
// the fresh run is a failure — the smoke script always emits the same
// labeled sample set, so absence means the measurement silently broke,
// which must not read as a pass.
func (res *Result) compareLoad(baseline, current *report.RunReport, tol float64) {
	if len(baseline.Load) == 0 {
		if len(current.Load) > 0 {
			res.Info = append(res.Info, fmt.Sprintf("load: %d samples, no baseline to gate against", len(current.Load)))
		}
		return
	}
	if len(current.Load) == 0 {
		res.Info = append(res.Info, "no fresh load report given: load gate not checked")
		return
	}
	byName := make(map[string]report.LoadSample, len(current.Load))
	for _, s := range current.Load {
		byName[s.Name] = s
	}
	for _, b := range baseline.Load {
		c, ok := byName[b.Name]
		if !ok {
			res.Failures = append(res.Failures, fmt.Sprintf("load %s: baseline sample missing from fresh run", b.Name))
			continue
		}
		delete(byName, b.Name)
		if b.P99NS > 0 {
			ratio := float64(c.P99NS) / float64(b.P99NS)
			line := fmt.Sprintf("load %s: p99 %s -> %s (%+.1f%%)", b.Name,
				time.Duration(b.P99NS).Round(time.Microsecond),
				time.Duration(c.P99NS).Round(time.Microsecond), (ratio-1)*100)
			if ratio > 1+tol {
				res.Failures = append(res.Failures, line)
			} else {
				res.Info = append(res.Info, line)
			}
		}
		if b.QPS > 0 {
			ratio := c.QPS / b.QPS
			line := fmt.Sprintf("load %s: %.0f -> %.0f qps (%+.1f%%)", b.Name, b.QPS, c.QPS, (ratio-1)*100)
			if ratio < 1-tol {
				res.Failures = append(res.Failures, line)
			} else {
				res.Info = append(res.Info, line)
			}
		}
		if c.Errors > 0 {
			res.Failures = append(res.Failures, fmt.Sprintf("load %s: %d error responses", b.Name, c.Errors))
		}
	}
	for name := range byName {
		res.Info = append(res.Info, fmt.Sprintf("load %s: new sample, no baseline", name))
	}
}

// compareMinSpeedup enforces required improvements: for every
// name=factor pair, the fresh benchmark must run at least factor× faster
// than the committed baseline. A sample missing from either side fails —
// an absent measurement must not satisfy an improvement requirement.
func (res *Result) compareMinSpeedup(baseline, current *report.RunReport, speedups map[string]float64) {
	if len(speedups) == 0 {
		return
	}
	base := make(map[string]report.BenchSample, len(baseline.Bench))
	for _, s := range baseline.Bench {
		base[s.Name] = s
	}
	cur := make(map[string]report.BenchSample, len(current.Bench))
	for _, s := range current.Bench {
		cur[s.Name] = s
	}
	names := make([]string, 0, len(speedups))
	for name := range speedups {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		factor := speedups[name]
		b, inB := base[name]
		c, inC := cur[name]
		switch {
		case !inB:
			res.Failures = append(res.Failures, fmt.Sprintf("min-speedup %s: not in baseline", name))
		case !inC:
			res.Failures = append(res.Failures, fmt.Sprintf("min-speedup %s: not in fresh bench output", name))
		case b.NsPerOp <= 0 || c.NsPerOp <= 0:
			res.Failures = append(res.Failures, fmt.Sprintf("min-speedup %s: unusable ns/op (%.0f -> %.0f)", name, b.NsPerOp, c.NsPerOp))
		default:
			got := b.NsPerOp / c.NsPerOp
			line := fmt.Sprintf("min-speedup %s: %.0f -> %.0f ns/op (%.2fx, need %.2fx)", name, b.NsPerOp, c.NsPerOp, got, factor)
			if got < factor {
				res.Failures = append(res.Failures, line)
			} else {
				res.Info = append(res.Info, line)
			}
		}
	}
}
