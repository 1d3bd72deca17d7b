package main

// compare.go is `bench compare a.json b.json`: one row per (workload,
// end-to-end metric) with both medians, the relative difference, the bound
// and a verdict. It is what the two-sets acceptance criterion runs, and what
// a later change runs between the parent's results and its own.

import (
	"flag"
	"fmt"
	"io"
	"sort"
)

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (exclusive method), so the spread
// printed here is the one the driver computes.
func quartiles(v []float64) (q1, q3 float64) {
	s := sortedCopy(v)
	m := len(s)
	if m < 2 {
		if m == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	q := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(3)
}

// spread is the interquartile distance as a share of the median.
func spread(v []float64) float64 {
	med := median(v)
	if med == 0 {
		return 0
	}
	q1, q3 := quartiles(v)
	return (q3 - q1) / med
}

// valuesOf collects one metric's untraced values per workload.
func valuesOf(doc *resultsDoc, metric string) map[string][]float64 {
	out := map[string][]float64{}
	for _, r := range doc.Runs {
		if v, ok := r.Metrics[metric]; ok {
			out[r.Workload] = append(out[r.Workload], v.Value)
		}
	}
	return out
}

type compareRow struct {
	workload, metric, unit, verdict string
	a, b, worseBy, bound            float64
	spreadA, spreadB                float64
	n                               [2]int
}

// compareDocs judges b against a. worseBy is the relative move of the median
// in the metric's bad direction. A move past the bound is "worse". A move
// within it counts as "ok" only when both sets' own spreads are within the
// bound too, or every run of b reads better than every run of a; otherwise
// the pair is "unresolved".
func compareDocs(a, b *resultsDoc) []compareRow {
	var rows []compareRow
	for _, m := range endToEnd {
		av, bv := valuesOf(a, m.Name), valuesOf(b, m.Name)
		names := make([]string, 0, len(av))
		for w := range av {
			if len(bv[w]) > 0 {
				names = append(names, w)
			}
		}
		sort.Strings(names)
		for _, w := range names {
			row := compareRow{
				workload: w, metric: m.Name, unit: m.Unit, bound: m.Bound,
				a: median(av[w]), b: median(bv[w]),
				spreadA: spread(av[w]), spreadB: spread(bv[w]),
				n: [2]int{len(av[w]), len(bv[w])},
			}
			if row.a != 0 {
				row.worseBy = (row.b - row.a) / row.a
				if m.Better == "higher" {
					row.worseBy = -row.worseBy
				}
			}
			allBetter := true
			for _, x := range bv[w] {
				for _, y := range av[w] {
					if (m.Better == "higher" && x <= y) || (m.Better == "lower" && x >= y) {
						allBetter = false
					}
				}
			}
			switch {
			case row.worseBy > m.Bound:
				row.verdict = "worse"
			case (row.spreadA > m.Bound || row.spreadB > m.Bound) && !allBetter:
				row.verdict = "unresolved"
			default:
				row.verdict = "ok"
			}
			rows = append(rows, row)
		}
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].workload < rows[j].workload })
	return rows
}

// exactCounts are counts the program makes that must repeat exactly for one
// (workload, seed): a difference is a behaviour change, not noise. The two
// disk_bytes_per_input_byte ratios are byte counts over byte counts; the
// driver's matrix has no row for them (they exist on one workload each), so
// this is where they are held, to the byte instead of to a bound.
var exactCounts = []string{
	"segment.reads", "core.cache_hits", "core.cache_misses", "wal.append_bytes",
	"wal.disk_bytes_per_input_byte", "segment.disk_bytes_per_input_byte",
}

// countMismatches pairs the two files' runs by (workload, seed) and lists
// every exact count, failures included, that differs.
func countMismatches(a, b *resultsDoc) []string {
	type key struct {
		workload string
		seed     int64
	}
	value := func(r *runRecord, name string) (float64, bool) {
		if v, ok := r.Metrics[name]; ok {
			return v.Value, true
		}
		v, ok := r.Other[name]
		return v, ok
	}
	first := map[key]*runRecord{}
	for i := range a.Runs {
		first[key{a.Runs[i].Workload, a.Runs[i].Seed}] = &a.Runs[i]
	}
	var out []string
	for i := range b.Runs {
		rb := &b.Runs[i]
		ra := first[key{rb.Workload, rb.Seed}]
		if ra == nil {
			continue
		}
		if ra.Failed != rb.Failed {
			out = append(out, fmt.Sprintf("%s seed %d: failed %d vs %d", rb.Workload, rb.Seed, ra.Failed, rb.Failed))
		}
		for _, name := range exactCounts {
			va, oka := value(ra, name)
			vb, okb := value(rb, name)
			if oka && okb && va != vb {
				out = append(out, fmt.Sprintf("%s seed %d: %s %v vs %v", rb.Workload, rb.Seed, name, va, vb))
			}
		}
	}
	return out
}

func cmdCompare(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	if err := fs.Parse(args); err != nil || fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: bench compare a.json b.json")
		return 2
	}
	var a, b resultsDoc
	for i, doc := range []*resultsDoc{&a, &b} {
		if err := readJSONFile(fs.Arg(i), doc); err != nil {
			fmt.Fprintln(stderr, "bench compare:", err)
			return 2
		}
	}
	rows := compareDocs(&a, &b)
	if len(rows) == 0 {
		fmt.Fprintln(stderr, "bench compare: the two files share no (workload, end-to-end metric) pair")
		return 2
	}
	fmt.Fprintf(stdout, "%-15s %-22s %14s %14s %-5s %8s %6s %8s %8s  %s\n",
		"workload", "metric", "a (median)", "b (median)", "unit", "worse by", "bound", "spread a", "spread b", "verdict")
	worse := 0
	for _, r := range rows {
		fmt.Fprintf(stdout, "%-15s %-22s %14.4f %14.4f %-5s %+7.2f%% %5.0f%% %7.2f%% %7.2f%%  %s (n=%d,%d)\n",
			r.workload, r.metric, r.a, r.b, r.unit, r.worseBy*100, r.bound*100,
			r.spreadA*100, r.spreadB*100, r.verdict, r.n[0], r.n[1])
		if r.verdict == "worse" {
			worse++
		}
	}
	mismatches := countMismatches(&a, &b)
	for _, m := range mismatches {
		fmt.Fprintln(stdout, "exact count differs:", m)
	}
	if worse > 0 || len(mismatches) > 0 {
		fmt.Fprintf(stdout, "%d pair(s) worse than the bound, %d exact count(s) differ\n", worse, len(mismatches))
		return 1
	}
	return 0
}
