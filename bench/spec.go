package main

// spec.go is the single source of truth for what the benchmark runs and
// reports: the four workloads with their scales, every end-to-end metric
// with its regression bound, and every per-layer metric with the end-to-end
// metric it is expected to move. The root BENCHMARK.json is
// `go run ./bench spec` output; TestBenchmarkJSONMatchesSpec keeps the two in
// step.

import (
	"encoding/json"
	"fmt"
	"io"
)

// runSeconds is BENCHMARK.json's run_seconds: the measuring budget one run
// splits between its repeated phases (classify passes, read loop).
const runSeconds = 10

// setupRepeats is how many times one run executes `prepare`; setup_s is the
// median of their walls. All copies stay on disk until the run ends: the
// reference box mounts its disk with discard, and a prepare that writes beside
// a just-deleted copy of its output takes up to three times as long.
const setupRepeats = 3

// Workload names. Fixed by the issue that defined the benchmark.
const (
	wlBatchArchive  = "batch-archive"
	wlBatchSpilled  = "batch-spilled"
	wlFollowDurable = "follow-durable"
	wlReadMixed     = "read-mixed"
)

// workloadSpec is one workload's shape. Scans, cadence (7 days) and the
// four 182-day periods the 104 weekly scans span are the paper's and never
// change; Domains is scaled to fit the benchmark contract's time cap.
type workloadSpec struct {
	Name    string
	Why     string
	Domains int
	Scans   int
	// ClassifyShare and ReadShare split the main process's -seconds between
	// the uncached classify passes (two bursts, before and after the reads)
	// and the closed read loop. What the one-shot path and the follow loop
	// take comes on top.
	ClassifyShare float64
	ReadShare     float64
	// Extras is how many more fresh processes repeat the workload's one-shot
	// path (CSV open to findings, and nothing after it; the follow loop, which
	// is the whole workload) after the main process: a one-shot cost has
	// nothing to repeat inside a process, so the process is what repeats, as
	// often as the path's cost and the driver's time cap (92 runs in 3 420 s,
	// in the reference box's busy phases too) allow.
	Extras int
}

var workloads = []workloadSpec{
	{
		Name:    wlBatchArchive,
		Why:     "4000 domains x 104 weekly scans, scans.csv bulk-ingested then classified uncached: the analyst's one-shot; ingest dominates, wal and segment idle",
		Domains: 4000, Scans: 104, ClassifyShare: 0.45, ReadShare: 0.5, Extras: 4,
	},
	{
		Name:    wlBatchSpilled,
		Why:     "same corpus sealed to segments in prepare (budget 0), classified through DecodeSnapshotSpill: every window read crosses segment; no ingest",
		Domains: 4000, Scans: 104, ClassifyShare: 0.45, ReadShare: 0.5, Extras: 15,
	},
	{
		Name:    wlFollowDurable,
		Why:     "2500 domains x 104 scans through retrodnsd's CSV loop (WAL fsync, Append, cached run, publish, snapshot every 4) with one paced reader, then warm restarts",
		Domains: 2500, Scans: 104, Extras: 2,
	},
	{
		Name:    wlReadMixed,
		Why:     "140000 domains x 4 scans, past the 131072 prerender budget: closed-loop /v1 mix over nproc connections hits prerendered, LRU and cold-render tiers",
		Domains: 140000, Scans: 4, ClassifyShare: 0.4, ReadShare: 0.6, Extras: 3,
	},
}

// wholeExtras says whether the workload's extra processes run it whole: the
// follow loop is one-shot from end to end, where a bulk or spilled extra
// stops at its first findings.
func (w workloadSpec) wholeExtras() bool { return w.Name == wlFollowDurable }

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// metricSpec describes one reported metric. Bound is set for end-to-end
// metrics only. Moves, for per-layer metrics only, is the prediction written
// down before measuring: which end-to-end metric the row should move, and
// where. A per-layer metric's layer is its name up to the first dot.
type metricSpec struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	Moves  string
}

// best folds the values one end-to-end timing took over a run's repeats
// (processes, passes, read-loop segments, prepares) into the reported one:
// the best of them. The reference box is a shared two-vCPU VM that only ever
// adds time, in bursts of a fraction of a second up to phases of tens of
// minutes; the best of many short repeats is the program on the quiet
// machine and moves by a few percent where the median moves by a quarter
// (README.md "Estimators"). The medians are per-layer rows.
func (m metricSpec) best(values []float64) float64 {
	if m.Better == "higher" {
		return maxOf(values)
	}
	return minOf(values)
}

// endToEnd lists the metrics every workload reports from its untraced run.
// The driver's contract wants each of them from each workload and none ever
// zero, so each has one definition that every workload's own path gives a
// value for (README.md "End-to-end metrics" has the table). Bounds are what
// the reference box can hold (README.md "Bounds"), setup_s the widest.
var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "time_to_findings_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "classify_maps_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "read_qps", Unit: "1/s", Better: "higher", Bound: 0.25},
}

// perLayer lists the metrics of the traced run. A metric whose layer a
// workload does not touch reads 0 there.
var perLayer = []metricSpec{
	{Name: "synth.gen_records_per_s", Unit: "1/s", Better: "higher", Moves: "setup_s, all"},

	{Name: "scanner.load_records_per_s", Unit: "1/s", Better: "higher", Moves: "time_to_findings_s: records over the calls that make them classifiable (parse + AddScan + Freeze; the lazy snapshot open on batch-spilled; the median Tick on follow-durable)"},
	{Name: "scanner.csv_parse_rows_per_s", Unit: "1/s", Better: "higher", Moves: "time_to_findings_s on batch-archive, read-mixed, follow-durable"},
	{Name: "scanner.add_scan_s", Unit: "s", Better: "lower", Moves: "time_to_findings_s on batch-archive, read-mixed"},
	{Name: "scanner.freeze_s", Unit: "s", Better: "lower", Moves: "time_to_findings_s on batch-archive, read-mixed"},
	{Name: "scanner.append_ms_per_scan", Unit: "ms", Better: "lower", Moves: "time_to_findings_s on follow-durable"},
	{Name: "scanner.encode_batch_ms", Unit: "ms", Better: "lower", Moves: "time_to_findings_s on follow-durable"},
	{Name: "scanner.decode_batch_ms", Unit: "ms", Better: "lower", Moves: "follow.restart_to_healthy_ms"},
	{Name: "scanner.encode_snapshot_ms", Unit: "ms", Better: "lower", Moves: "follow.loop_wall_s"},
	{Name: "scanner.snapshot_bytes", Unit: "bytes", Better: "lower", Moves: "wal.disk_bytes_per_input_byte"},
	{Name: "scanner.decode_snapshot_ms", Unit: "ms", Better: "lower", Moves: "follow.restart_to_healthy_ms"},
	{Name: "scanner.decode_snapshot_spill_ms", Unit: "ms", Better: "lower", Moves: "time_to_findings_s on batch-spilled"},
	{Name: "scanner.window_read_us", Unit: "us", Better: "lower", Moves: "classify_maps_per_s on batch-archive"},
	{Name: "scanner.corpus_resident_mb", Unit: "MB", Better: "lower", Moves: "peak_rss_mb"},
	{Name: "scanner.corpus_spilled_mb", Unit: "MB", Better: "higher", Moves: "peak_rss_mb on batch-spilled"},
	{Name: "scanner.cert_pool_size", Unit: "count", Better: "lower", Moves: "peak_rss_mb"},
	{Name: "scanner.intern_strings", Unit: "count", Better: "lower", Moves: "peak_rss_mb"},
	{Name: "scanner.quarantined_rows", Unit: "count", Better: "lower", Moves: "must be 0"},

	{Name: "segment.window_read_us", Unit: "us", Better: "lower", Moves: "classify_maps_per_s on batch-spilled"},
	{Name: "segment.reads", Unit: "count", Better: "lower", Moves: "classify_maps_per_s on batch-spilled (exact count of one Run)"},
	{Name: "segment.read_bytes", Unit: "bytes", Better: "lower", Moves: "classify_maps_per_s on batch-spilled (exact count of one Run)"},
	{Name: "segment.sealed_bytes", Unit: "bytes", Better: "lower", Moves: "segment.disk_bytes_per_input_byte"},
	{Name: "segment.files_on_disk", Unit: "count", Better: "lower", Moves: "segment.disk_bytes_per_input_byte"},
	{Name: "segment.disk_bytes_per_input_byte", Unit: "ratio", Better: "lower", Moves: "exact count on batch-spilled"},

	{Name: "core.run_fastest_ms", Unit: "ms", Better: "lower", Moves: "classify_maps_per_s on batch-*, read-mixed: the fastest pass, which the rate is of"},
	{Name: "core.run_median_ms", Unit: "ms", Better: "lower", Moves: "the median pass beside the fastest; the stage rows below are medians too"},
	{Name: "core.classify_ms", Unit: "ms", Better: "lower", Moves: "classify_maps_per_s"},
	{Name: "core.classify_busy_ms", Unit: "ms", Better: "lower", Moves: "classify_maps_per_s"},
	{Name: "core.shortlist_ms", Unit: "ms", Better: "lower", Moves: "classify_maps_per_s"},
	{Name: "core.inspect_ms", Unit: "ms", Better: "lower", Moves: "classify_maps_per_s"},
	{Name: "core.pivot_ms", Unit: "ms", Better: "lower", Moves: "classify_maps_per_s"},
	{Name: "core.shard_skew", Unit: "ratio", Better: "lower", Moves: "classify_maps_per_s"},
	{Name: "core.allocs_per_run", Unit: "count", Better: "lower", Moves: "classify_maps_per_s, peak_rss_mb"},
	{Name: "core.alloc_mb_per_run", Unit: "MB", Better: "lower", Moves: "classify_maps_per_s, peak_rss_mb"},
	{Name: "core.cached_run_ms", Unit: "ms", Better: "lower", Moves: "time_to_findings_s, classify_maps_per_s on follow-durable"},
	{Name: "core.cache_hits", Unit: "count", Better: "higher", Moves: "time_to_findings_s on follow-durable"},
	{Name: "core.cache_misses", Unit: "count", Better: "lower", Moves: "time_to_findings_s on follow-durable"},
	{Name: "core.dirty_cells", Unit: "count", Better: "lower", Moves: "time_to_findings_s on follow-durable"},
	{Name: "pdns.lookups", Unit: "count", Better: "lower", Moves: "none: synth corpora carry no pDNS"},

	{Name: "wal.feed_tick_ms", Unit: "ms", Better: "lower", Moves: "time_to_findings_s on follow-durable"},
	{Name: "wal.append_bytes", Unit: "bytes", Better: "lower", Moves: "wal.disk_bytes_per_input_byte"},
	{Name: "wal.snapshots", Unit: "count", Better: "lower", Moves: "follow.loop_wall_s"},
	{Name: "wal.snapshot_ms", Unit: "ms", Better: "lower", Moves: "follow.loop_wall_s"},
	{Name: "wal.snapshot_bytes_written", Unit: "bytes", Better: "lower", Moves: "wal.disk_bytes_per_input_byte"},
	{Name: "wal.open_ms", Unit: "ms", Better: "lower", Moves: "follow.restart_to_healthy_ms"},
	{Name: "wal.replayed_batches", Unit: "count", Better: "lower", Moves: "follow.restart_to_healthy_ms"},
	{Name: "wal.quarantined", Unit: "count", Better: "lower", Moves: "must be 0"},
	{Name: "wal.disk_bytes_per_input_byte", Unit: "ratio", Better: "lower", Moves: "exact count on follow-durable"},

	{Name: "serve.build_snapshot_ms", Unit: "ms", Better: "lower", Moves: "time_to_findings_s on follow-durable"},
	{Name: "serve.publish_us", Unit: "us", Better: "lower", Moves: "time_to_findings_s on follow-durable"},
	{Name: "serve.prerendered_bodies", Unit: "count", Better: "higher", Moves: "read_qps"},
	{Name: "serve.hit_ns", Unit: "ns", Better: "lower", Moves: "read_qps, loadgen.p50_us"},
	{Name: "serve.lru_ns", Unit: "ns", Better: "lower", Moves: "read_qps on read-mixed"},
	{Name: "serve.cold_ns", Unit: "ns", Better: "lower", Moves: "loadgen.p95_us on read-mixed"},
	{Name: "serve.cache_hits", Unit: "count", Better: "higher", Moves: "read_qps on read-mixed"},
	{Name: "serve.cache_misses", Unit: "count", Better: "lower", Moves: "loadgen.p95_us on read-mixed"},
	{Name: "serve.cache_evictions", Unit: "count", Better: "lower", Moves: "loadgen.p95_us on read-mixed"},
	{Name: "serve.lru_hit_ratio", Unit: "ratio", Better: "higher", Moves: "read_qps on read-mixed"},
	{Name: "serve.body_bytes_p50", Unit: "bytes", Better: "lower", Moves: "read_qps"},

	{Name: "report.write_json_ms", Unit: "ms", Better: "lower", Moves: "time_to_findings_s on batch-*, read-mixed"},
	{Name: "report.findings_bytes", Unit: "bytes", Better: "lower", Moves: "time_to_findings_s"},

	{Name: "loadgen.requests", Unit: "count", Better: "higher", Moves: "sample count behind read_*"},
	{Name: "loadgen.qps", Unit: "1/s", Better: "higher", Moves: "the whole loop's rate beside read_qps, its best segment's"},
	{Name: "loadgen.p50_us", Unit: "us", Better: "lower", Moves: "read_qps: in the closed loop the rate is the connections over the mean latency"},
	{Name: "loadgen.best_p50_us", Unit: "us", Better: "lower", Moves: "the lowest segment median; two modes at one rate on the reference box (see README), hence not end to end"},
	{Name: "loadgen.p95_us", Unit: "us", Better: "lower", Moves: "tail of loadgen.p50_us"},
	{Name: "loadgen.p99_us", Unit: "us", Better: "lower", Moves: "tail; on the reference box a cliff (see README)"},
	{Name: "loadgen.p999_us", Unit: "us", Better: "lower", Moves: "tail"},
	{Name: "loadgen.null_qps", Unit: "1/s", Better: "higher", Moves: "ceiling of read_qps"},
	{Name: "loadgen.null_p50_us", Unit: "us", Better: "lower", Moves: "floor of loadgen.p50_us"},
	{Name: "loadgen.open_p99_us_r2000", Unit: "us", Better: "lower", Moves: "none: open loop at 2000 rps, timed from the due time"},
	{Name: "loadgen.open_late_p99_us", Unit: "us", Better: "lower", Moves: "none: how late the generator ran"},

	{Name: "follow.scan_to_visible_p50_ms", Unit: "ms", Better: "lower", Moves: "one loop's plain median beside time_to_findings_s, the median of each scan's fastest over the loops"},
	{Name: "follow.scan_to_visible_p90_ms", Unit: "ms", Better: "lower", Moves: "tail of time_to_findings_s"},
	{Name: "follow.scan_to_visible_max_ms", Unit: "ms", Better: "lower", Moves: "tail of time_to_findings_s"},
	{Name: "follow.loop_wall_s", Unit: "s", Better: "lower", Moves: "disk-bound; not end to end"},
	{Name: "follow.restart_to_healthy_ms", Unit: "ms", Better: "lower", Moves: "wal.Open start -> recovered generation published, median of 5 warm restarts, first discarded"},
	{Name: "follow.restart_first_ms", Unit: "ms", Better: "lower", Moves: "the discarded first restart"},

	{Name: "trace.accounted_share", Unit: "ratio", Better: "higher", Moves: "child spans' share of the time_to_findings_s span"},
	{Name: "proc.cpu_user_s", Unit: "s", Better: "lower", Moves: "all timings"},
	{Name: "proc.cpu_sys_s", Unit: "s", Better: "lower", Moves: "all timings"},
	{Name: "proc.gc_cycles", Unit: "count", Better: "lower", Moves: "peak_rss_mb, all timings"},
	{Name: "proc.gc_pause_total_ms", Unit: "ms", Better: "lower", Moves: "loadgen.p95_us"},
	{Name: "proc.heap_live_mb_end", Unit: "MB", Better: "lower", Moves: "peak_rss_mb"},
}

func boundOf(name string) (metricSpec, bool) {
	for _, m := range endToEnd {
		if m.Name == name {
			return m, true
		}
	}
	return metricSpec{}, false
}

// benchmarkJSON mirrors the root BENCHMARK.json, key for key.
type benchmarkJSON struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadJSON `json:"workloads"`
	EndToEnd   []endToEndJSON `json:"end_to_end"`
	PerLayer   []perLayerJSON `json:"per_layer"`
}

type workloadJSON struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type endToEndJSON struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type perLayerJSON struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func specDocument() benchmarkJSON {
	doc := benchmarkJSON{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, workloadJSON{Name: w.Name, Why: w.Why})
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, endToEndJSON{Name: m.Name, Unit: m.Unit, Better: m.Better, Bound: m.Bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, perLayerJSON{Name: m.Name, Unit: m.Unit, Better: m.Better})
	}
	return doc
}

// cmdSpec prints BENCHMARK.json as spec.go defines it.
func cmdSpec(stdout io.Writer) int {
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(specDocument()); err != nil {
		fmt.Fprintln(stdout, err)
		return 1
	}
	return 0
}
