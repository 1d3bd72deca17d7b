package report

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"retrodns/internal/core"
	"retrodns/internal/obsv"
	"retrodns/internal/scanner"
)

// The machine-readable run report: one JSON document per Pipeline.Run
// capturing what the run found (funnel counts), what it cost (per-stage
// wall/busy timings, cache counters), what the ingest gate refused
// (quarantine), and a point-in-time metrics snapshot. Both CLIs emit it
// via -report-json, and cmd/benchdiff consumes it as the CI contract:
// funnel counts must not drift at all, timings must not regress past the
// tolerance.
//
// Determinism contract: on a seeded world every field is byte-identical
// across reruns except the timing fields — stage wall/busy nanoseconds,
// metric families suffixed _seconds, and benchmark samples. Canonical()
// strips exactly those, and the golden tests pin the canonical form.

// RunReportSchema identifies the document version; readers refuse other
// schemas rather than misinterpreting fields.
const RunReportSchema = "retrodns/run-report/v1"

// StageReport is one pipeline stage's row: identity and throughput are
// deterministic, the _ns timings are not.
type StageReport struct {
	Name    string `json:"name"`
	Items   int    `json:"items"`
	Workers int    `json:"workers"`
	WallNS  int64  `json:"wall_ns"`
	BusyNS  int64  `json:"busy_ns"`
}

// CacheReport carries the incremental engine's counters for the run.
type CacheReport struct {
	Hits       int    `json:"hits"`
	Misses     int    `json:"misses"`
	DirtyCells int    `json:"dirty_cells"`
	Generation uint64 `json:"generation"`
}

// QuarantineSection summarizes the ingest gate's lifetime refusals.
type QuarantineSection struct {
	Total    int            `json:"total"`
	ByReason map[string]int `json:"by_reason,omitempty"`
}

// ServeSection captures the serving layer at report time: the snapshot
// generation that was live, how many Publish swaps got it there, how its
// bodies are held (responses served without rendering; of the domain
// bodies, how many distinct shared tails and how many rendered whole), and
// per-endpoint request totals. All of it depends on what traffic the
// daemon happened to receive, so Canonical() strips the whole section.
type ServeSection struct {
	Generation     uint64           `json:"generation"`
	Swaps          uint64           `json:"swaps"`
	Prerendered    int              `json:"prerendered_bodies"`
	BodyTemplates  int              `json:"body_templates"`
	BodiesRendered int              `json:"bodies_rendered"`
	Requests       map[string]int64 `json:"requests,omitempty"`
}

// WALSection captures the durability layer at report time: what boot
// recovered, how the log grew since, and every refusal by reason. All of
// it depends on crash timing and prior process history, so Canonical()
// strips the whole section — a recovered daemon and an uninterrupted one
// must canonically agree.
type WALSection struct {
	Warm                bool             `json:"warm"`
	FromSnapshot        string           `json:"from_snapshot,omitempty"`
	RecoveredGeneration uint64           `json:"recovered_generation"`
	ReplayedBatches     int              `json:"replayed_batches"`
	Generation          uint64           `json:"generation"`
	Quarantined         map[string]int64 `json:"quarantined,omitempty"`
}

// BenchSample is one `go test -bench` measurement, normalized for
// cross-run comparison (the -<GOMAXPROCS> suffix is stripped from Name).
// AllocsPerOp is 0 when the benchmark ran without -benchmem; the gate in
// cmd/benchdiff only compares it when both sides measured it.
type BenchSample struct {
	Name        string  `json:"name"`
	N           int64   `json:"n"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
}

// RunReport is the top-level document.
type RunReport struct {
	Schema    string  `json:"schema"`
	Workers   int     `json:"workers"`
	ShardSkew float64 `json:"shard_skew,omitempty"`
	// SpilledShards counts shards served from on-disk segments during the
	// run (0 = fully resident). Execution metadata like ShardSkew: a
	// spilled run must produce byte-identical findings, so Canonical()
	// zeroes it.
	SpilledShards int               `json:"spilled_shards,omitempty"`
	Funnel        map[string]int    `json:"funnel"`
	Stages        []StageReport     `json:"stages"`
	Cache         CacheReport       `json:"cache"`
	Quarantine    QuarantineSection `json:"quarantine"`
	Metrics       []obsv.Sample     `json:"metrics,omitempty"`
	Bench         []BenchSample     `json:"bench,omitempty"`
	Load          []LoadSample      `json:"load,omitempty"`
	Serve         *ServeSection     `json:"serve,omitempty"`
	WAL           *WALSection       `json:"wal,omitempty"`
}

// FunnelCounts flattens the funnel into the stable key set benchdiff
// gates on and the serving layer's /v1/funnel endpoint exposes. Every
// count the paper's §4 running totals report is here.
func FunnelCounts(res *core.Result) map[string]int {
	return map[string]int{
		"domains":               res.Funnel.Domains,
		"maps":                  res.Funnel.Maps,
		"stable":                res.Funnel.DomainCategories[core.CategoryStable],
		"transition":            res.Funnel.DomainCategories[core.CategoryTransition],
		"transient":             res.Funnel.DomainCategories[core.CategoryTransient],
		"noisy":                 res.Funnel.DomainCategories[core.CategoryNoisy],
		"shortlisted":           res.Funnel.Shortlisted,
		"shortlisted_anomalous": res.Funnel.ShortlistedAnomalous,
		"worth_examining":       res.Funnel.WorthExamining,
		"stitched":              res.Funnel.Stitched,
		"pivot_found":           res.Funnel.PivotFound,
		"hijacked_verdicts":     len(res.Hijacked),
		"targeted_verdicts":     len(res.Targeted),
	}
}

// BuildRunReport assembles the document from a pipeline result, the
// dataset's quarantine journal, and an optional metrics registry whose
// snapshot is embedded verbatim.
func BuildRunReport(res *core.Result, quar scanner.QuarantineReport, reg *obsv.Registry) RunReport {
	r := RunReport{
		Schema:        RunReportSchema,
		Workers:       res.Stats.Workers,
		ShardSkew:     res.Stats.ShardSkew,
		SpilledShards: res.Stats.SpilledShards,
		Funnel:        FunnelCounts(res),
		Cache: CacheReport{
			Hits:       res.Stats.CacheHits,
			Misses:     res.Stats.CacheMisses,
			DirtyCells: res.Stats.DirtyCells,
			Generation: res.Stats.Generation,
		},
		Quarantine: QuarantineSection{Total: quar.Total},
	}
	for _, s := range res.Stats.Stages {
		r.Stages = append(r.Stages, StageReport{
			Name: s.Name, Items: s.Items, Workers: s.Workers,
			WallNS: s.Wall.Nanoseconds(), BusyNS: s.Busy.Nanoseconds(),
		})
	}
	if len(quar.ByReason) > 0 {
		r.Quarantine.ByReason = make(map[string]int, len(quar.ByReason))
		for reason, n := range quar.ByReason {
			r.Quarantine.ByReason[reason.String()] = n
		}
	}
	if reg != nil {
		r.Metrics = reg.Snapshot()
	}
	return r
}

// canonicalStripPrefixes are metric-family prefixes dropped from the
// canonical form: serving and durability counters track traffic, crash
// timing, and process restarts rather than what the study contains.
var canonicalStripPrefixes = []string{
	"retrodns_serve_",
	"retrodns_wal_",
	"retrodns_feed_",
	"retrodns_segment_",
}

// canonicalStripNames are exact families dropped from the canonical form:
// lifetime totals accumulated across pipeline runs, which depend on how
// many times the daemon re-analyzed (and therefore on restarts), not on
// the final state. The per-run gauges that carry the same signal
// deterministically (retrodns_cache_dirty_cells, retrodns_funnel_*) stay.
var canonicalStripNames = map[string]bool{
	"retrodns_pipeline_runs_total": true,
	"retrodns_cache_hits_total":    true,
	"retrodns_cache_misses_total":  true,
	"retrodns_stage_items":         true,
	"retrodns_pdns_lookups_total":  true,
	"retrodns_ctlog_queries_total": true,
	// Residency gauges depend on the spill budget, not the findings;
	// retrodns_corpus_bytes_estimate (the resident+spilled total) stays.
	"retrodns_corpus_resident_bytes": true,
	"retrodns_corpus_spilled_bytes":  true,
	"retrodns_corpus_spilled_shards": true,
	"retrodns_corpus_shard_resident": true,
}

func canonicalKeeps(name string) bool {
	if strings.HasSuffix(name, "_seconds") || canonicalStripNames[name] {
		return false
	}
	for _, p := range canonicalStripPrefixes {
		if strings.HasPrefix(name, p) {
			return false
		}
	}
	return true
}

// Canonical returns a copy with every nondeterministic or run-count-
// dependent field stripped: stage timings zeroed, shard skew and
// spilled-shard counts zeroed,
// _seconds / serving / durability / lifetime-total metric families
// dropped, bench and load samples dropped, serve and wal sections
// dropped, and
// per-run cache counters zeroed. Two runs reaching the same final state —
// including a crash-recovered run next to an uninterrupted one — produce
// byte-identical canonical encodings; the golden tests, drift gates, and
// the chaos harness compare this form.
func (r RunReport) Canonical() RunReport {
	out := r
	out.ShardSkew = 0
	out.SpilledShards = 0
	out.Stages = make([]StageReport, len(r.Stages))
	for i, s := range r.Stages {
		s.WallNS, s.BusyNS = 0, 0
		out.Stages[i] = s
	}
	out.Metrics = nil
	for _, s := range r.Metrics {
		if canonicalKeeps(s.Name) {
			out.Metrics = append(out.Metrics, s)
		}
	}
	out.Bench = nil
	out.Load = nil
	out.Serve = nil
	out.WAL = nil
	return out
}

// Encode streams the report as indented JSON. Map keys are sorted by
// encoding/json and the metrics snapshot arrives pre-sorted from the
// registry, so the encoding is deterministic for a fixed report.
func (r RunReport) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteFile encodes the report to path, or to stdout when path is "-" —
// the -report-json convention every binary shares.
func (r RunReport) WriteFile(path string) error {
	if path == "-" {
		return r.Encode(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.Encode(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadRunReport parses a document Encode produced. Strict like ReadJSON:
// unknown fields, trailing data, and foreign schemas are ErrBadReport.
func ReadRunReport(rd io.Reader) (*RunReport, error) {
	dec := json.NewDecoder(rd)
	dec.DisallowUnknownFields()
	var r RunReport
	if err := dec.Decode(&r); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadReport, err)
	}
	if dec.More() {
		return nil, fmt.Errorf("%w: trailing data after document", ErrBadReport)
	}
	if r.Schema != RunReportSchema {
		return nil, fmt.Errorf("%w: schema %q, want %q", ErrBadReport, r.Schema, RunReportSchema)
	}
	return &r, nil
}

// ParseBench extracts benchmark samples from `go test -bench` output.
// Lines that are not benchmark results (headers, PASS, ok) are skipped;
// a malformed Benchmark line is an error, not a silent drop, so a broken
// bench run cannot pass the regression gate by parsing as empty. The
// -<GOMAXPROCS> suffix is stripped so samples compare across machines.
func ParseBench(rd io.Reader) ([]BenchSample, error) {
	var out []BenchSample
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		// Name  N  value ns/op  [more unit pairs...]
		n, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("report: bench line %q: iteration count: %v", sc.Text(), err)
		}
		sample := BenchSample{Name: normalizeBenchName(fields[0]), N: n}
		found := false
		for i := 2; i+1 < len(fields); i += 2 {
			switch fields[i+1] {
			case "ns/op":
				v, err := strconv.ParseFloat(fields[i], 64)
				if err != nil {
					return nil, fmt.Errorf("report: bench line %q: ns/op value: %v", sc.Text(), err)
				}
				sample.NsPerOp = v
				found = true
			case "allocs/op":
				v, err := strconv.ParseFloat(fields[i], 64)
				if err != nil {
					return nil, fmt.Errorf("report: bench line %q: allocs/op value: %v", sc.Text(), err)
				}
				sample.AllocsPerOp = v
			}
		}
		if !found {
			return nil, fmt.Errorf("report: bench line %q: no ns/op measurement", sc.Text())
		}
		out = append(out, sample)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("report: reading bench output: %v", err)
	}
	return out, nil
}

// normalizeBenchName strips the trailing -<n> parallelism suffix the
// testing package appends (BenchmarkIngest-8 → BenchmarkIngest).
func normalizeBenchName(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i <= 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}
