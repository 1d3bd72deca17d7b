package core

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"retrodns/internal/ctlog"
	"retrodns/internal/dnscore"
	"retrodns/internal/pdns"
	"retrodns/internal/scanner"
	"retrodns/internal/simtime"
)

// StageStats captures the wall-clock cost and throughput of one pipeline
// stage in a single Run — the operational counterpart to the funnel's
// quality counters. Items is stage-specific: deployment maps for the
// classification stage, domains for stitching, candidates for inspection.
type StageStats struct {
	Name string
	// Items is the number of work units the stage processed.
	Items int
	// Wall is the stage's elapsed wall-clock time.
	Wall time.Duration
	// Busy sums the time every worker spent inside the stage body.
	Busy time.Duration
	// Workers is the fan-out bound the stage ran with (1 for serial
	// stages).
	Workers int
}

// Throughput returns items per second of wall-clock time.
func (s StageStats) Throughput() float64 {
	if s.Wall <= 0 {
		return 0
	}
	return float64(s.Items) / s.Wall.Seconds()
}

// Utilization returns the fraction of worker capacity the stage kept busy:
// 1.0 means every worker computed for the full wall-clock span. The raw
// ratio is returned unclamped — a value above 1.0 is clock-measurement
// noise at worst and a busy/wall accounting bug at best, and clamping
// here would hide the bug from the test that pins the accounting
// (TestPipelineBusyWallAccounting). Renderers clamp for display.
func (s StageStats) Utilization() float64 {
	if s.Wall <= 0 || s.Workers <= 0 {
		return 0
	}
	return s.Busy.Seconds() / (s.Wall.Seconds() * float64(s.Workers))
}

// String renders one stage's counters on a single line, clamping the
// utilization readout at 100% — display only; Utilization() stays raw.
func (s StageStats) String() string {
	util := s.Utilization()
	if util > 1 {
		util = 1
	}
	return fmt.Sprintf("%-9s %7d items in %9s  (%10.0f items/s, %d workers, %3.0f%% util)",
		s.Name+":", s.Items, s.Wall.Round(time.Microsecond), s.Throughput(), s.Workers, util*100)
}

// PipelineStats aggregates the per-stage counters of one Pipeline.Run.
// Unlike FunnelStats it describes the execution, not the findings, so it
// is excluded from determinism comparisons: two runs with different
// Workers settings produce identical funnels and findings but different
// timings.
type PipelineStats struct {
	// Workers is the pipeline's fan-out bound for the parallel stages.
	Workers int
	// Shards is the analyzed dataset's shard count (0 when unknown).
	Shards int
	// Total is the wall-clock time of the whole Run.
	Total time.Duration
	// Stages lists the per-stage counters in execution order.
	Stages []StageStats
	// CacheHits and CacheMisses count (domain, period) cells whose
	// classification was reused versus recomputed, when the pipeline runs
	// with a ClassifyCache. DirtyCells is the number of cells the dataset
	// journaled as having gained records since the cached generation.
	CacheHits, CacheMisses, DirtyCells int
	// Generation is the dataset generation this run analyzed (0 when the
	// run was uncached).
	Generation uint64
	// ShardSkew is the classify stage's max/min summed per-shard busy-time
	// ratio: 1.0 means the shards finished in lock-step, larger values mean
	// the deterministic merge waited on straggler shards. 0 when fewer than
	// two shards did measurable work (single-shard datasets). Execution
	// metadata, like every timing in this struct.
	ShardSkew float64
	// Quarantined is the number of malformed records the dataset's ingest
	// gate refused over its lifetime (scanner.Dataset.Quarantine): a
	// nonzero count means the run's findings describe the valid subset of
	// a partially-broken feed.
	Quarantined int
	// SpilledShards is the number of shards whose record payloads were
	// serving from on-disk segments rather than memory when the run
	// started (0 for a fully resident corpus). Execution metadata: a
	// spilled run produces byte-identical findings to a resident one.
	SpilledShards int
}

// Stage returns the named stage's stats, or a zero StageStats.
func (p PipelineStats) Stage(name string) StageStats {
	for _, s := range p.Stages {
		if s.Name == name {
			return s
		}
	}
	return StageStats{}
}

// String renders the stage table the way cmd/repro prints it.
func (p PipelineStats) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "pipeline stages (workers=%d, shards=%d, total %s):\n", p.Workers, p.Shards, p.Total.Round(time.Microsecond))
	for _, s := range p.Stages {
		fmt.Fprintf(&sb, "  %s\n", s)
	}
	if p.ShardSkew > 0 {
		fmt.Fprintf(&sb, "  shard-skew: %.2fx (max/min per-shard classify busy)\n", p.ShardSkew)
	}
	if p.Generation > 0 {
		fmt.Fprintf(&sb, "  cache:    hits=%d misses=%d dirty-cells=%d (dataset generation %d)\n",
			p.CacheHits, p.CacheMisses, p.DirtyCells, p.Generation)
	}
	if p.Quarantined > 0 {
		fmt.Fprintf(&sb, "  quarantined: %d malformed records refused at ingest\n", p.Quarantined)
	}
	if p.SpilledShards > 0 {
		fmt.Fprintf(&sb, "  spilled:  %d of %d shards served from on-disk segments\n", p.SpilledShards, p.Shards)
	}
	return sb.String()
}

// ObservabilityStats reproduces the paper's §5.3 analysis of how visible
// the attacks were to each data source: how long the hijack itself was
// observable in passive DNS, how quickly the malicious certificate became
// visible to scans after issuance, and in how many weekly scans it ever
// appeared.
type ObservabilityStats struct {
	// Total is the number of hijacked findings analyzed.
	Total int
	// PDNSDays, per finding with pDNS evidence: days the malicious
	// resolution was observable (last seen − first seen + 1).
	PDNSDays []int
	// CertDelayDays, per finding whose malicious certificate appeared in
	// scans: days from CT logging to first scan appearance.
	CertDelayDays []int
	// ScanAppearances, per finding whose certificate appeared in scans:
	// the number of distinct weekly scans that captured it.
	ScanAppearances []int
}

// Observability computes the §5.3 statistics over hijacked findings.
func Observability(hijacked []*Finding, ds *scanner.Dataset, db *pdns.DB, log *ctlog.Log) ObservabilityStats {
	stats := ObservabilityStats{Total: len(hijacked)}
	for _, f := range hijacked {
		// Hijack visibility in passive DNS: the window of A rows under
		// the victim domain resolving to the attacker IP.
		if f.AttackerIP.IsValid() {
			ipStr := f.AttackerIP.String()
			var first, last simtime.Date
			found := false
			for _, e := range db.SubdomainResolutions(f.Domain) {
				if e.Type != dnscore.TypeA || e.Data != ipStr {
					continue
				}
				if !found || e.FirstSeen < first {
					first = e.FirstSeen
				}
				if !found || e.LastSeen > last {
					last = e.LastSeen
				}
				found = true
			}
			if found {
				stats.PDNSDays = append(stats.PDNSDays, int(last.Sub(first))+1)
			}
		}
		// Certificate visibility in scans.
		if f.CrtShID != 0 && ds != nil {
			scanDates := make(map[simtime.Date]bool)
			for _, r := range ds.DomainRecords(f.Domain, 0, 0) {
				if r.Cert.Fingerprint() == f.CertFP {
					scanDates[r.ScanDate] = true
				}
			}
			if len(scanDates) > 0 {
				stats.ScanAppearances = append(stats.ScanAppearances, len(scanDates))
				if log != nil {
					if e, ok := log.Entry(f.CrtShID); ok {
						first := simtime.StudyEnd
						for d := range scanDates {
							if d < first {
								first = d
							}
						}
						stats.CertDelayDays = append(stats.CertDelayDays, int(first.Sub(e.LoggedAt)))
					}
				}
			}
		}
	}
	return stats
}

func fracAtMost(values []int, limit int) float64 {
	if len(values) == 0 {
		return 0
	}
	n := 0
	for _, v := range values {
		if v <= limit {
			n++
		}
	}
	return float64(n) / float64(len(values))
}

// FracPDNSAtMostOneDay is the share of hijacks whose malicious resolution
// was visible in pDNS for at most one day (paper: 51%).
func (s ObservabilityStats) FracPDNSAtMostOneDay() float64 { return fracAtMost(s.PDNSDays, 1) }

// FracCertSeenWithin8Days is the share of malicious certificates first
// scanned within 8 days of CT logging (paper: >50%).
func (s ObservabilityStats) FracCertSeenWithin8Days() float64 {
	return fracAtMost(s.CertDelayDays, 8)
}

// FracSeenInOneScan is the share of malicious certificates captured by
// exactly one weekly scan (paper: >50%).
func (s ObservabilityStats) FracSeenInOneScan() float64 { return fracAtMost(s.ScanAppearances, 1) }

// FracSeenInTwoScans is the share captured by exactly two scans (paper: ~20%).
func (s ObservabilityStats) FracSeenInTwoScans() float64 {
	if len(s.ScanAppearances) == 0 {
		return 0
	}
	n := 0
	for _, v := range s.ScanAppearances {
		if v == 2 {
			n++
		}
	}
	return float64(n) / float64(len(s.ScanAppearances))
}

// String renders the statistics in the style of §5.3.
func (s ObservabilityStats) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "observability over %d hijacked domains:\n", s.Total)
	fmt.Fprintf(&sb, "  pDNS captured the hijack for ≤1 day for %.0f%% of victims (n=%d)\n",
		s.FracPDNSAtMostOneDay()*100, len(s.PDNSDays))
	fmt.Fprintf(&sb, "  malicious cert first scanned ≤8 days after issuance for %.0f%% (n=%d)\n",
		s.FracCertSeenWithin8Days()*100, len(s.CertDelayDays))
	fmt.Fprintf(&sb, "  malicious cert appeared in exactly 1 scan for %.0f%%, 2 scans for %.0f%% (n=%d)\n",
		s.FracSeenInOneScan()*100, s.FracSeenInTwoScans()*100, len(s.ScanAppearances))
	return sb.String()
}

// Histogram renders a distribution of the given series for reports.
func Histogram(values []int, buckets []int) string {
	sorted := append([]int(nil), values...)
	sort.Ints(sorted)
	var sb strings.Builder
	prev := 0
	for _, b := range buckets {
		n := 0
		for _, v := range sorted {
			if v > prev && v <= b {
				n++
			}
		}
		fmt.Fprintf(&sb, "  (%d,%d]: %d\n", prev, b, n)
		prev = b
	}
	n := 0
	for _, v := range sorted {
		if v > prev {
			n++
		}
	}
	fmt.Fprintf(&sb, "  >%d: %d\n", prev, n)
	return sb.String()
}
