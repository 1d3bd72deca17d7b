// Command retrodns runs the retroactive DNS-hijack detection pipeline over
// a simulated study and prints the verdicts. It is the quick way to see
// the whole system end to end:
//
//	retrodns                  # default world, full campaign replay
//	retrodns -seed 42 -stable 2000
//	retrodns -no-campaigns    # benign-only world (expect zero findings)
//	retrodns -eval            # compare verdicts against ground truth
//	retrodns -follow          # ingest scan-by-scan through the incremental engine
//	retrodns -synth-domains 1000000   # paper-scale synthetic corpus, no world
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"retrodns/internal/core"
	"retrodns/internal/dnscore"
	"retrodns/internal/obsv"
	"retrodns/internal/pdns"
	"retrodns/internal/report"
	"retrodns/internal/scanner"
	"retrodns/internal/synth"
	"retrodns/internal/world"
)

func main() {
	var (
		seed        = flag.Int64("seed", 1, "world generation seed")
		stable      = flag.Int("stable", 400, "benign stable-domain population")
		noCampaigns = flag.Bool("no-campaigns", false, "disable the attack campaigns")
		coverage    = flag.Float64("pdns-coverage", 0.85, "passive-DNS sensor coverage (0..1]")
		evaluate    = flag.Bool("eval", false, "score verdicts against simulation ground truth")
		workers     = flag.Int("workers", 0, "pipeline worker-pool size (0 = GOMAXPROCS)")
		shards      = flag.Int("shards", scanner.DefaultShards, "dataset shard count (1..64)")
		follow      = flag.Bool("follow", false, "ingest the study scan-by-scan through the incremental engine, re-analyzing after each scan")
		strict      = flag.Bool("strict", false, "treat any record the ingest gate would quarantine as a fatal error instead of skipping it")
		verbose     = flag.Bool("v", false, "print every finding")
		jsonOut     = flag.Bool("json", false, "emit findings as JSON on stdout")
		reportJSON  = flag.String("report-json", "", "write the machine-readable run report to this file ('-' for stdout)")
		metricsAddr = flag.String("metrics-addr", "", "serve /metrics and /debug/vars on this address while running (most useful with -follow)")

		synthDomains = flag.Int("synth-domains", 0, "generate a paper-scale synthetic corpus with this many registered domains instead of simulating a world")
		zipfS        = flag.Float64("zipf-s", 1.1, "zipf exponent for synthetic deployment popularity")
		synthScans   = flag.Int("synth-scans", 4, "number of synthetic scan dates")

		spillDir    = flag.String("spill-dir", "", "segment-store directory for the out-of-core corpus (enables spill)")
		memBudgetMB = flag.Int("mem-budget-mb", -1, "resident corpus budget in MiB: <0 unlimited, 0 spill every frozen shard, >0 ceiling (requires -spill-dir)")
		spillMode   = flag.String("spill-read-mode", "auto", "how spilled segments are read: auto (mmap where the platform has it) or stream")
		spillSave   = flag.Bool("spill-save", false, "after ingest, write the corpus as <spill-dir>/corpus.snap and exit without classifying (synth mode only)")
		spillLoad   = flag.Bool("spill-load", false, "skip ingest and classify <spill-dir>/corpus.snap under the spill budget (synth mode only)")
		printMaxRSS = flag.Bool("print-maxrss", false, "print the process peak RSS to stderr on exit (maxrss_kb=N)")
	)
	flag.Parse()

	spill, err := scanner.SpillFlags(*spillDir, *memBudgetMB, *spillMode)
	if err == nil && spill == nil && (*spillSave || *spillLoad) {
		err = fmt.Errorf("-spill-save/-spill-load require -spill-dir")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer reportMaxRSS(*printMaxRSS)

	metrics := obsv.NewRegistry()
	if *metricsAddr != "" {
		bound, stop, err := obsv.ListenAndServeMetrics(*metricsAddr, metrics, os.Stderr)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "metrics on http://%s/metrics\n", bound)
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			stop(ctx)
		}()
	}

	if *synthDomains > 0 || *spillLoad {
		runSynth(synthRun{
			domains: *synthDomains, zipfS: *zipfS, scans: *synthScans,
			seed: *seed, shards: *shards, workers: *workers,
			strict: *strict, jsonOut: *jsonOut, reportJSON: *reportJSON,
			spill: spill, save: *spillSave, load: *spillLoad,
		}, metrics)
		return
	}
	if *spillSave {
		fmt.Fprintln(os.Stderr, "-spill-save only applies to -synth-domains mode")
		os.Exit(1)
	}

	cfg := world.DefaultConfig()
	cfg.Seed = *seed
	cfg.StableDomains = *stable
	cfg.TransitionDomains = *stable * 3 / 100
	cfg.NoisyDomains = max(2, *stable/250)
	cfg.PDNSCoverage = *coverage
	cfg.Campaigns = !*noCampaigns

	fmt.Fprintf(os.Stderr, "building world (seed=%d stable=%d campaigns=%v)...\n", cfg.Seed, cfg.StableDomains, cfg.Campaigns)
	w := world.New(cfg)

	var res *core.Result
	var dataset *scanner.Dataset
	if *follow {
		// Incremental mode: advance the simulation clock once, then feed
		// the scan series through Dataset.Append one scan at a time,
		// re-running the cached pipeline after each — the production shape
		// where analysis cost tracks the delta, not the corpus.
		w.RunClock()
		checkWorldErrors(w)
		sc := w.Scanner()
		ds := scanner.NewDatasetShards(*shards)
		dataset = ds
		ds.SetStrict(*strict)
		ds.SetMetrics(metrics)
		configureSpill(ds, spill)
		pipe := w.Pipeline(ds, *workers, core.NewClassifyCache(), metrics)
		for _, date := range w.ScanDates() {
			if err := ds.Append(date, sc.ScanWeek(date)); err != nil {
				fmt.Fprintf(os.Stderr, "ingest %s: %v\n", date, err)
				os.Exit(1)
			}
			res = pipe.Run()
			fmt.Fprintf(os.Stderr, "scan %s: gen=%d dirty=%d hits=%d misses=%d hijacked=%d targeted=%d\n",
				date, res.Stats.Generation, res.Stats.DirtyCells,
				res.Stats.CacheHits, res.Stats.CacheMisses,
				len(res.Hijacked), len(res.Targeted))
		}
		if q := ds.Quarantine(); q.Total > 0 {
			fmt.Fprintln(os.Stderr, q)
		}
		fmt.Fprintln(os.Stderr, w.Summary())
	} else {
		ds := w.RunShards(*shards, metrics)
		dataset = ds
		checkWorldErrors(w)
		// Bulk ingest builds the dataset inside the scanner, so strict mode
		// is enforced after the fact: any quarantined record is fatal.
		if q := ds.Quarantine(); q.Total > 0 {
			fmt.Fprintln(os.Stderr, q)
			if *strict {
				fmt.Fprintln(os.Stderr, "strict: refusing to analyze a partially-malformed feed")
				os.Exit(1)
			}
		}
		fmt.Fprintln(os.Stderr, w.Summary())
		configureSpill(ds, spill)
		pipe := w.Pipeline(ds, *workers, core.NewClassifyCache(), metrics)
		res = pipe.Run()
	}
	fmt.Fprint(os.Stderr, res.Stats)

	if *reportJSON != "" {
		if err := report.BuildRunReport(res, dataset.Quarantine(), metrics).WriteFile(*reportJSON); err != nil {
			fmt.Fprintln(os.Stderr, "report-json:", err)
			os.Exit(1)
		}
	}

	if *jsonOut {
		if err := report.WriteJSON(os.Stdout, res); err != nil {
			fmt.Fprintln(os.Stderr, "json:", err)
			os.Exit(1)
		}
		if *evaluate {
			score(w, res)
		}
		return
	}

	fmt.Println(report.Funnel(res))
	if *verbose {
		fmt.Println(report.Table2(res.Hijacked))
		fmt.Println(report.Table3(res.Targeted))
	}

	if *evaluate {
		score(w, res)
	}
}

// synthRun carries the flag values for the paper-scale synthetic mode.
type synthRun struct {
	domains, scans, shards, workers int
	zipfS                           float64
	seed                            int64
	strict, jsonOut                 bool
	reportJSON                      string
	spill                           *scanner.SpillOptions
	save, load                      bool
}

// runSynth ingests a paper-scale synthetic corpus (internal/synth) through
// the sharded dataset and runs the classification funnel over it. There is
// no simulated world behind the records, so the auxiliary data sources are
// empty and -eval is meaningless here; the mode exists to exercise — and
// measure — the ingest spine and classifier at corpus sizes the behavioral
// simulation cannot reach.
func runSynth(cfg synthRun, metrics *obsv.Registry) {
	var ds *scanner.Dataset
	if cfg.load {
		// Out-of-core restart: the corpus identity lives entirely in
		// <spill-dir>/corpus.snap + the sealed segments; no synth ingest.
		restored, err := loadCorpus(*cfg.spill)
		if err != nil {
			fmt.Fprintln(os.Stderr, "spill-load:", err)
			os.Exit(1)
		}
		ds = restored
		ds.SetStrict(cfg.strict)
		ds.SetMetrics(metrics)
		ds.AccountRestored()
		resident, spilled := ds.SpillStats()
		fmt.Fprintf(os.Stderr, "loaded corpus: %d of %d shards spilled (~%d MiB resident, ~%d MiB spilled)\n",
			ds.SpilledShards(), ds.Shards(), resident>>20, spilled>>20)
	} else {
		g := synth.New(synth.Config{
			Domains: cfg.domains, ZipfS: cfg.zipfS, Seed: cfg.seed, Scans: cfg.scans,
		})
		fmt.Fprintf(os.Stderr, "synth corpus: %d domains, ~%d records/scan, %d scans, %d shards\n",
			cfg.domains, g.EstimatedRecords(), len(g.ScanDates()), cfg.shards)

		ds = scanner.NewDatasetShards(cfg.shards)
		ds.SetStrict(cfg.strict)
		ds.SetMetrics(metrics)
		configureSpill(ds, cfg.spill)
		start := time.Now()
		for _, date := range g.ScanDates() {
			if err := ds.Append(date, g.Scan(date)); err != nil {
				fmt.Fprintf(os.Stderr, "ingest %s: %v\n", date, err)
				os.Exit(1)
			}
		}
		domains, records := ds.Size()
		fmt.Fprintf(os.Stderr, "ingested %d records over %d domains in %v (~%d MiB estimated, %d pooled certs)\n",
			records, domains, time.Since(start).Round(time.Millisecond),
			ds.EstimatedBytes()>>20, ds.Pool().Stats().Certs)
	}

	if cfg.save {
		if err := saveCorpus(ds, cfg.spill.Dir); err != nil {
			fmt.Fprintln(os.Stderr, "spill-save:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "saved corpus to %s (%d of %d shards spilled)\n",
			cfg.spill.Dir, ds.SpilledShards(), ds.Shards())
		return
	}

	pipe := &core.Pipeline{
		Params: core.DefaultParams(), Dataset: ds,
		PDNS: pdns.NewDB(), Workers: cfg.workers,
		Cache: core.NewClassifyCache(), Metrics: metrics,
	}
	if cfg.load {
		// One-shot classify of a restored corpus: the incremental cache
		// only pays off across repeated runs, and retaining a cached
		// classification per (domain, period) cell would defeat the
		// memory budget the corpus was loaded under.
		pipe.Cache = nil
	}
	start := time.Now()
	res := pipe.Run()
	fmt.Fprintf(os.Stderr, "classified in %v\n", time.Since(start).Round(time.Millisecond))
	fmt.Fprint(os.Stderr, res.Stats)

	if cfg.reportJSON != "" {
		if err := report.BuildRunReport(res, ds.Quarantine(), metrics).WriteFile(cfg.reportJSON); err != nil {
			fmt.Fprintln(os.Stderr, "report-json:", err)
			os.Exit(1)
		}
	}
	if cfg.jsonOut {
		if err := report.WriteJSON(os.Stdout, res); err != nil {
			fmt.Fprintln(os.Stderr, "json:", err)
			os.Exit(1)
		}
		return
	}
	fmt.Println(report.Funnel(res))
}

// checkWorldErrors aborts on world-generation failures.
func checkWorldErrors(w *world.World) {
	if err := w.Err(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// score compares verdicts to ground truth and prints recall/precision —
// the evaluation the paper could not perform.
func score(w *world.World, res *core.Result) {
	expHijacked, expTargeted := w.ExpectedVictims()
	got := make(map[dnscore.Name]core.Verdict)
	for _, f := range res.Findings() {
		got[f.Domain] = f.Verdict
	}
	tp, fn := 0, 0
	for _, d := range expHijacked {
		if got[d] == core.VerdictHijacked {
			tp++
		} else {
			fn++
			fmt.Printf("  missed hijacked: %s\n", d)
		}
	}
	for _, d := range expTargeted {
		if v, ok := got[d]; ok && v >= core.VerdictTargeted {
			tp++
		} else {
			fn++
			fmt.Printf("  missed targeted: %s\n", d)
		}
	}
	fp := 0
	for d := range got {
		truth := w.Truth[d]
		if truth == nil || (truth.Kind != "hijacked" && truth.Kind != "targeted") {
			fp++
			fmt.Printf("  false positive: %s\n", d)
		}
	}
	precision, recall := 1.0, 1.0
	if tp+fp > 0 {
		precision = float64(tp) / float64(tp+fp)
	}
	if tp+fn > 0 {
		recall = float64(tp) / float64(tp+fn)
	}
	fmt.Printf("evaluation: tp=%d fp=%d fn=%d precision=%.3f recall=%.3f\n", tp, fp, fn, precision, recall)
}
