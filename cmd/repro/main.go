// Command repro regenerates every table and figure of the paper from a
// freshly simulated study. With no flags it prints everything; individual
// artifacts can be selected with -table / -figure / -funnel /
// -observability.
//
//	repro -table 2          # the hijacked-domains table
//	repro -figure 2         # the kyvernisi.gr deployment map
//	repro -all              # everything (default)
//	repro -seed 3 -stable 5000
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"retrodns/internal/core"
	"retrodns/internal/dnscore"
	"retrodns/internal/obsv"
	"retrodns/internal/report"
	"retrodns/internal/scanner"
	"retrodns/internal/simtime"
	"retrodns/internal/world"
)

func main() {
	var (
		table   = flag.Int("table", 0, "print one table (1,2,3,4,5,9)")
		figure  = flag.Int("figure", 0, "print one figure (2,3,4,5)")
		funnel  = flag.Bool("funnel", false, "print the methodology funnel (§4.2–§4.5)")
		observ  = flag.Bool("observability", false, "print the §5.3 observability statistics")
		counter = flag.Bool("counterfactual", false, "run the §7.2 Registry Lock counterfactual")
		all     = flag.Bool("all", false, "print everything")
		seed    = flag.Int64("seed", 1, "world generation seed")
		stable  = flag.Int("stable", 400, "benign stable-domain population")
		workers = flag.Int("workers", 0, "pipeline worker-pool size (0 = GOMAXPROCS)")
		shards  = flag.Int("shards", scanner.DefaultShards, "dataset shard count (1..64)")
		strict  = flag.Bool("strict", false, "treat any record the ingest gate would quarantine as a fatal error instead of skipping it")
		shortRn = flag.Bool("quiet", false, "suppress progress output")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf = flag.String("memprofile", "", "write a heap profile to this file on exit")
		repJSON = flag.String("report-json", "", "write the machine-readable run report to this file ('-' for stdout)")
	)
	flag.Parse()
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cpuprofile:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "cpuprofile:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, "memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "memprofile:", err)
			}
		}()
	}
	if *table == 0 && *figure == 0 && !*funnel && !*observ && !*counter {
		*all = true
	}

	cfg := world.StudyConfig(*seed, *stable)

	progress := func(format string, args ...any) {
		if !*shortRn {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	progress("generating world (seed %d, %d stable domains, full campaign replay)...", cfg.Seed, cfg.StableDomains)
	w := world.New(cfg)
	progress("running study clock and weekly scans (%d days)...", simtime.StudyDays)
	metrics := obsv.NewRegistry()
	ds := w.RunShards(*shards, metrics)
	if err := w.Err(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if q := ds.Quarantine(); q.Total > 0 {
		fmt.Fprintln(os.Stderr, q)
		if *strict {
			fmt.Fprintln(os.Stderr, "strict: refusing to analyze a partially-malformed feed")
			os.Exit(1)
		}
	}
	domains, records := ds.Size()
	progress("%s; dataset: %d domains, %d records", w.Summary(), domains, records)

	progress("running detection pipeline...")
	res := w.Sources().Pipeline(ds, *workers, core.NewClassifyCache(), metrics).Run()
	progress("%s", res.Stats)

	if *repJSON != "" {
		if err := report.BuildRunReport(res, ds.Quarantine(), metrics).WriteFile(*repJSON); err != nil {
			fmt.Fprintln(os.Stderr, "report-json:", err)
			os.Exit(1)
		}
	}

	sectors := make(map[dnscore.Name]string)
	for _, truth := range w.TruthList() {
		if truth.Sector != "" {
			sectors[truth.Domain] = truth.Sector
		}
	}

	emit := func(s string) { fmt.Println(s) }

	if *all || *funnel {
		emit(report.Funnel(res))
	}
	if *all || *table == 1 {
		emit("Table 1: annotated scan data for kyvernisi.gr around the hijack")
		hijack := findDomain(res, "kyvernisi.gr")
		from, to := simtime.Date(0), simtime.StudyEnd
		if hijack != nil {
			from, to = hijack.Date-21, hijack.Date+35
		}
		emit(report.Table1(ds, "kyvernisi.gr", from, to))
	}
	if *all || *figure == 2 {
		emit("Figure 2: deployment map of kyvernisi.gr")
		emit(report.PatternGallery(ds, core.DefaultParams(), map[string]dnscore.Name{
			"kyvernisi.gr": "kyvernisi.gr",
		}))
	}
	if *all || *figure == 3 || *figure == 4 || *figure == 5 {
		emit("Figures 3–5: representative deployment patterns")
		emit(report.PatternGallery(ds, core.DefaultParams(), map[string]dnscore.Name{
			"S (stable)":               "stable0000.com",
			"X (transition)":           "mover0000.com",
			"T1 (transient, new cert)": "kyvernisi.gr",
			"T2 (transient, proxy)":    "parlament.ch",
			"noisy":                    "churn0000.com",
		}))
	}
	if *all || *table == 2 {
		emit(report.Table2(res.Hijacked))
	}
	if *all || *table == 3 {
		emit(report.Table3(res.Targeted))
	}
	if *all || *table == 4 {
		emit(report.Table4(res.Hijacked, res.Targeted, sectors))
	}
	if *all || *table == 5 {
		emit(report.Table5(res.Hijacked, res.Targeted, w.Meta.Orgs))
	}
	if *all || *table == 9 {
		crl, _ := w.Comodo.CRL()
		emit(report.Table9(res.Hijacked, func(f *core.Finding) (bool, bool) {
			switch f.IssuerCA {
			case "Comodo":
				_, revoked := crl[f.CertFP]
				return revoked, true
			case "Let's Encrypt":
				return false, false // OCSP only: unknowable retroactively
			default:
				return false, false
			}
		}))
	}
	if *all || *observ {
		stats := core.Observability(res.Hijacked, ds, w.PDNSDB, w.CT)
		emit(report.ObservabilityReport(stats))
		emit(report.ZoneFileReport(res.Hijacked, w.ZoneFiles))
	}
	if *all || *counter {
		progress("running the §7.2 Registry Lock counterfactual (second world)...")
		lockCfg := cfg
		lockCfg.RegistryLockAll = true
		lw := world.New(lockCfg)
		lds := lw.Run()
		lres := lw.Sources().Pipeline(lds, *workers, nil, nil).Run()
		truthHijacked := 0
		for _, truth := range lw.TruthList() {
			if truth.Kind == "hijacked" {
				truthHijacked++
			}
		}
		emit("Counterfactual: Registry Lock on every victim (paper §7.2)")
		emit(fmt.Sprintf("  attacks blocked at the registry:   %d", len(lw.Prevented)))
		emit(fmt.Sprintf("  hijacks still executed (provider): %d", truthHijacked))
		emit(fmt.Sprintf("  hijacks the pipeline detects:      %d (pivot anchors gone)", len(lres.Hijacked)))
		emit(fmt.Sprintf("  targeted verdicts:                 %d (stagings still visible)", len(lres.Targeted)))
	}
}

func findDomain(res *core.Result, domain dnscore.Name) *core.Finding {
	for _, f := range res.Findings() {
		if f.Domain == domain {
			return f
		}
	}
	return nil
}
