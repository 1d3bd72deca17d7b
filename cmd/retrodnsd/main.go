// Command retrodnsd is the serving daemon: it ingests a simulated study,
// runs the analysis pipeline, and serves the results over a versioned
// HTTP API while the study replays underneath.
//
// The read side never blocks on the write side. Each pipeline run is
// folded into an immutable snapshot that is published with one atomic
// pointer swap; every request reads exactly one snapshot, so responses
// are internally consistent even while -follow ingest drives generation
// after generation through the incremental engine.
//
//	retrodnsd -listen :8080                  # analyze once, serve forever
//	retrodnsd -listen :8080 -follow          # re-analyze and swap after every scan
//	retrodnsd -data-dir d -scans-csv s.csv   # durable CSV ingest with warm restarts
//	curl localhost:8080/v1/healthz
//	curl localhost:8080/v1/funnel
//	curl localhost:8080/v1/shortlist
//	curl localhost:8080/v1/patterns/T1
//	curl localhost:8080/v1/domain/login.treasury.gov.aa
//
// Endpoints: /v1/domain/{name}, /v1/shortlist, /v1/funnel,
// /v1/patterns/{label}, /v1/healthz — plus /metrics and /debug/vars from
// the shared observability registry on the same listener.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"retrodns/internal/core"
	"retrodns/internal/obsv"
	"retrodns/internal/pdns"
	"retrodns/internal/report"
	"retrodns/internal/scanner"
	"retrodns/internal/segment"
	"retrodns/internal/serve"
	"retrodns/internal/simtime"
	"retrodns/internal/wal"
	"retrodns/internal/world"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "retrodnsd:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		listen      = flag.String("listen", ":8080", "serve the /v1 query API (and /metrics) on this address")
		metricsAddr = flag.String("metrics-addr", "", "also serve /metrics and /debug/vars on this side address (they are always on -listen)")
		seed        = flag.Int64("seed", 1, "world generation seed")
		stable      = flag.Int("stable", 400, "benign stable-domain population")
		noCampaigns = flag.Bool("no-campaigns", false, "disable the attack campaigns")
		coverage    = flag.Float64("pdns-coverage", 0.85, "passive-DNS sensor coverage (0..1]")
		workers     = flag.Int("workers", 0, "pipeline worker-pool size (0 = GOMAXPROCS)")
		strict      = flag.Bool("strict", false, "treat any record the ingest gate would quarantine as a fatal error")
		follow      = flag.Bool("follow", false, "ingest scan-by-scan, re-analyzing and swapping the snapshot after each scan")
		interval    = flag.Duration("scan-interval", 0, "pause between scans in -follow mode (0 = replay as fast as possible)")
		lruSize     = flag.Int("lru", serve.DefaultLRUSize, "rendered-response cache entries (negative disables); every body is served from the snapshot, so nothing reaches it by default")
		rate        = flag.Float64("rate", 0, "token-bucket request rate limit per second (0 disables)")
		burst       = flag.Int("burst", 0, "rate-limiter burst capacity (defaults to 1 when -rate is set)")
		tenantRate  = flag.Float64("tenant-rate", 0, "per-tenant request rate limit per second, keyed on "+serve.TenantHeader+" (0 disables)")
		tenantBurst = flag.Int("tenant-burst", 0, "per-tenant burst capacity (defaults to 1 when -tenant-rate is set)")
		reqTimeout  = flag.Duration("request-timeout", 10*time.Second, "per-request handler timeout")
		drain       = flag.Duration("drain-timeout", 10*time.Second, "graceful-shutdown drain window on SIGTERM/SIGINT")
		reportJSON  = flag.String("report-json", "", "write the run report (with serve section) here on shutdown ('-' for stdout)")
		pprofAddr   = flag.String("pprof-addr", "", "serve net/http/pprof on this side address (off by default; never on -listen)")
		dataDir     = flag.String("data-dir", "", "durable state directory (WAL + snapshots); enables warm restarts")
		scansCSV    = flag.String("scans-csv", "", "ingest scan records from this CSV file instead of simulating a world")
		shards      = flag.Int("shards", scanner.DefaultShards, "dataset shard count for CSV ingest (a recovered snapshot's own count wins)")
		snapEvery   = flag.Int("snapshot-every", 4, "appends between automatic snapshots in -data-dir mode")
		spillDir    = flag.String("spill-dir", "", "segment-store directory for the out-of-core corpus (enables cold-shard spill; -data-dir mode only)")
		memBudgetMB = flag.Int("mem-budget-mb", -1, "resident corpus budget in MiB: <0 unlimited, 0 spill every frozen shard, >0 ceiling (requires -spill-dir)")
		spillMode   = flag.String("spill-read-mode", "auto", "how spilled segments are read: auto, mmap, or stream")
	)
	flag.Parse()
	if *dataDir != "" && *scansCSV == "" {
		return fmt.Errorf("-data-dir requires -scans-csv (durable mode ingests a CSV feed)")
	}
	var spill *scanner.SpillOptions
	if *spillDir != "" {
		if *dataDir == "" {
			return fmt.Errorf("-spill-dir requires -data-dir (the segment store lives beside the WAL)")
		}
		mode, err := segment.ParseMode(*spillMode)
		if err != nil {
			return err
		}
		budget := int64(-1)
		if *memBudgetMB >= 0 {
			budget = int64(*memBudgetMB) << 20
		}
		spill = &scanner.SpillOptions{Dir: *spillDir, BudgetBytes: budget, Mode: mode}
	} else if *memBudgetMB >= 0 {
		return fmt.Errorf("-mem-budget-mb requires -spill-dir")
	}

	metrics := obsv.NewRegistry()
	engine := serve.NewEngine(serve.Options{
		LRUSize:          lruFlag(*lruSize),
		RatePerSec:       *rate,
		Burst:            *burst,
		TenantRatePerSec: *tenantRate,
		TenantBurst:      *tenantBurst,
	})
	engine.SetMetrics(metrics)

	// One mux, one listener: the query API and the scrape surface share
	// -listen; -metrics-addr adds an optional side listener for setups
	// that keep scrapes off the serving port.
	mux := http.NewServeMux()
	mux.Handle("/v1/", engine.Handler())
	metrics.Mount(mux)
	srv := &http.Server{
		Handler:           http.TimeoutHandler(mux, *reqTimeout, `{"error":"request timed out"}`+"\n"),
		ReadHeaderTimeout: 5 * time.Second,
	}
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return fmt.Errorf("listen %s: %w", *listen, err)
	}
	fmt.Fprintf(os.Stderr, "serving /v1 API on http://%s\n", ln.Addr())
	serveErr := make(chan error, 1)
	go func() {
		if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			serveErr <- err
		}
		close(serveErr)
	}()

	var stopPprof func(context.Context) error
	if *pprofAddr != "" {
		bound, stop, err := servePprof(*pprofAddr)
		if err != nil {
			return err
		}
		stopPprof = stop
		fmt.Fprintf(os.Stderr, "pprof on http://%s/debug/pprof/\n", bound)
	}

	var stopMetrics func(context.Context) error
	if *metricsAddr != "" {
		bound, stop, err := obsv.ListenAndServeMetrics(*metricsAddr, metrics, os.Stderr)
		if err != nil {
			return err
		}
		stopMetrics = stop
		fmt.Fprintf(os.Stderr, "metrics on http://%s/metrics\n", bound)
	}

	ctx, cancel := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer cancel()

	// Ingest on the main goroutine: the daemon serves whatever snapshot is
	// current while this loop advances it.
	var (
		res *core.Result
		ds  *scanner.Dataset
		dur *durable
	)
	if *scansCSV != "" {
		res, ds, dur, err = ingestCSV(ctx, engine, metrics, csvConfig{
			path: *scansCSV, dataDir: *dataDir, shards: *shards,
			snapshotEvery: *snapEvery, workers: *workers, strict: *strict,
			follow: *follow, interval: *interval, spill: spill,
		})
	} else {
		res, ds, err = ingest(ctx, engine, metrics, ingestConfig{
			seed: *seed, stable: *stable, campaigns: !*noCampaigns,
			coverage: *coverage, workers: *workers, strict: *strict,
			follow: *follow, interval: *interval,
		})
	}
	if err != nil {
		if dur != nil {
			dur.Close()
		}
		return err
	}

	// Serve until signalled (or until the HTTP server dies on its own).
	select {
	case <-ctx.Done():
		fmt.Fprintln(os.Stderr, "shutdown signal received, draining...")
	case err := <-serveErr:
		if err != nil {
			return fmt.Errorf("http server: %w", err)
		}
	}

	drainCtx, cancelDrain := context.WithTimeout(context.Background(), *drain)
	defer cancelDrain()
	if err := srv.Shutdown(drainCtx); err != nil {
		fmt.Fprintln(os.Stderr, "drain:", err)
	}
	if stopMetrics != nil {
		if err := stopMetrics(drainCtx); err != nil {
			fmt.Fprintln(os.Stderr, "metrics drain:", err)
		}
	}
	if stopPprof != nil {
		if err := stopPprof(drainCtx); err != nil {
			fmt.Fprintln(os.Stderr, "pprof drain:", err)
		}
	}

	// The durable store closes inside the drain window: Close fsyncs and
	// closes the WAL, and every appended batch was already fsynced before
	// it was applied, so a clean SIGTERM loses nothing.
	if dur != nil {
		if err := dur.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "wal close:", err)
		}
	}

	if *reportJSON != "" && res != nil {
		if err := writeRunReport(*reportJSON, res, ds, metrics, engine, dur); err != nil {
			return fmt.Errorf("report-json: %w", err)
		}
	}
	return nil
}

// servePprof starts the profiling side listener: its own mux carrying only
// the net/http/pprof handlers, so the profiler surface never shares a port
// with the query API or the metrics scrape — the same shape as
// obsv.ListenAndServeMetrics. Returns the bound address and a shutdown
// function.
func servePprof(addr string) (string, func(context.Context) error, error) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, fmt.Errorf("pprof listen %s: %w", addr, err)
	}
	go func() {
		if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			fmt.Fprintln(os.Stderr, "pprof server:", err)
		}
	}()
	return ln.Addr().String(), srv.Shutdown, nil
}

// lruFlag maps the -lru flag onto serve.Options.LRUSize, where 0 means
// "use the default" rather than "disabled" — a user passing -lru 0 wants
// caching off.
func lruFlag(n int) int {
	if n <= 0 {
		return -1
	}
	return n
}

type ingestConfig struct {
	seed      int64
	stable    int
	campaigns bool
	coverage  float64
	workers   int
	strict    bool
	follow    bool
	interval  time.Duration
}

// ingest builds the world and drives it through the pipeline, publishing
// a snapshot per generation (-follow) or once for the whole corpus. It
// returns the final result and dataset for the shutdown report; a nil
// result means the context was cancelled before the first analysis.
func ingest(ctx context.Context, engine *serve.Engine, metrics *obsv.Registry, cfg ingestConfig) (*core.Result, *scanner.Dataset, error) {
	wcfg := world.DefaultConfig()
	wcfg.Seed = cfg.seed
	wcfg.StableDomains = cfg.stable
	wcfg.TransitionDomains = cfg.stable * 3 / 100
	wcfg.NoisyDomains = max(2, cfg.stable/250)
	wcfg.PDNSCoverage = cfg.coverage
	wcfg.Campaigns = cfg.campaigns

	fmt.Fprintf(os.Stderr, "building world (seed=%d stable=%d campaigns=%v)...\n", wcfg.Seed, wcfg.StableDomains, wcfg.Campaigns)
	w := world.New(wcfg)

	if !cfg.follow {
		ds := w.Run()
		if err := w.Err(); err != nil {
			return nil, nil, err
		}
		if q := ds.Quarantine(); q.Total > 0 {
			fmt.Fprintln(os.Stderr, q)
			if cfg.strict {
				return nil, nil, fmt.Errorf("strict: refusing to analyze a partially-malformed feed")
			}
		}
		ds.SetMetrics(metrics)
		res := w.Pipeline(ds, cfg.workers, core.NewClassifyCache(), metrics).Run()
		engine.Publish(serve.BuildSnapshot(res, ds, snapshotStamp(ds)))
		fmt.Fprintf(os.Stderr, "published snapshot gen=%d hijacked=%d targeted=%d\n",
			ds.Generation(), len(res.Hijacked), len(res.Targeted))
		return res, ds, nil
	}

	w.RunClock()
	if err := w.Err(); err != nil {
		return nil, nil, err
	}
	sc := w.Scanner()
	ds := scanner.NewDataset()
	ds.SetStrict(cfg.strict)
	ds.SetMetrics(metrics)
	pipe := w.Pipeline(ds, cfg.workers, core.NewClassifyCache(), metrics)

	var res *core.Result
	for _, date := range w.ScanDates() {
		select {
		case <-ctx.Done():
			return res, ds, nil
		default:
		}
		if err := ds.Append(date, sc.ScanWeek(date)); err != nil {
			return res, ds, fmt.Errorf("ingest %s: %w", date, err)
		}
		res = pipe.Run()
		engine.Publish(serve.BuildSnapshot(res, ds, snapshotStamp(ds)))
		fmt.Fprintf(os.Stderr, "scan %s: published gen=%d dirty=%d hijacked=%d targeted=%d\n",
			date, ds.Generation(), res.Stats.DirtyCells, len(res.Hijacked), len(res.Targeted))
		if cfg.interval > 0 {
			select {
			case <-ctx.Done():
				return res, ds, nil
			case <-time.After(cfg.interval):
			}
		}
	}
	if q := ds.Quarantine(); q.Total > 0 {
		fmt.Fprintln(os.Stderr, q)
	}
	fmt.Fprintln(os.Stderr, "study replay complete; serving final snapshot")
	return res, ds, nil
}

// snapshotStamp derives the published snapshot's Built instant from the
// data itself — the latest ingested scan date — rather than the wall
// clock, so two daemons serving the same generation publish identical
// snapshots whether or not one of them restarted along the way.
func snapshotStamp(ds *scanner.Dataset) time.Time {
	if date, ok := ds.LatestScanDate(); ok {
		return date.Time()
	}
	return simtime.StudyStart.Time()
}

type csvConfig struct {
	path          string
	dataDir       string
	shards        int
	snapshotEvery int
	workers       int
	strict        bool
	follow        bool
	interval      time.Duration
	spill         *scanner.SpillOptions
}

// durable bundles the WAL store with what Open recovered, for the
// shutdown path and the report's WAL section.
type durable struct {
	store *wal.Store
	rec   *wal.Recovery
}

func (d *durable) Close() error {
	if d == nil || d.store == nil {
		return nil
	}
	return d.store.Close()
}

// followPoll is how long -follow CSV ingest sleeps when the feed has no
// complete new data.
const followPoll = 100 * time.Millisecond

// ingestCSV feeds scan records from a CSV file through the durable store
// (when -data-dir is set) into the pipeline, publishing a snapshot per
// appended scan. On a warm boot it first republishes the recovered
// generation, so the API answers from the pre-crash state before the feed
// advances it. There is no simulated world behind a CSV feed, so the
// auxiliary sources are empty — same shape as retrodns -synth.
func ingestCSV(ctx context.Context, engine *serve.Engine, metrics *obsv.Registry, cfg csvConfig) (*core.Result, *scanner.Dataset, *durable, error) {
	dur := &durable{}
	var ds *scanner.Dataset
	cache := core.NewClassifyCache()
	if cfg.dataDir != "" {
		store, rec, err := wal.Open(wal.Options{
			Dir: cfg.dataDir, Shards: cfg.shards,
			SnapshotEvery: cfg.snapshotEvery, Metrics: metrics,
			Spill: cfg.spill,
		})
		if err != nil {
			return nil, nil, nil, fmt.Errorf("wal open %s: %w", cfg.dataDir, err)
		}
		dur.store, dur.rec = store, rec
		ds, cache = rec.Dataset, rec.Cache
		if rec.Warm {
			fmt.Fprintf(os.Stderr, "recovered gen=%d (snapshot=%q replayed=%d faults=%v)\n",
				rec.Generation, rec.FromSnapshot, rec.ReplayedBatches, rec.Faults)
		}
	} else {
		ds = scanner.NewDatasetShards(cfg.shards)
	}
	ds.SetStrict(cfg.strict)
	ds.SetMetrics(metrics)
	if dur.rec != nil && dur.rec.Warm {
		ds.AccountRestored()
	}
	pipe := &core.Pipeline{
		Params: core.DefaultParams(), Dataset: ds, PDNS: pdns.NewDB(),
		Workers: cfg.workers, Cache: cache, Metrics: metrics,
	}

	var res *core.Result
	if ds.Frozen() {
		// Warm boot: serve the recovered generation before reading a byte
		// of feed.
		res = pipe.Run()
		engine.Publish(serve.BuildSnapshot(res, ds, snapshotStamp(ds)))
		fmt.Fprintf(os.Stderr, "published recovered snapshot gen=%d\n", ds.Generation())
	}

	f, err := os.Open(cfg.path)
	if err != nil {
		return res, ds, dur, err
	}
	defer f.Close()
	feeder := wal.NewFeeder(f, ds, dur.store, metrics)
	for {
		select {
		case <-ctx.Done():
			return res, ds, dur, nil
		default:
		}
		date, appended, err := feeder.Tick()
		if err != nil {
			return res, ds, dur, fmt.Errorf("ingest %s: %w", cfg.path, err)
		}
		if !appended {
			if !cfg.follow {
				// Bounded input: a torn final line is quarantined, not held.
				feeder.Finish()
				break
			}
			select {
			case <-ctx.Done():
				return res, ds, dur, nil
			case <-time.After(followPoll):
			}
			continue
		}
		res = pipe.Run()
		engine.Publish(serve.BuildSnapshot(res, ds, snapshotStamp(ds)))
		fmt.Fprintf(os.Stderr, "scan %s: published gen=%d dirty=%d hijacked=%d targeted=%d\n",
			date, ds.Generation(), res.Stats.DirtyCells, len(res.Hijacked), len(res.Targeted))
		if dur.store != nil {
			if _, err := dur.store.MaybeSnapshot(); err != nil {
				return res, ds, dur, fmt.Errorf("snapshot: %w", err)
			}
		}
		// The pause applies in bounded mode too: it is what gives the chaos
		// harness a window to kill the daemon mid-ingest.
		if cfg.interval > 0 {
			select {
			case <-ctx.Done():
				return res, ds, dur, nil
			case <-time.After(cfg.interval):
			}
		}
	}
	if dur.store != nil {
		if err := dur.store.Snapshot(); err != nil {
			return res, ds, dur, fmt.Errorf("final snapshot: %w", err)
		}
	}
	if q := ds.Quarantine(); q.Total > 0 {
		fmt.Fprintln(os.Stderr, q)
	}
	fmt.Fprintln(os.Stderr, "csv feed complete; serving final snapshot")
	return res, ds, dur, nil
}

// writeRunReport emits the run report with the serving section attached —
// the only producer that fills it in — plus, in durable mode, the WAL
// section describing what boot recovered.
func writeRunReport(path string, res *core.Result, ds *scanner.Dataset, metrics *obsv.Registry, engine *serve.Engine, dur *durable) error {
	doc := report.BuildRunReport(res, ds.Quarantine(), metrics)
	st := engine.Stats()
	doc.Serve = &report.ServeSection{
		Generation:     st.Generation,
		Swaps:          st.Swaps,
		Prerendered:    st.Prerendered,
		BodyTemplates:  st.BodyTemplates,
		BodiesRendered: st.BodiesRendered,
		Requests:       st.Requests,
	}
	if dur != nil && dur.rec != nil {
		doc.WAL = &report.WALSection{
			Warm:                dur.rec.Warm,
			FromSnapshot:        dur.rec.FromSnapshot,
			RecoveredGeneration: dur.rec.Generation,
			ReplayedBatches:     dur.rec.ReplayedBatches,
			Generation:          ds.Generation(),
		}
		if len(dur.rec.Faults) > 0 {
			doc.WAL.Quarantined = dur.rec.Faults
		}
	}
	return doc.WriteFile(path)
}
