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
//	retrodnsd -data-dir d                    # the same, durable, with warm restarts
//	retrodnsd -data-dir d -scans-csv s.csv   # durable CSV ingest with warm restarts
//
// Every mode but the first ingests scan by scan through wal.Follow. A world
// is analyzed with its evidence (pDNS, CT, IP metadata, DNSSEC), rebuilt
// from -seed and -stable at every start; a data dir does not record them,
// so a restart must pass the same ones. A scans.csv carries no evidence.
//
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
	"errors"
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
	"retrodns/internal/report"
	"retrodns/internal/scanner"
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
		shards      = flag.Int("shards", scanner.DefaultShards, "dataset shard count (a recovered snapshot's own count wins)")
		snapEvery   = flag.Int("snapshot-every", 4, "appends between automatic snapshots in -data-dir mode")
		spillDir    = flag.String("spill-dir", "", "segment-store directory for the out-of-core corpus (enables cold-shard spill; -data-dir mode only)")
		memBudgetMB = flag.Int("mem-budget-mb", -1, "resident corpus budget in MiB: <0 unlimited, 0 spill every frozen shard, >0 ceiling (requires -spill-dir)")
		spillMode   = flag.String("spill-read-mode", "auto", "how spilled segments are read: auto (mmap where the platform has it) or stream")
	)
	flag.Parse()
	spill, err := scanner.SpillFlags(*spillDir, *memBudgetMB, *spillMode)
	if err != nil {
		return err
	}
	if spill != nil && *dataDir == "" {
		return fmt.Errorf("-spill-dir requires -data-dir (the segment store lives beside the WAL)")
	}

	metrics := obsv.NewRegistry()
	engine := serve.NewEngine(serve.Options{
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
	serveErr := startServe(srv, ln)

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
	wcfg := world.StudyConfig(*seed, *stable)
	wcfg.PDNSCoverage, wcfg.Campaigns = *coverage, !*noCampaigns
	fl, res, ds, err := ingest(ctx, engine, metrics, ingestConfig{
		world: wcfg, scansCSV: *scansCSV, workers: *workers, strict: *strict,
		follow: *follow, interval: *interval,
		wal: wal.Options{Dir: *dataDir, Shards: *shards, SnapshotEvery: *snapEvery, Spill: spill},
	})
	if err != nil {
		fl.Close()
		return err
	}

	d := &daemon{
		srv: srv, stopMetrics: stopMetrics, stopPprof: stopPprof, drain: *drain, fl: fl,
		reportJSON: *reportJSON, res: res, ds: ds, metrics: metrics, engine: engine,
	}
	return d.serveUntil(ctx, serveErr)
}

// startServe runs srv on ln. The returned channel yields the error the
// server fails with on its own and is closed once Serve has returned.
func startServe(srv *http.Server, ln net.Listener) <-chan error {
	serveErr := make(chan error, 1)
	go func() {
		if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			serveErr <- err
		}
		close(serveErr)
	}()
	return serveErr
}

// daemon is what the serving tail of run works with once ingest is done:
// the servers to drain, the durable loop to close, and what the run report
// is written from.
type daemon struct {
	srv                    *http.Server
	stopMetrics, stopPprof func(context.Context) error
	drain                  time.Duration
	fl                     *wal.Follow
	reportJSON             string
	res                    *core.Result
	ds                     *scanner.Dataset
	metrics                *obsv.Registry
	engine                 *serve.Engine
}

// serveUntil serves until ctx is done or the HTTP server fails on its own.
// Either way it drains the listeners, closes the durable store and writes
// the run report, then returns the server's failure if that was what ended
// the serving.
func (d *daemon) serveUntil(ctx context.Context, serveErr <-chan error) error {
	var failed error
	select {
	case <-ctx.Done():
		fmt.Fprintln(os.Stderr, "shutdown signal received, draining...")
	case err := <-serveErr:
		if err != nil {
			failed = fmt.Errorf("http server: %w", err)
			fmt.Fprintf(os.Stderr, "%v; draining...\n", failed)
		}
	}

	drainCtx, cancelDrain := context.WithTimeout(context.Background(), d.drain)
	defer cancelDrain()
	if err := d.srv.Shutdown(drainCtx); err != nil {
		fmt.Fprintln(os.Stderr, "drain:", err)
	}
	if d.stopMetrics != nil {
		if err := d.stopMetrics(drainCtx); err != nil {
			fmt.Fprintln(os.Stderr, "metrics drain:", err)
		}
	}
	if d.stopPprof != nil {
		if err := d.stopPprof(drainCtx); err != nil {
			fmt.Fprintln(os.Stderr, "pprof drain:", err)
		}
	}

	// The durable store closes inside the drain window: Close fsyncs and
	// closes the WAL, and every appended batch was already fsynced before
	// it was applied, so a clean SIGTERM loses nothing.
	if err := d.fl.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "wal close:", err)
	}

	if d.reportJSON != "" && d.res != nil {
		if err := d.writeRunReport(); err != nil {
			return errors.Join(failed, fmt.Errorf("report-json: %w", err))
		}
	}
	return failed
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

type ingestConfig struct {
	world    world.Config // the simulated study, unless scansCSV names a feed
	scansCSV string
	wal      wal.Options // no Dir: the loop runs without a store
	workers  int
	strict   bool
	follow   bool
	interval time.Duration
}

// ingest analyzes the world once over its bulk-ingested scans or, with
// -follow, -data-dir or -scans-csv, runs the durable follow loop over the
// world's weekly scans or the CSV feed, publishing a snapshot per
// generation. It returns the loop (nil in bulk mode) and the final result
// and dataset for the shutdown report; a nil result means the context was
// cancelled before the first analysis.
func ingest(ctx context.Context, engine *serve.Engine, metrics *obsv.Registry, cfg ingestConfig) (*wal.Follow, *core.Result, *scanner.Dataset, error) {
	var w *world.World
	var src core.Sources
	if cfg.scansCSV == "" {
		fmt.Fprintf(os.Stderr, "building world (seed=%d stable=%d campaigns=%v)...\n", cfg.world.Seed, cfg.world.StableDomains, cfg.world.Campaigns)
		w = world.New(cfg.world)
		if !cfg.follow && cfg.wal.Dir == "" {
			res, ds, err := analyzeWorld(engine, metrics, w, cfg)
			return nil, res, ds, err
		}
		w.RunClock()
		if err := w.Err(); err != nil {
			return nil, nil, nil, err
		}
		src = w.Sources()
	}
	cfg.wal.Metrics = metrics
	fl, err := wal.OpenFollow(cfg.wal, cfg.strict, core.DefaultParams(), cfg.workers, src)
	if err != nil {
		return nil, nil, nil, err
	}
	ds, rec := fl.Dataset, fl.Recovery
	if fl.Result != nil { // a warm boot
		// The API answers from the pre-crash state before the feed
		// advances it.
		engine.Publish(serve.BuildSnapshot(fl.Result, ds, snapshotStamp(ds)))
		fmt.Fprintf(os.Stderr, "published recovered snapshot gen=%d (snapshot=%q replayed=%d faults=%v)\n",
			rec.Generation, rec.FromSnapshot, rec.ReplayedBatches, rec.Faults)
	}
	publish := func(date simtime.Date, res *core.Result) {
		engine.Publish(serve.BuildSnapshot(res, ds, snapshotStamp(ds)))
		fmt.Fprintf(os.Stderr, "scan %s: published gen=%d dirty=%d hijacked=%d targeted=%d\n",
			date, ds.Generation(), res.Stats.DirtyCells, len(res.Hijacked), len(res.Targeted))
	}
	// The pause applies to bounded input too: it is what gives the chaos
	// harness a window to kill the daemon mid-ingest.
	what := "study replay"
	if w != nil {
		err = fl.RunScans(ctx, w.Scanner().ScanWeek, w.ScanDates(), cfg.interval, publish)
	} else {
		what = "csv feed"
		var f *os.File
		if f, err = os.Open(cfg.scansCSV); err == nil {
			err = fl.Run(ctx, f, cfg.follow, cfg.interval, publish)
			f.Close()
		}
	}
	if err != nil {
		err = fmt.Errorf("%s: %w", what, err)
	} else if ctx.Err() == nil {
		if q := ds.Quarantine(); q.Total > 0 {
			fmt.Fprintln(os.Stderr, q)
		}
		fmt.Fprintf(os.Stderr, "%s complete; serving final snapshot\n", what)
	}
	return fl, fl.Result, ds, err
}

// analyzeWorld analyzes the world's whole study in one bulk pass and
// publishes the result once.
func analyzeWorld(engine *serve.Engine, metrics *obsv.Registry, w *world.World, cfg ingestConfig) (*core.Result, *scanner.Dataset, error) {
	ds := w.RunShards(cfg.wal.Shards, metrics)
	if err := w.Err(); err != nil {
		return nil, nil, err
	}
	if q := ds.Quarantine(); q.Total > 0 {
		fmt.Fprintln(os.Stderr, q)
		if cfg.strict {
			return nil, nil, fmt.Errorf("strict: refusing to analyze a partially-malformed feed")
		}
	}
	res := w.Sources().Pipeline(ds, cfg.workers, core.NewClassifyCache(), metrics).Run()
	engine.Publish(serve.BuildSnapshot(res, ds, snapshotStamp(ds)))
	fmt.Fprintf(os.Stderr, "published snapshot gen=%d hijacked=%d targeted=%d\n",
		ds.Generation(), len(res.Hijacked), len(res.Targeted))
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

// writeRunReport emits the run report with the serving section attached —
// the only producer that fills it in — plus, in durable mode, the WAL
// section describing what boot recovered.
func (d *daemon) writeRunReport() error {
	doc := report.BuildRunReport(d.res, d.ds.Quarantine(), d.metrics)
	st := d.engine.Stats()
	doc.Serve = &report.ServeSection{
		Generation:     st.Generation,
		Swaps:          st.Swaps,
		Prerendered:    st.Prerendered,
		BodyTemplates:  st.BodyTemplates,
		BodiesRendered: st.BodiesRendered,
		Requests:       st.Requests,
	}
	if d.fl != nil && d.fl.Recovery != nil {
		rec := d.fl.Recovery
		doc.WAL = &report.WALSection{
			Warm:                rec.Warm,
			FromSnapshot:        rec.FromSnapshot,
			RecoveredGeneration: rec.Generation,
			ReplayedBatches:     rec.ReplayedBatches,
			Generation:          d.ds.Generation(),
		}
		if len(rec.Faults) > 0 {
			doc.WAL.Quarantined = rec.Faults
		}
	}
	return doc.WriteFile(d.reportJSON)
}
