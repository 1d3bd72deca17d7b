package main

import (
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"retrodns/internal/core"
	"retrodns/internal/obsv"
	"retrodns/internal/scanner"
	"retrodns/internal/serve"
	"retrodns/internal/simtime"
	"retrodns/internal/wal"
	"retrodns/internal/world"
)

// smallWorld is a small benign world's ingest configuration.
func smallWorld() ingestConfig {
	cfg := ingestConfig{
		world:   world.StudyConfig(1, 5),
		workers: 1,
		wal:     wal.Options{Shards: scanner.DefaultShards, SnapshotEvery: 4},
	}
	cfg.world.Campaigns = false
	return cfg
}

// Serving a bulk-ingested world counts the scans and records it ingested,
// as the follow loop does. It once attached the dataset's metrics only
// after ingest, and reported zero for both.
func TestBulkWorldCountsIngest(t *testing.T) {
	ingested := func(follow bool) [2]int64 {
		metrics := obsv.NewRegistry()
		cfg := smallWorld()
		cfg.follow = follow
		fl, _, _, err := ingest(context.Background(), serve.NewEngine(serve.Options{}), metrics, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if (fl != nil) != follow {
			t.Fatalf("follow=%v ran the follow loop: %v", follow, fl != nil)
		}
		return [2]int64{metrics.Counter(scanner.MetricIngestScans).Value(), metrics.Counter(scanner.MetricIngestRecords).Value()}
	}
	bulk, follow := ingested(false), ingested(true)
	if follow[0] == 0 || follow[1] == 0 {
		t.Fatalf("-follow counts no ingest: scans, records = %v", follow)
	}
	if bulk != follow {
		t.Errorf("bulk ingest counts scans, records = %v, -follow %v", bulk, follow)
	}
}

// An HTTP server that fails on its own still ends in the drain: the report
// is written and the failure returned. The tail once
// returned before the drain on this path, leaving the WAL open and no
// -report-json behind.
func TestServeFailureDrains(t *testing.T) {
	metrics := obsv.NewRegistry()
	engine := serve.NewEngine(serve.Options{})
	cfg := smallWorld()
	cfg.wal.Dir = t.TempDir()
	fl, res, ds, err := ingest(context.Background(), engine, metrics, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: engine.Handler()}
	serveErr := startServe(srv, ln)
	ln.Close() // Serve's next Accept fails: the server dies on its own
	path := filepath.Join(t.TempDir(), "report.json")
	d := &daemon{srv: srv, drain: time.Second, fl: fl, reportJSON: path, res: res, ds: ds, metrics: metrics, engine: engine}
	if err := d.serveUntil(context.Background(), serveErr); err == nil || !strings.Contains(err.Error(), "http server") {
		t.Fatalf("serveUntil = %v, want the server's failure", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("no run report after the server failed: %v", err)
	}
	var doc struct {
		Serve *struct{ Generation uint64 } `json:"serve"`
		WAL   *struct{ Generation uint64 } `json:"wal"`
	}
	if err := json.Unmarshal(data, &doc); err != nil || doc.Serve == nil || doc.Serve.Generation != ds.Generation() {
		t.Fatalf("report serve section %+v (err %v), want generation %d", doc.Serve, err, ds.Generation())
	}
	if doc.WAL == nil || doc.WAL.Generation != ds.Generation() {
		t.Fatalf("report wal section %+v, want generation %d", doc.WAL, ds.Generation())
	}
}

// served is what a daemon serves at the end of a run: the /v1/funnel body
// without its generation, and the hijacked and targeted domains.
type served struct {
	funnel             string
	hijacked, targeted []string
}

func servedBy(t *testing.T, engine *serve.Engine, res *core.Result) served {
	t.Helper()
	rec := httptest.NewRecorder()
	engine.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/funnel", nil))
	body, _ := io.ReadAll(rec.Body)
	var doc serve.FunnelDoc
	if rec.Code != http.StatusOK || json.Unmarshal(body, &doc) != nil {
		t.Fatalf("/v1/funnel: %d %s", rec.Code, body)
	}
	doc.Generation = 0
	funnel, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	out := served{funnel: string(funnel)}
	for _, f := range res.Hijacked {
		out.hijacked = append(out.hijacked, string(f.Domain))
	}
	for _, f := range res.Targeted {
		out.targeted = append(out.targeted, string(f.Domain))
	}
	slices.Sort(out.hijacked)
	slices.Sort(out.targeted)
	return out
}

// A world daemon fed scan by scan serves what the bulk pipeline over the
// same world finds — the inspect and pivot steps run on the world's
// evidence, rebuilt from the seed at start — without a data dir, and with
// one after a kill midway and a restart; and the restart scans only the
// dates its data dir lacks.
func TestWorldRestartMatchesBulk(t *testing.T) {
	if testing.Short() {
		t.Skip("four full study simulations")
	}
	cfg := ingestConfig{
		world:   world.StudyConfig(1, 400),
		workers: 2,
		wal:     wal.Options{Dir: t.TempDir(), Shards: scanner.DefaultShards, SnapshotEvery: 4},
	}

	bulkEngine := serve.NewEngine(serve.Options{})
	_, bulkRes, _, err := ingest(context.Background(), bulkEngine, obsv.NewRegistry(), ingestConfig{world: cfg.world, workers: 2, wal: wal.Options{Shards: scanner.DefaultShards}})
	if err != nil {
		t.Fatal(err)
	}
	want := servedBy(t, bulkEngine, bulkRes)
	if len(want.hijacked) == 0 || len(want.targeted) == 0 {
		t.Fatalf("the bulk pipeline finds %d hijacked, %d targeted", len(want.hijacked), len(want.targeted))
	}
	same := func(what string, got served) {
		t.Helper()
		if got.funnel != want.funnel {
			t.Errorf("%s: /v1/funnel\n%s\nbulk:\n%s", what, got.funnel, want.funnel)
		}
		if !slices.Equal(got.hijacked, want.hijacked) || !slices.Equal(got.targeted, want.targeted) {
			t.Errorf("%s: hijacked %v targeted %v; bulk: hijacked %v targeted %v", what, got.hijacked, got.targeted, want.hijacked, want.targeted)
		}
	}

	storeless := cfg
	storeless.follow, storeless.wal.Dir = true, ""
	engine := serve.NewEngine(serve.Options{})
	_, res, _, err := ingest(context.Background(), engine, obsv.NewRegistry(), storeless)
	if err != nil {
		t.Fatal(err)
	}
	same("-follow", servedBy(t, engine, res))

	// The first daemon is killed while it scans the 117th of 234 dates:
	// that scan is appended and published, then the loop stops without
	// Close.
	const killAt = 117
	w := world.New(cfg.world)
	w.RunClock()
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	first := obsv.NewRegistry()
	opts := cfg.wal
	opts.Metrics = first
	fl, err := wal.OpenFollow(opts, false, core.DefaultParams(), cfg.workers, w.Sources())
	if err != nil {
		t.Fatal(err)
	}
	ctx, kill := context.WithCancel(context.Background())
	defer kill()
	sc, scanned, total := w.Scanner(), 0, 0
	for _, date := range w.ScanDates() {
		total += len(sc.ScanWeek(date))
	}
	scan := func(date simtime.Date) []*scanner.Record {
		if scanned++; scanned == killAt {
			kill()
		}
		return sc.ScanWeek(date)
	}
	if err := fl.RunScans(ctx, scan, w.ScanDates(), 0, func(simtime.Date, *core.Result) {}); err != nil {
		t.Fatal(err)
	}
	if got := len(fl.Dataset.ScanDates(0, 0)); got != killAt {
		t.Fatalf("killed daemon holds %d scans, want %d", got, killAt)
	}

	again := obsv.NewRegistry()
	engine = serve.NewEngine(serve.Options{})
	restarted, res, _, err := ingest(context.Background(), engine, again, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer restarted.Close()
	if !restarted.Recovery.Warm {
		t.Fatal("the restart recovered nothing")
	}
	same("-data-dir, killed and restarted", servedBy(t, engine, res))
	// Each date was scanned once over the two lifetimes.
	rows := func(reg *obsv.Registry) int64 { return reg.Counter(wal.MetricFeedRows).Value() }
	if rows(first)+rows(again) != int64(total) {
		t.Errorf("feed rows %d before the kill + %d after it, the study has %d", rows(first), rows(again), total)
	}
}
