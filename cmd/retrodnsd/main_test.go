package main

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"retrodns/internal/obsv"
	"retrodns/internal/scanner"
	"retrodns/internal/serve"
)

// Serving a bulk-ingested world counts the scans and records it ingested,
// as -follow does. It once attached the dataset's metrics only after
// ingest, and reported zero for both.
func TestBulkWorldCountsIngest(t *testing.T) {
	ingested := func(follow bool) [2]int64 {
		metrics := obsv.NewRegistry()
		cfg := ingestConfig{seed: 1, stable: 5, coverage: 0.85, workers: 1, follow: follow}
		if _, _, err := ingest(context.Background(), serve.NewEngine(serve.Options{}), metrics, cfg); err != nil {
			t.Fatal(err)
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
// is written and the failure returned. The tail once returned before the
// drain on this path, leaving the WAL open and no -report-json behind.
func TestServeFailureDrains(t *testing.T) {
	metrics := obsv.NewRegistry()
	engine := serve.NewEngine(serve.Options{})
	cfg := ingestConfig{seed: 1, stable: 5, coverage: 0.85, workers: 1}
	res, ds, err := ingest(context.Background(), engine, metrics, cfg)
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
	d := &daemon{srv: srv, drain: time.Second, reportJSON: path, res: res, ds: ds, metrics: metrics, engine: engine}
	if err := d.serveUntil(context.Background(), serveErr); err == nil || !strings.Contains(err.Error(), "http server") {
		t.Fatalf("serveUntil = %v, want the server's failure", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("no run report after the server failed: %v", err)
	}
	var doc struct {
		Serve *struct{ Generation uint64 } `json:"serve"`
	}
	if err := json.Unmarshal(data, &doc); err != nil || doc.Serve == nil || doc.Serve.Generation != ds.Generation() {
		t.Fatalf("report serve section %+v (err %v), want generation %d", doc.Serve, err, ds.Generation())
	}
}
