package main

import (
	"context"
	"testing"

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
