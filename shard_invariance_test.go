package retrodns_bench

import (
	"bytes"
	"fmt"
	"testing"

	"retrodns/internal/core"
	"retrodns/internal/report"
	"retrodns/internal/scanner"
	"retrodns/internal/world"
)

// TestShardCountInvariance is the end-to-end acceptance test for the
// sharded dataset and the shard-affine classify engine: the full study
// analyzed over datasets sharded 1, 3, and 8 ways, with worker pools of
// 1 and 8 — bulk-ingested uncached, bulk with the legacy per-domain
// fan-out, and incrementally Appended with a warm classification cache —
// must serialize to the exact same JSON report, byte for byte, and agree
// on every funnel count and the quarantine journal. Shard count, worker
// count, and fan-out strategy are execution knobs, never analysis inputs.
//
// The matrix runs twice: over the scanner's own records, and over the same
// scans written to scans.csv and read back through one ScanCSV reader —
// records that share certificate instances and ports arrays across weeks,
// which is what the ingest route memo and the gate's per-certificate memo
// key on.
func TestShardCountInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("full study replay")
	}
	cfg := world.Config{Seed: 2, StableDomains: 20, Campaigns: true, PDNSCoverage: 1}
	w := world.New(cfg)
	w.RunClock()
	if len(w.Errors) > 0 {
		t.Fatalf("world errors: %v", w.Errors)
	}
	sc := w.Scanner()
	dates := w.ScanDates()
	scans := make([][]*scanner.Record, len(dates))
	for i, d := range dates {
		scans[i] = sc.ScanWeek(d)
	}
	t.Run("scanner records", func(t *testing.T) { shardCountInvariance(t, w, scans) })
	t.Run("csv-read records", func(t *testing.T) { shardCountInvariance(t, w, viaScanCSV(t, scans)) })
}

// viaScanCSV writes scans out as one scans.csv and reads them back through
// a single reader, regrouped by scan date.
func viaScanCSV(t *testing.T, scans [][]*scanner.Record) [][]*scanner.Record {
	t.Helper()
	rd := scanner.NewScanCSV(bytes.NewReader(scansCSV(scans)))
	rd.OnQuarantine = func(reason, detail string) { t.Fatalf("row quarantined: %s: %s", reason, detail) }
	out := make([][]*scanner.Record, len(scans))
	for i, scan := range scans {
		for range scan {
			rec, err := rd.Next()
			if err != nil {
				t.Fatalf("scan %d: %v", i, err)
			}
			out[i] = append(out[i], rec)
		}
	}
	return out
}

func shardCountInvariance(t *testing.T, w *world.World, scans [][]*scanner.Record) {
	dates := w.ScanDates()
	pipeline := func(ds *scanner.Dataset, workers int, cached, legacy bool) *core.Pipeline {
		p := &core.Pipeline{
			Params: core.DefaultParams(), Dataset: ds, Meta: w.Meta,
			PDNS: w.PDNSDB, CT: w.CT, DNSSEC: w.SecLog,
			Workers: workers, LegacyFanout: legacy,
		}
		if cached {
			p.Cache = core.NewClassifyCache()
		}
		return p
	}
	reportJSON := func(res *core.Result) []byte {
		var buf bytes.Buffer
		if err := report.WriteJSON(&buf, res); err != nil {
			t.Fatalf("WriteJSON: %v", err)
		}
		return buf.Bytes()
	}

	type outcome struct {
		bulk, incr []byte
		funnel     map[string]int
		quar       string
	}
	var want *outcome
	for _, shards := range []int{1, 3, 8} {
		// Bulk: every scan AddScanned into a fresh dataset. The uncached
		// shard-affine run is repeated for each worker-pool size and once
		// with the legacy per-domain fan-out — every report must be
		// byte-identical.
		bulk := scanner.NewDatasetShards(shards)
		for i, d := range dates {
			if err := bulk.AddScan(d, scans[i]); err != nil {
				t.Fatalf("shards=%d AddScan %s: %v", shards, d, err)
			}
		}
		var bulkRes *core.Result
		var bulkJSON []byte
		for _, workers := range []int{1, 8} {
			res := pipeline(bulk, workers, false, false).Run()
			if res.Stats.Shards != shards {
				t.Fatalf("Stats.Shards = %d, want %d", res.Stats.Shards, shards)
			}
			j := reportJSON(res)
			if bulkJSON == nil {
				bulkRes, bulkJSON = res, j
			} else if !bytes.Equal(bulkJSON, j) {
				t.Fatalf("shards=%d workers=%d: report diverged from workers=1", shards, workers)
			}
		}
		if legacyJSON := reportJSON(pipeline(bulk, 8, false, true).Run()); !bytes.Equal(bulkJSON, legacyJSON) {
			t.Fatalf("shards=%d: legacy fan-out report diverged from shard-affine\nshard-affine:\n%s\nlegacy:\n%s",
				shards, bulkJSON, legacyJSON)
		}

		// Incremental: the same series Appended scan-by-scan with a warm
		// classification cache, re-running after each scan.
		incr := scanner.NewDatasetShards(shards)
		pipe := pipeline(incr, 4, true, false)
		var incrRes *core.Result
		for i, d := range dates {
			if err := incr.Append(d, scans[i]); err != nil {
				t.Fatalf("shards=%d Append %s: %v", shards, d, err)
			}
			incrRes = pipe.Run()
		}

		got := &outcome{
			bulk:   bulkJSON,
			incr:   reportJSON(incrRes),
			funnel: report.FunnelCounts(bulkRes),
			quar:   fmt.Sprint(bulk.Quarantine()),
		}
		if !bytes.Equal(got.bulk, got.incr) {
			t.Fatalf("shards=%d: incremental report diverged from bulk", shards)
		}
		if want == nil {
			want = got
			continue
		}
		if !bytes.Equal(want.bulk, got.bulk) {
			t.Errorf("shards=%d: bulk report differs from shards=1\nshards=1:\n%s\nshards=%d:\n%s",
				shards, want.bulk, shards, got.bulk)
		}
		for k, v := range want.funnel {
			if got.funnel[k] != v {
				t.Errorf("shards=%d: funnel[%s] = %d, want %d", shards, k, got.funnel[k], v)
			}
		}
		if want.quar != got.quar {
			t.Errorf("shards=%d: quarantine journal differs:\n%s\nvs\n%s", shards, got.quar, want.quar)
		}
	}
}
