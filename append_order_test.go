package retrodns_bench

import (
	"bytes"
	"math/rand"
	"testing"

	"retrodns/internal/core"
	"retrodns/internal/report"
	"retrodns/internal/scanner"
	"retrodns/internal/world"
)

// TestAppendOrderInvariance is the metamorphic twin of the replay test:
// the final report must not depend on the order scans were Appended in.
// The same study is ingested in date order, reversed, and under seeded
// shuffles — with and without a ClassifyCache (the shuffled cached runs
// drive the out-of-order merge and rebuild paths on every step) — and
// every final JSON report must be byte-identical to the in-order one. The
// matrix runs over the scanner's own records and once more over the same
// scans read back through one ScanCSV reader (see viaScanCSV), whose
// records share certificates across scans however those are then ordered.
func TestAppendOrderInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("full study replay")
	}
	cfg := world.Config{Seed: 3, StableDomains: 12, Campaigns: true, PDNSCoverage: 1}
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
	t.Run("scanner records", func(t *testing.T) { appendOrderInvariance(t, w, scans) })
	t.Run("csv-read records", func(t *testing.T) { appendOrderInvariance(t, w, viaScanCSV(t, scans)) })
}

func appendOrderInvariance(t *testing.T, w *world.World, scans [][]*scanner.Record) {
	dates := w.ScanDates()
	finalJSON := func(order []int, cached bool) []byte {
		ds := scanner.NewDataset()
		pipe := &core.Pipeline{
			Params: core.DefaultParams(), Dataset: ds, Meta: w.Meta,
			PDNS: w.PDNSDB, CT: w.CT, DNSSEC: w.SecLog, Workers: 4,
		}
		if cached {
			pipe.Cache = core.NewClassifyCache()
		}
		for _, i := range order {
			if err := ds.Append(dates[i], scans[i]); err != nil {
				t.Fatalf("Append(%s): %v", dates[i], err)
			}
			if cached {
				// Running after every out-of-order Append exercises the
				// cache's merge/rebuild machinery, not just the final state.
				pipe.Run()
			}
		}
		var buf bytes.Buffer
		if err := report.WriteJSON(&buf, pipe.Run()); err != nil {
			t.Fatalf("WriteJSON: %v", err)
		}
		return buf.Bytes()
	}

	inOrder := make([]int, len(dates))
	for i := range inOrder {
		inOrder[i] = i
	}
	want := finalJSON(inOrder, false)
	if bytes.Equal(want, []byte("{}")) || len(want) < 100 {
		t.Fatalf("baseline report suspiciously small:\n%s", want)
	}

	orders := map[string][]int{"reversed": make([]int, len(dates))}
	for i := range dates {
		orders["reversed"][i] = len(dates) - 1 - i
	}
	for _, seed := range []int64{1, 7} {
		shuffled := append([]int(nil), inOrder...)
		rand.New(rand.NewSource(seed)).Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		})
		orders["shuffled-"+string(rune('0'+seed))] = shuffled
	}

	for name, order := range orders {
		for _, cached := range []bool{false, true} {
			got := finalJSON(order, cached)
			if !bytes.Equal(got, want) {
				t.Errorf("%s (cached=%v): final report differs from in-order ingest", name, cached)
			}
		}
	}
	// The in-order cached run must agree too.
	if got := finalJSON(inOrder, true); !bytes.Equal(got, want) {
		t.Error("in-order cached run differs from uncached baseline")
	}
}
