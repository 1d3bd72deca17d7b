package retrodns_bench

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
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
// records share certificates across scans however those are then ordered;
// and each order runs once more through AppendAfter with a real barrier —
// the batch encoded, written to a log file and fsynced, as internal/wal
// does it — whose every third batch is first refused by a failing barrier.
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
	log, err := os.Create(filepath.Join(t.TempDir(), "barrier.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	finalJSON := func(order []int, cached, barrier bool) []byte {
		ds := scanner.NewDataset()
		pipe := &core.Pipeline{
			Params: core.DefaultParams(), Dataset: ds, Meta: w.Meta,
			PDNS: w.PDNSDB, CT: w.CT, DNSSEC: w.SecLog, Workers: 4,
		}
		if cached {
			pipe.Cache = core.NewClassifyCache()
		}
		for n, i := range order {
			var durable func() error
			if barrier {
				gen := ds.Generation()
				durable = func() error {
					if ds.Generation() > gen && gen != 0 {
						t.Errorf("Append(%s): generation moved before the barrier returned", dates[i])
					}
					if _, err := log.Write(scanner.EncodeBatch(dates[i], scans[i])); err != nil {
						return err
					}
					return log.Sync()
				}
				if n%3 == 2 {
					refused := errors.New("refused")
					if err := ds.AppendAfter(dates[i], scans[i], func() error { return refused }); !errors.Is(err, refused) {
						t.Fatalf("AppendAfter(%s) behind a failing barrier: %v", dates[i], err)
					}
				}
			}
			if err := ds.AppendAfter(dates[i], scans[i], durable); err != nil {
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
	want := finalJSON(inOrder, false, false)
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
			got := finalJSON(order, cached, false)
			if !bytes.Equal(got, want) {
				t.Errorf("%s (cached=%v): final report differs from in-order ingest", name, cached)
			}
		}
		if got := finalJSON(order, true, true); !bytes.Equal(got, want) {
			t.Errorf("%s (cached, behind a barrier): final report differs from in-order ingest", name)
		}
	}
	// The in-order cached run must agree too, with and without a barrier.
	for _, barrier := range []bool{false, true} {
		if got := finalJSON(inOrder, true, barrier); !bytes.Equal(got, want) {
			t.Errorf("in-order cached run (barrier=%v) differs from uncached baseline", barrier)
		}
	}
}
