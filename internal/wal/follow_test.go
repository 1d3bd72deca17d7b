package wal

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"retrodns/internal/core"
	"retrodns/internal/scanner"
	"retrodns/internal/simtime"
)

// TestFollowOrder pins the call order of the durable follow loop: each scan
// is published before MaybeSnapshot writes its snapshot, exhausted input
// ends in a final snapshot, and a warm boot has analyzed the recovered
// generation before Run reads a byte of feed.
func TestFollowOrder(t *testing.T) {
	g := testGen(t)
	var feed bytes.Buffer
	for _, date := range g.ScanDates() {
		for _, r := range g.Scan(date) {
			feed.WriteString(strings.Join(scanner.FormatScanRow(r), ",") + "\n")
		}
	}
	dir := t.TempDir()
	opts := Options{Dir: dir, Shards: 4, SnapshotEvery: 1}
	fl, err := OpenFollow(opts, false, core.DefaultParams(), 1, core.Sources{})
	if err != nil {
		t.Fatal(err)
	}
	if fl.Result != nil || fl.Recovery.Warm {
		t.Fatalf("cold boot analyzed something: warm=%v", fl.Recovery.Warm)
	}
	published := 0
	err = fl.Run(context.Background(), &feed, false, 0, func(_ simtime.Date, res *core.Result) {
		published++
		gen := fl.Dataset.Generation()
		if res.Stats.Generation != gen {
			t.Errorf("published generation %d's analysis at generation %d", res.Stats.Generation, gen)
		}
		if _, err := os.Stat(filepath.Join(dir, snapName(gen))); err == nil {
			t.Errorf("generation %d snapshotted before it was published", gen)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	gen := fl.Dataset.Generation()
	if published != len(g.ScanDates()) || listSnapshots(dir)[0] != snapName(gen) {
		t.Fatalf("published %d scans, snapshots %v at generation %d", published, listSnapshots(dir), gen)
	}

	// Killed (never closed), then restarted over the same dir.
	warm, err := OpenFollow(opts, false, core.DefaultParams(), 1, core.Sources{})
	if err != nil {
		t.Fatal(err)
	}
	defer warm.Close()
	if !warm.Recovery.Warm || warm.Result == nil || warm.Result.Stats.Generation != gen {
		t.Fatalf("warm boot: warm=%v, want the analysis of generation %d before the feed", warm.Recovery.Warm, gen)
	}
}

// TestRunScansSkipsHeldDates feeds a generator's scans through RunScans,
// one scan a step: the first half of the dates, the loop left unclosed,
// then a restart over every date:
// the restart scans only the dates the data dir lacks, and both lifetimes
// together append each scan once.
func TestRunScansSkipsHeldDates(t *testing.T) {
	g := testGen(t)
	dates := g.ScanDates()
	opts := Options{Dir: t.TempDir(), Shards: 4, SnapshotEvery: 3}
	var scanned []simtime.Date
	scan := func(date simtime.Date) []*scanner.Record {
		scanned = append(scanned, date)
		return g.Scan(date)
	}
	lifetime := func(dates []simtime.Date) (*Follow, []simtime.Date) {
		t.Helper()
		scanned = nil
		fl, err := OpenFollow(opts, false, core.DefaultParams(), 1, core.Sources{})
		if err != nil {
			t.Fatal(err)
		}
		var published []simtime.Date
		err = fl.RunScans(context.Background(), scan, dates, 0, func(date simtime.Date, res *core.Result) {
			if res.Stats.Generation != fl.Dataset.Generation() {
				t.Errorf("published generation %d's analysis at generation %d", res.Stats.Generation, fl.Dataset.Generation())
			}
			published = append(published, date)
		})
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(scanned, published) {
			t.Fatalf("scanned %v, published %v", scanned, published)
		}
		return fl, published
	}
	half := len(dates) / 2
	if _, published := lifetime(dates[:half]); !slices.Equal(published, dates[:half]) {
		t.Fatalf("first lifetime published %v, want %v", published, dates[:half])
	}
	fl, published := lifetime(dates)
	defer fl.Close()
	if !fl.Recovery.Warm || !slices.Equal(published, dates[half:]) {
		t.Fatalf("restart (warm=%v) scanned %v, want %v", fl.Recovery.Warm, published, dates[half:])
	}
	if gen := fl.Dataset.Generation(); gen != uint64(len(dates))+1 {
		t.Fatalf("generation %d, want %d", gen, len(dates)+1)
	}
}
