package wal

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
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
	fl, err := OpenFollow(opts, false, core.DefaultParams(), 1)
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
	warm, err := OpenFollow(opts, false, core.DefaultParams(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer warm.Close()
	if !warm.Recovery.Warm || warm.Result == nil || warm.Result.Stats.Generation != gen {
		t.Fatalf("warm boot: warm=%v, want the analysis of generation %d before the feed", warm.Recovery.Warm, gen)
	}
}
