package faults

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"retrodns/internal/scanner"
	"retrodns/internal/simtime"
	"retrodns/internal/synth"
	"retrodns/internal/wal"
)

// reference is the uninterrupted ingest of the scans on dates into a
// 4-shard dataset, every shard spilled if spill.
func reference(t *testing.T, g *synth.Generator, dates []simtime.Date, spill bool) *scanner.Dataset {
	t.Helper()
	ds := scanner.NewDatasetShards(4)
	if spill {
		if err := ds.ConfigureSpill(scanner.SpillOptions{Dir: t.TempDir()}); err != nil {
			t.Fatal(err)
		}
	}
	for _, date := range dates {
		if err := ds.Append(date, g.Scan(date)); err != nil {
			t.Fatal(err)
		}
	}
	return ds
}

func snapshotBytes(t *testing.T, ds *scanner.Dataset) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := ds.EncodeSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRows crashes a store after a whole synth corpus, damages its dir with
// each row, and requires of the recovery: the row's faults counted exactly
// and nothing else, no panic, warm, started from a snapshot where the row
// says so, and a dataset byte-identical to the uninterrupted ingest of the
// scans that survived.
func TestRows(t *testing.T) {
	g := synth.New(synth.Config{Domains: 40, Seed: 7, Scans: 4})
	dates := g.ScanDates()
	for _, f := range Rows {
		t.Run(f.Name, func(t *testing.T) {
			dir := t.TempDir()
			opts := wal.Options{Dir: dir, Shards: 4, SnapshotEvery: 1000}
			if f.Snapshots {
				opts.SnapshotEvery = 3 // one snapshot, and one frame after it
			}
			if f.Spill {
				opts.Spill = &scanner.SpillOptions{Dir: filepath.Join(dir, "segments"), BudgetBytes: 0}
			}
			crashed, _, err := wal.Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { crashed.Close() })
			for _, date := range dates {
				if err := crashed.Append(date, g.Scan(date)); err != nil {
					t.Fatal(err)
				}
				if _, err := crashed.MaybeSnapshot(); err != nil {
					t.Fatal(err)
				}
			}
			frames, err := Frames(dir)
			if err != nil {
				t.Fatal(err)
			}
			if want := map[bool]int{false: len(dates), true: 1}[f.Snapshots]; frames != want {
				t.Fatalf("log holds %d frames before the damage, want %d", frames, want)
			}
			if err := f.Damage(opts); err != nil {
				t.Fatalf("damage: %v", err)
			}

			s, rec, err := wal.Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { s.Close() })
			if fmt.Sprint(rec.Faults) != fmt.Sprint(f.Want(frames)) {
				t.Fatalf("faults %v, want %v", rec.Faults, f.Want(frames))
			}
			kept := dates
			if f.LostTail {
				kept = dates[:len(dates)-1] // the final batch is gone: recovery holds the prefix
			}
			if !f.Snapshots && !f.FromSnapshot && rec.ReplayedBatches != len(kept) {
				t.Fatalf("replayed %d batches, want %d", rec.ReplayedBatches, len(kept))
			}
			if !rec.Warm || rec.Generation != uint64(len(kept))+1 {
				t.Fatalf("recovered warm=%v generation %d, want warm at %d", rec.Warm, rec.Generation, len(kept)+1)
			}
			if f.FromSnapshot && rec.FromSnapshot == "" {
				t.Fatalf("recovery ignored the snapshot: %+v", rec)
			}
			if want, got := snapshotBytes(t, reference(t, g, kept, f.Spill)), snapshotBytes(t, rec.Dataset); !bytes.Equal(want, got) {
				t.Fatal("recovered dataset not byte-identical to the uninterrupted ingest of the surviving scans")
			}
		})
	}
}

// TestDamageRefusesShortLog: a log too short to hold the bytes a cut or a
// flip aims at is an error, not a panic or a silently different fault.
func TestDamageRefusesShortLog(t *testing.T) {
	for _, f := range Rows {
		if f.Name != "torn" && f.Name != "garble" {
			continue
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, wal.LogName), make([]byte, 7), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := f.Damage(wal.Options{Dir: dir}); err == nil {
			t.Errorf("%s: damaged a 7-byte log", f.Name)
		}
	}
}
