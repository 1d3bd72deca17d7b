package retrodns_bench

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"retrodns/internal/core"
	"retrodns/internal/obsv"
	"retrodns/internal/pdns"
	"retrodns/internal/report"
	"retrodns/internal/scanner"
	"retrodns/internal/simtime"
	"retrodns/internal/synth"
	"retrodns/internal/wal"
)

// writeSynthCSV renders a synth corpus to a scans.csv file and returns
// its path and the number of scans.
func writeSynthCSV(t *testing.T, domains int, seed int64, scans int) (string, int) {
	t.Helper()
	g := synth.New(synth.Config{Domains: domains, Seed: seed, Scans: scans})
	path := filepath.Join(t.TempDir(), "scans.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, strings.Join(scanner.ScanCSVHeader, ","))
	for _, date := range g.ScanDates() {
		g.EmitScan(date, func(r *scanner.Record) {
			fmt.Fprintln(w, strings.Join(scanner.FormatScanRow(r), ","))
		})
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path, len(g.ScanDates())
}

// runDaemonPhase simulates one retrodnsd process lifetime over a durable
// data dir (opts names it, the shard count, the snapshot cadence and,
// optionally, a spill dir): recover, re-analyze, feed the CSV, snapshot,
// close. A fresh metrics registry per call models the fresh process.
// stopAfter > 0 simulates a kill: the phase returns after that many
// appends WITHOUT closing the store — no final snapshot, the WAL tail
// exactly as the dying process left it. A completed phase (stopAfter = 0)
// returns the canonical run-report encoding the chaos harness compares.
func runDaemonPhase(t *testing.T, opts wal.Options, csvPath string, stopAfter int) ([]byte, *wal.Recovery, uint64) {
	t.Helper()
	reg := obsv.NewRegistry()
	opts.Metrics = reg
	store, rec, err := wal.Open(opts)
	if err != nil {
		t.Fatalf("wal open: %v", err)
	}
	ds := rec.Dataset
	ds.SetMetrics(reg)
	if rec.Warm {
		ds.AccountRestored()
	}
	pipe := &core.Pipeline{
		Params: core.DefaultParams(), Dataset: ds, PDNS: pdns.NewDB(),
		Workers: 2, Cache: rec.Cache, Metrics: reg,
	}
	var res *core.Result
	if ds.Frozen() {
		res = pipe.Run() // republish the recovered generation first
	}
	f, err := os.Open(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	feeder := wal.NewFeeder(f, ds, store, reg)
	appended := 0
	for {
		_, ok, err := feeder.Tick()
		if err != nil {
			t.Fatalf("feed: %v", err)
		}
		if !ok {
			break
		}
		appended++
		res = pipe.Run()
		if _, err := store.MaybeSnapshot(); err != nil {
			t.Fatalf("snapshot: %v", err)
		}
		if stopAfter > 0 && appended >= stopAfter {
			// Killed: the store is abandoned mid-flight, never Closed.
			return nil, rec, ds.Generation()
		}
	}
	feeder.Finish()
	if err := store.Snapshot(); err != nil {
		t.Fatalf("final snapshot: %v", err)
	}
	if err := store.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if res == nil {
		t.Fatal("phase produced no result")
	}
	doc := report.BuildRunReport(res, ds.Quarantine(), reg)
	var buf bytes.Buffer
	if err := doc.Canonical().Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), rec, ds.Generation()
}

// TestWarmRestartBytesIdentical is the acceptance pin for the durability
// layer: for every fault class — plain kill, torn tail, garbled byte,
// duplicated log, a crash between snapshot write and log rotation, a kill
// inside an append's barrier (the batch staged through AppendAfter and its
// frame on disk, whole or half written, but nothing published), a
// manifest.json left in the data and spill dirs by an older build — and
// for shard counts 1 and 8, a daemon killed mid-ingest and restarted over
// the damaged directory must finish with a canonical run report
// byte-identical to an uninterrupted run's, at the same generation, with
// the recovery fault counters accounting for exactly the damage injected
// and nothing else.
func TestWarmRestartBytesIdentical(t *testing.T) {
	csvPath, scans := writeSynthCSV(t, 250, 17, 5)
	const killAfter = 2
	// The frame of the append after the kill point, byte for byte as a store
	// writes it (a frame does not depend on the shard count): cut from the log
	// of a donor run that got one append further with snapshots off.
	donor := wal.Options{Dir: t.TempDir(), Shards: 1, SnapshotEvery: 1000}
	runDaemonPhase(t, donor, csvPath, killAfter+1)
	donorLog, err := os.ReadFile(filepath.Join(donor.Dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	errFound := errors.New("found")
	off, err := wal.Replay(donorLog, func(gen uint64, _ simtime.Date, _ []*scanner.Record) error {
		if gen == killAfter+2 {
			return errFound
		}
		return nil
	})
	if err != errFound {
		t.Fatalf("donor log holds no frame for generation %d: %v", killAfter+2, err)
	}
	stagedFrame := donorLog[off:]
	for _, shards := range []int{1, 8} {
		want, _, wantGen := runDaemonPhase(t, wal.Options{Dir: t.TempDir(), Shards: shards, SnapshotEvery: 2}, csvPath, 0)
		if wantGen != uint64(scans)+1 {
			t.Fatalf("baseline generation %d, want %d", wantGen, scans+1)
		}
		for _, fault := range []string{"kill", "torn", "garble", "duplicate", "unrotated", "staged", "staged-torn", "stray-manifest", "stray-garbage"} {
			t.Run(fmt.Sprintf("shards=%d/%s", shards, fault), func(t *testing.T) {
				dir := t.TempDir()
				opts := wal.Options{Dir: dir, Shards: shards, SnapshotEvery: killAfter}
				// The kill, staged and stray-file cases snapshot normally
				// (the stray-file ones out of core, so there is a spill dir
				// to litter); the damage cases pin snapshots off so the
				// injected fault is guaranteed to land on live WAL frames.
				stray := strings.HasPrefix(fault, "stray-")
				staged := strings.HasPrefix(fault, "staged")
				switch {
				case stray:
					opts.Spill = &scanner.SpillOptions{Dir: filepath.Join(dir, "segments"), BudgetBytes: 0}
				case fault != "kill" && !staged:
					opts.SnapshotEvery = 1000
				}
				_, _, killedGen := runDaemonPhase(t, opts, csvPath, killAfter)
				opts.SnapshotEvery = 2
				walPath := filepath.Join(dir, "wal.log")
				frames := 0
				switch fault {
				case "staged", "staged-torn":
					// Killed inside the next append's barrier: the writer had
					// the frame on disk, or half of it, and the dataset had
					// the batch staged; no reader ever saw it. Recovery may
					// apply the whole frame — it was durable — and must drop
					// the half, and the feed converges either way.
					frame := stagedFrame
					if fault == "staged-torn" {
						frame = frame[:len(frame)/2]
					}
					wf, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0)
					if err != nil {
						t.Fatal(err)
					}
					if _, err := wf.Write(frame); err != nil {
						t.Fatal(err)
					}
					if err := wf.Close(); err != nil {
						t.Fatal(err)
					}
				case "stray-manifest", "stray-garbage":
					// Not a snapshot, not a segment, not the log: ignored,
					// whether it parses (and names a snapshot that never
					// existed) or not.
					doc := []byte("not a manifest at all")
					if fault == "stray-manifest" {
						doc = []byte(`{"schema":"retrodns/wal-manifest/v1","snapshot":"snap-99999999.bin","generation":99999999,"shards":3,"last_generation":99999999}`)
					}
					for _, d := range []string{dir, opts.Spill.Dir} {
						if err := os.WriteFile(filepath.Join(d, "manifest.json"), doc, 0o644); err != nil {
							t.Fatal(err)
						}
					}
				case "unrotated":
					// The crash window inside Store.Snapshot: the snapshot
					// file is durable, the log it covers not yet truncated.
					data, err := os.ReadFile(walPath)
					if err != nil {
						t.Fatal(err)
					}
					frames = killAfter
					store, _, err := wal.Open(opts)
					if err != nil {
						t.Fatal(err)
					}
					if err := errors.Join(store.Snapshot(), store.Close()); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(walPath, data, 0o644); err != nil {
						t.Fatal(err)
					}
				case "torn":
					fi, err := os.Stat(walPath)
					if err != nil {
						t.Fatal(err)
					}
					if err := os.Truncate(walPath, fi.Size()-7); err != nil {
						t.Fatal(err)
					}
				case "garble":
					data, err := os.ReadFile(walPath)
					if err != nil {
						t.Fatal(err)
					}
					data[len(data)-10] ^= 0x41
					if err := os.WriteFile(walPath, data, 0o644); err != nil {
						t.Fatal(err)
					}
				case "duplicate":
					data, err := os.ReadFile(walPath)
					if err != nil {
						t.Fatal(err)
					}
					frames = killAfter // one frame per append survived in the log
					wf, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0)
					if err != nil {
						t.Fatal(err)
					}
					if _, err := wf.Write(data); err != nil {
						t.Fatal(err)
					}
					if err := wf.Close(); err != nil {
						t.Fatal(err)
					}
				}

				got, rec, gen := runDaemonPhase(t, opts, csvPath, 0)
				if !rec.Warm {
					t.Fatal("recovery was not warm")
				}
				// Exact fault accounting: every injected fault counted
				// under its reason, nothing else counted.
				wantFaults := map[string]int64{}
				switch fault {
				case "torn", "staged-torn":
					wantFaults[wal.FaultTornTail] = 1
				case "garble":
					wantFaults[wal.FaultCRCMismatch] = 1
				case "duplicate", "unrotated":
					wantFaults[wal.FaultDupGeneration] = int64(frames)
				}
				if fmt.Sprint(rec.Faults) != fmt.Sprint(wantFaults) {
					t.Fatalf("recovery faults %v, want %v", rec.Faults, wantFaults)
				}
				// Generations never mix: recovery lands at the killed
				// generation (before it when the log's tail was damaged,
				// one past it when the dying process left a whole frame it
				// had not published yet), the finished run at the baseline's.
				lostTail := fault == "torn" || fault == "garble"
				wantRecovered := killedGen
				if fault == "staged" {
					wantRecovered++
				}
				if rec.Generation > wantRecovered || (!lostTail && rec.Generation != wantRecovered) {
					t.Fatalf("recovered generation %d, killed at %d", rec.Generation, killedGen)
				}
				if (fault == "unrotated" || stray || staged) && rec.FromSnapshot == "" {
					t.Fatalf("recovery ignored the snapshot: %+v", rec)
				}
				if gen != wantGen {
					t.Fatalf("final generation %d, want %d", gen, wantGen)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("canonical report after %s recovery differs from uninterrupted run:\n--- got ---\n%s\n--- want ---\n%s",
						fault, got, want)
				}
			})
		}
	}
}
