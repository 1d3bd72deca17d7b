package main

// follow.go is the follow-durable workload: cmd/retrodnsd's ingestCSV loop,
// call for call, with the daemon's defaults (8 shards, Workers 0,
// SnapshotEvery 4, serve.Options{}, no spill). It must be kept in step with
// that function. What differs is only what a benchmark adds around the
// calls: a clock read before Tick and after Publish, one paced background
// reader, and warm restarts at the end in place of SIGTERM.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"retrodns/internal/core"
	"retrodns/internal/scanner"
	"retrodns/internal/serve"
	"retrodns/internal/wal"
)

const (
	followShards        = scanner.DefaultShards
	followSnapshotEvery = 4
	// followThink paces the background reader: one connection asking,
	// waiting for the reply, then idling this long.
	followThink = 5 * time.Millisecond
	// followSegment is the paced reader's segment length: some 190 replies,
	// where the closed loop's quarter second would hold under fifty.
	followSegment = time.Second
	// followRestarts is the measured warm-restart count; one more runs
	// first and is reported apart (it pays the page-cache and heap growth).
	followRestarts = 5
	// appendProbeScans is how many leading scans the store-less Append
	// probe replays on a fresh dataset.
	appendProbeScans = 16
)

// followStore bundles what wal.Open returns with the pipeline built on it.
type followStore struct {
	store *wal.Store
	rec   *wal.Recovery
	pipe  *core.Pipeline
}

func (x *execState) openStore(dataDir string) (*followStore, error) {
	store, rec, err := wal.Open(wal.Options{
		Dir: dataDir, Shards: followShards,
		SnapshotEvery: followSnapshotEvery, Metrics: x.reg,
	})
	if err != nil {
		return nil, fmt.Errorf("wal open %s: %w", dataDir, err)
	}
	ds := rec.Dataset
	ds.SetStrict(false)
	ds.SetMetrics(x.reg)
	if rec.Warm {
		ds.AccountRestored()
	}
	return &followStore{store: store, rec: rec, pipe: newPipeline(ds, rec.Cache, x.reg)}, nil
}

// snapshotBytes returns the size of the snapshot file for generation gen.
func snapshotBytes(dataDir string, gen uint64) int64 {
	fi, err := os.Stat(filepath.Join(dataDir, fmt.Sprintf("snap-%08d.bin", gen)))
	if err != nil {
		return 0
	}
	return fi.Size()
}

func (x *execState) runFollow() error {
	dataDir := filepath.Join(x.cfg.Dir, dataDirName)
	if err := x.followLoop(dataDir); err != nil {
		return err
	}
	return x.warmRestarts(dataDir)
}

// followLoop is ingestCSV on a cold data dir: every scan of scans.csv goes
// through Tick, the cached Run, BuildSnapshot and Publish, with a snapshot
// every followSnapshotEvery generations and one at the end. When it returns
// the store is closed and nothing it built is reachable, as after a daemon
// exits.
func (x *execState) followLoop(dataDir string) error {
	engine := serve.NewEngine(serve.Options{})
	engine.SetMetrics(x.reg)
	srv, err := startServer(daemonHandler(engine, x.reg))
	if err != nil {
		return err
	}
	defer srv.close()

	loopStart := time.Now()
	id, start := x.tr.begin("wal.open", -1, 0)
	fs, err := x.openStore(dataDir)
	if err != nil {
		return err
	}
	x.tr.end(id, start)
	ds := fs.rec.Dataset

	f, err := os.Open(filepath.Join(x.cfg.Dir, csvName))
	if err != nil {
		return err
	}
	defer f.Close()
	feeder := wal.NewFeeder(f, ds, fs.store, x.reg)

	var (
		res                                *core.Result
		visible, tick, run, build, publish []float64
		snapMS                             []float64
		mapsRun                            int
		hits, misses, dirty                int
		snapBytes                          int64
		readerStop                         = make(chan struct{})
		readerDone                         chan *loadResult
	)
	recordSnapshot := func(d time.Duration) {
		snapMS = append(snapMS, ms(d))
		snapBytes += snapshotBytes(dataDir, ds.Generation())
	}
	for scan := 0; ; scan++ {
		sid, t0 := x.tr.begin("scan_to_visible", -1, scan)
		var appended bool
		var terr error
		dTick := x.tr.time("wal.feed_tick", sid, scan, func() { _, appended, terr = feeder.Tick() })
		if terr != nil {
			return fmt.Errorf("ingest: %w", terr)
		}
		if !appended {
			feeder.Finish()
			if sid >= 0 { // the empty tick at end of input is not a scan
				x.tr.spans = x.tr.spans[:sid]
			}
			break
		}
		dRun := x.tr.time("core.cached_run", sid, scan, func() { res = fs.pipe.Run() })
		var snap *serve.Snapshot
		dBuild := x.tr.time("serve.build_snapshot", sid, scan, func() { snap = serve.BuildSnapshot(res, ds, snapshotStamp(ds)) })
		dPub := x.tr.time("serve.publish", sid, scan, func() { engine.Publish(snap) })
		visible = append(visible, ms(x.tr.end(sid, t0)))
		tick, run = append(tick, ms(dTick)), append(run, ms(dRun))
		build, publish = append(build, ms(dBuild)), append(publish, float64(dPub.Nanoseconds())/1e3)
		mapsRun += res.Funnel.Maps
		hits, misses, dirty = hits+res.Stats.CacheHits, misses+res.Stats.CacheMisses, dirty+res.Stats.DirtyCells

		if readerDone == nil {
			// The reader starts once there is something to read.
			readerDone = make(chan *loadResult, 1)
			cfg := loadConfig{
				base: srv.base, conns: 1, dur: time.Hour, think: followThink, seg: followSegment,
				mix: mixFollow, roster: rosterOf(ds), seed: x.cfg.Seed, stop: readerStop,
			}
			go func() { readerDone <- drive(cfg) }()
		}

		var wrote bool
		var serr error
		dSnap := x.tr.time("wal.snapshot", -1, scan, func() { wrote, serr = fs.store.MaybeSnapshot() })
		if serr != nil {
			return fmt.Errorf("snapshot: %w", serr)
		}
		if wrote {
			recordSnapshot(dSnap)
		}
		x.tr.snapshot("scan", scan)
	}
	if res == nil {
		return errors.New("follow: no scan was appended")
	}
	// The final Snapshot is a no-op when the last scan already wrote one.
	var serr error
	before := x.counter(wal.MetricWALSnapshots)
	dSnap := x.tr.time("wal.snapshot", -1, len(visible), func() { serr = fs.store.Snapshot() })
	if serr != nil {
		return fmt.Errorf("final snapshot: %w", serr)
	}
	if x.counter(wal.MetricWALSnapshots) > before {
		recordSnapshot(dSnap)
	}
	loopWall := time.Since(loopStart)
	close(readerStop)
	lr := <-readerDone

	scans := len(visible)
	records := int(x.counter(wal.MetricWALRecords))
	// One loop's own numbers; the parent folds Series over the run's loops,
	// scan by scan (foldFollow).
	x.out.Series["follow.scan_to_visible_ms"], x.out.Series["follow.cached_run_ms"] = visible, run
	x.set("follow.maps_total", float64(mapsRun))
	x.setTiming("time_to_findings_s", median(visible)/1e3, scans)
	x.setTiming("follow.scan_to_visible_p50_ms", median(visible), scans)
	x.setTiming("follow.scan_to_visible_p90_ms", percentile(visible, 90), scans)
	x.setTiming("follow.scan_to_visible_max_ms", maxOf(visible), scans)
	x.setTiming("follow.loop_wall_s", loopWall.Seconds(), 1)
	// Every scan covers the whole roster, so a scan's share of the records
	// over the median tick is the median scan's ingest rate: one slow fsync
	// moves it less than it moves the sum. The cached run's cost follows the
	// dirty period while its map count grows with every period, so per-scan
	// rates step at each period boundary and their median lands on a step;
	// the ratio of sums does not.
	x.setTiming("scanner.load_records_per_s", float64(records)/float64(scans)/(median(tick)/1e3), scans)
	x.setTiming("classify_maps_per_s", float64(mapsRun)/(sum(run)/1e3), scans)
	x.setTiming("wal.feed_tick_ms", median(tick), scans)
	x.setTiming("core.cached_run_ms", median(run), scans)
	x.setTiming("serve.build_snapshot_ms", median(build), scans)
	x.setTiming("serve.publish_us", median(publish), scans)
	x.setTiming("wal.snapshot_ms", median(snapMS), len(snapMS))
	x.set("core.cache_hits", float64(hits))
	x.set("core.cache_misses", float64(misses))
	x.set("core.dirty_cells", float64(dirty))
	x.set("wal.append_bytes", float64(x.counter(wal.MetricWALBytes)))
	x.set("wal.snapshots", float64(x.counter(wal.MetricWALSnapshots)))
	x.set("wal.snapshot_bytes_written", float64(snapBytes))
	x.set("wal.disk_bytes_per_input_byte", (float64(x.counter(wal.MetricWALBytes))+float64(snapBytes))/float64(x.prep.CSVBytes))
	x.set("serve.prerendered_bodies", float64(engine.Current().Prerendered()))
	x.set("trace.accounted_share", x.tr.accounted("scan_to_visible"))
	feedQuarantined := x.counter(wal.MetricFeedQuarantined) + int64(ds.Quarantine().Total)
	x.set("scanner.quarantined_rows", float64(feedQuarantined))
	x.check("no quarantined rows", feedQuarantined == 0, fmt.Sprintf("%d quarantined", feedQuarantined))
	x.check("records == prepared", records == x.prep.Rows, fmt.Sprintf("got %d, prepared %d", records, x.prep.Rows))
	x.check("scans == spec", scans == x.cfg.Spec.Scans, fmt.Sprintf("got %d, spec %d", scans, x.cfg.Spec.Scans))
	x.out.Attempted += int64(records)
	x.out.Failed += feedQuarantined
	x.reportLoad(lr, engine)
	x.datasetGauges(ds)

	// The incremental + cached + WAL path must end on the bulk path's bytes.
	findings, err := findingsBytes(res)
	if err != nil {
		return err
	}
	x.set("report.findings_bytes", float64(len(findings)))
	x.checkFindings("follow findings", findings)
	roster := rosterOf(ds)
	if err := x.verifyBodies(srv.base, roster, ds.Generation()); err != nil {
		return err
	}
	if x.cfg.Trace {
		if err := x.followProbes(ds); err != nil {
			return err
		}
		x.serveProbes(engine, roster, engine.Current())
	}
	if err := fs.store.Close(); err != nil {
		return fmt.Errorf("wal close: %w", err)
	}
	return nil
}

// warmRestarts boots from the data dir the way a restarted daemon does:
// wal.Open, then Run, BuildSnapshot and Publish of the recovered generation.
// Each boot starts from a collected heap and a new engine, since a restarted
// process inherits neither. The first restart is reported apart; the rest
// give the median.
func (x *execState) warmRestarts(dataDir string) error {
	var healthy, open []float64
	replayed, faults := 0, 0
	for i := 0; i <= followRestarts; i++ {
		runtime.GC()
		engine := serve.NewEngine(serve.Options{})
		engine.SetMetrics(x.reg)
		rid, t0 := x.tr.begin("restart_to_healthy", -1, i)
		oid, o0 := x.tr.begin("wal.open", rid, i)
		fs, err := x.openStore(dataDir)
		if err != nil {
			return err
		}
		dOpen := x.tr.end(oid, o0)
		ds := fs.rec.Dataset
		if !ds.Frozen() {
			return errors.New("restart: recovered dataset is not frozen")
		}
		var res *core.Result
		x.tr.time("core.cached_run", rid, i, func() { res = fs.pipe.Run() })
		var snap *serve.Snapshot
		x.tr.time("serve.build_snapshot", rid, i, func() { snap = serve.BuildSnapshot(res, ds, snapshotStamp(ds)) })
		x.tr.time("serve.publish", rid, i, func() { engine.Publish(snap) })
		d := x.tr.end(rid, t0)
		findings, err := findingsBytes(res)
		if err != nil {
			return err
		}
		x.checkFindings(fmt.Sprintf("restart %d findings", i), findings)
		for _, n := range fs.rec.Faults {
			faults += int(n)
		}
		replayed += fs.rec.ReplayedBatches
		if err := fs.store.Close(); err != nil {
			return fmt.Errorf("wal close: %w", err)
		}
		if i == 0 {
			x.setTiming("follow.restart_first_ms", ms(d), 1)
			continue
		}
		healthy, open = append(healthy, ms(d)), append(open, ms(dOpen))
	}
	x.setTiming("follow.restart_to_healthy_ms", median(healthy), len(healthy))
	x.setTiming("wal.open_ms", median(open), len(open))
	x.set("wal.replayed_batches", float64(replayed))
	x.set("wal.quarantined", float64(faults))
	x.check("no wal faults", faults == 0, fmt.Sprintf("%d faults", faults))
	x.out.Attempted += int64(followRestarts + 1)
	return nil
}

// followProbes times the scanner codecs the durable path is built on, on
// this workload's own data: store-less Append of the leading scans on a
// fresh dataset, the WAL batch codec on one scan, and the snapshot codec on
// the final dataset.
func (x *execState) followProbes(final *scanner.Dataset) error {
	f, err := os.Open(filepath.Join(x.cfg.Dir, csvName))
	if err != nil {
		return err
	}
	defer f.Close()
	rd := scanner.NewScanCSV(f)
	var batches [][]*scanner.Record
	var cur []*scanner.Record
	for len(batches) < appendProbeScans {
		rec, err := rd.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return err
		}
		if len(cur) > 0 && rec.ScanDate != cur[0].ScanDate {
			batches, cur = append(batches, cur), nil
		}
		cur = append(cur, rec)
	}
	if len(batches) == 0 {
		batches = append(batches, cur)
	}

	var frame []byte
	dEnc := x.tr.time("scanner.encode_batch", -1, 0, func() { frame = scanner.EncodeBatch(batches[0][0].ScanDate, batches[0]) })
	var derr error
	dDec := x.tr.time("scanner.decode_batch", -1, 0, func() { _, _, derr = scanner.DecodeBatch(frame) })
	if derr != nil {
		return derr
	}
	x.setTiming("scanner.encode_batch_ms", ms(dEnc), 1)
	x.setTiming("scanner.decode_batch_ms", ms(dDec), 1)

	fresh := scanner.NewDatasetShards(followShards)
	var appendMS []float64
	for i, b := range batches {
		var aerr error
		d := x.tr.time("scanner.append", -1, i, func() { aerr = fresh.Append(b[0].ScanDate, b) })
		if aerr != nil {
			return aerr
		}
		appendMS = append(appendMS, ms(d))
	}
	x.setTiming("scanner.append_ms_per_scan", median(appendMS), len(appendMS))

	var buf bytes.Buffer
	var eerr error
	dEncSnap := x.tr.time("scanner.encode_snapshot", -1, 0, func() { eerr = final.EncodeSnapshot(&buf) })
	if eerr != nil {
		return eerr
	}
	dDecSnap := x.tr.time("scanner.decode_snapshot", -1, 0, func() { _, derr = scanner.DecodeSnapshot(buf.Bytes()) })
	if derr != nil {
		return derr
	}
	x.setTiming("scanner.encode_snapshot_ms", ms(dEncSnap), 1)
	x.set("scanner.snapshot_bytes", float64(buf.Len()))
	x.setTiming("scanner.decode_snapshot_ms", ms(dDecSnap), 1)
	return nil
}
