package wal

import (
	"context"
	"fmt"
	"io"
	"time"

	"retrodns/internal/core"
	"retrodns/internal/scanner"
	"retrodns/internal/simtime"
)

// followPoll is how long Run waits in follow mode for more complete feed.
const followPoll = 100 * time.Millisecond

// Follow is the durable follow loop, one daemon lifetime: recover a data
// dir, append a feed scan by scan through the WAL, re-run the cached
// pipeline and hand each generation to the caller's publish. It is the one
// scan-by-scan ingest loop — retrodnsd, retrodns -follow and the
// configuration table's restart rows run it — over scans.csv (Run) or a
// simulated world's weekly scans (RunScans). Its calls, in order
// (bench/follow.go repeats them and must stay in step):
//
//	OpenFollow  Open (no Dir: scanner.NewDatasetShards, no store)
//	            Dataset.SetStrict, Dataset.SetMetrics, Dataset.AccountRestored (warm boot only)
//	            core.Sources.Pipeline over Recovery.Dataset and Recovery.Cache
//	            Pipeline.Run (warm boot only: the recovered generation)
//	Run         per scan: Feeder.Tick, Pipeline.Run, publish, Store.MaybeSnapshot (RunScans alike)
//	            bounded input exhausted: Feeder.Finish, Store.Snapshot
//	Close
//
// The pipeline classifies into the cache the store snapshots. publish runs
// before MaybeSnapshot, so a periodic snapshot never delays a scan's
// visibility. A kill is a loop stopped without Close.
type Follow struct {
	Dataset  *scanner.Dataset
	Recovery *Recovery // nil without a store
	// Result is the latest analysis: the recovered generation's after a
	// warm boot, then each scan's; nil until something was analyzed.
	Result *core.Result

	store *Store
	pipe  *core.Pipeline
}

// OpenFollow recovers opts.Dir, or starts without a store on a fresh
// dataset when it is "". opts.Metrics instruments store, dataset, feed,
// pipeline and src alike. src is the pipeline's evidence: a world's, or
// none (the zero Sources) for scans.csv. A data dir records scans only, so
// a restart must pass the evidence its scans were analyzed with.
func OpenFollow(opts Options, strict bool, params core.Params, workers int, src core.Sources) (*Follow, error) {
	f := &Follow{}
	cache := core.NewClassifyCache()
	var err error
	if opts.Dir != "" {
		if f.store, f.Recovery, err = Open(opts); err != nil {
			return nil, fmt.Errorf("wal open %s: %w", opts.Dir, err)
		}
		f.Dataset, cache = f.Recovery.Dataset, f.Recovery.Cache
	} else if f.Dataset, err = newDataset(opts); err != nil {
		return nil, err
	}
	f.Dataset.SetStrict(strict)
	f.Dataset.SetMetrics(opts.Metrics)
	if f.Recovery != nil && f.Recovery.Warm {
		f.Dataset.AccountRestored()
	}
	f.pipe = src.Pipeline(f.Dataset, workers, cache, opts.Metrics)
	f.pipe.Params = params
	if f.Dataset.Frozen() {
		f.Result = f.pipe.Run()
	}
	return f, nil
}

// Run feeds the scans.csv stream src through the loop until ctx is done
// or, unless follow is set (then it polls for more), src holds no further
// complete scan. publish gets each appended scan's date and analysis.
// pause is waited after every scan, bounded input included.
func (f *Follow) Run(ctx context.Context, src io.Reader, follow bool, pause time.Duration, publish func(simtime.Date, *core.Result)) error {
	return f.run(ctx, NewFeeder(src, f.Dataset, f.store, f.pipe.Metrics), follow, pause, publish)
}

// RunScans feeds scan(date) for each of dates (a world's Scanner.ScanWeek
// over its scan dates) through the loop and the gates of a bounded Run, one
// scan a step. A date the dataset already holds is skipped unscanned, so a
// warm restart scans only what the data dir lacks.
func (f *Follow) RunScans(ctx context.Context, scan func(simtime.Date) []*scanner.Record, dates []simtime.Date, pause time.Duration, publish func(simtime.Date, *core.Result)) error {
	feed := newFeeder(f.Dataset, f.store, f.pipe.Metrics)
	feed.scan, feed.dates = scan, dates
	return f.run(ctx, feed, false, pause, publish)
}

func (f *Follow) run(ctx context.Context, feed *Feeder, follow bool, pause time.Duration, publish func(simtime.Date, *core.Result)) error {
	for ctx.Err() == nil {
		date, appended, err := feed.Tick()
		switch {
		case err != nil:
			return err
		case !appended && follow:
			wait(ctx, followPoll)
			continue
		case !appended:
			// Bounded input: a torn final line is quarantined, not held.
			feed.Finish()
			if f.store == nil {
				return nil
			}
			if err := f.store.Snapshot(); err != nil {
				return fmt.Errorf("final snapshot: %w", err)
			}
			return nil
		}
		f.Result = f.pipe.Run()
		publish(date, f.Result)
		if f.store != nil {
			if _, err := f.store.MaybeSnapshot(); err != nil {
				return fmt.Errorf("snapshot: %w", err)
			}
		}
		wait(ctx, pause)
	}
	return nil
}

// Close fsyncs and closes the store, if there is one.
func (f *Follow) Close() error {
	if f == nil || f.store == nil {
		return nil
	}
	return f.store.Close()
}

// wait blocks for d or until ctx is done.
func wait(ctx context.Context, d time.Duration) {
	if d > 0 {
		select {
		case <-ctx.Done():
		case <-time.After(d):
		}
	}
}
