package wal

// Store is the durable spine under a live retrodnsd: every accepted
// Dataset.Append batch is framed, written, and fsynced to the WAL *before*
// anything of it is visible, so any state the daemon ever published is
// recoverable. Periodic snapshots bound replay time and let a warm restart
// skip reclassification of clean cells entirely.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"retrodns/internal/core"
	"retrodns/internal/obsv"
	"retrodns/internal/scanner"
	"retrodns/internal/simtime"
)

// WAL metric family names.
const (
	MetricWALAppends      = "retrodns_wal_appends_total"
	MetricWALRecords      = "retrodns_wal_records_total"
	MetricWALBytes        = "retrodns_wal_bytes_total"
	MetricWALSnapshots    = "retrodns_wal_snapshots_total"
	MetricWALReplayed     = "retrodns_wal_replayed_batches_total"
	MetricWALQuarantined  = "retrodns_wal_quarantined_total"
	MetricWALRecoveredGen = "retrodns_wal_recovered_generation"
	MetricWALAppendSec    = "retrodns_wal_append_seconds"
	MetricWALRestoreSec   = "retrodns_wal_restore_seconds"
)

// appendSteps are the steps of one Store.Append, MetricWALAppendSec's step
// label. encode, stage and publish follow one another on the caller's
// goroutine; sync is the writer goroutine's write + fsync, running beside
// stage; sync_wait is what the caller still waited for it once staging was
// done — near zero when the CPU is the long pole, near sync on a slow disk.
var appendSteps = []string{"encode", "stage", "sync", "sync_wait", "publish"}

// restoreSteps are the steps of one Open, MetricWALRestoreSec's step label:
// finding and decoding the newest snapshot that verifies (or making a cold
// dataset), replaying the log on top of it, and restoring the cache.
var restoreSteps = []string{"dataset", "replay", "cache"}

// Quarantine reasons for MetricWALQuarantined. Every refusal on the
// durability path counts under exactly one of these.
const (
	FaultTornTail      = "torn_tail"
	FaultCRCMismatch   = "crc_mismatch"
	FaultBadFrame      = "bad_frame"
	FaultDupGeneration = "duplicate_generation"
	FaultOutOfOrder    = "out_of_order_generation"
	FaultClockSkew     = "clock_skew"
	FaultBadSnapshot   = "bad_snapshot"
)

// walFaults is the display/registration order of the reasons above.
var walFaults = []string{
	FaultTornTail, FaultCRCMismatch, FaultBadFrame,
	FaultDupGeneration, FaultOutOfOrder, FaultClockSkew, FaultBadSnapshot,
}

// Options configures Open.
type Options struct {
	// Dir is the data directory (created if missing).
	Dir string
	// Shards is the dataset shard count for a cold boot; a snapshot's own
	// shard count wins on a warm one.
	Shards int
	// SnapshotEvery is the number of appends between automatic snapshots
	// in MaybeSnapshot; <= 0 means the default of 8.
	SnapshotEvery int
	// Metrics, when set, registers the retrodns_wal_* families.
	Metrics *obsv.Registry
	// Spill, when set, runs the recovered dataset out of core: snapshots
	// decode through scanner.DecodeSnapshotSpill against this store, and
	// the budget is enforced across replay and live appends. nil keeps
	// the corpus fully resident.
	Spill *scanner.SpillOptions
}

const defaultSnapshotEvery = 8

// Recovery describes what Open reconstructed.
type Recovery struct {
	// Dataset and Cache are ready to attach to a Pipeline. On a cold boot
	// they are fresh; callers SetMetrics/SetStrict either way and call
	// Dataset.AccountRestored once metrics are attached.
	Dataset *scanner.Dataset
	Cache   *core.ClassifyCache
	// Warm reports that a snapshot or at least one WAL frame was applied.
	Warm bool
	// FromSnapshot names the snapshot file restored from ("" if none).
	FromSnapshot string
	// Generation is the dataset generation recovered to (0 = empty).
	Generation uint64
	// ReplayedBatches counts WAL frames applied past the snapshot.
	ReplayedBatches int
	// Faults counts refusals encountered during recovery, by reason.
	Faults map[string]int64
}

type storeMetrics struct {
	appends      *obsv.Counter
	records      *obsv.Counter
	bytes        *obsv.Counter
	snapshots    *obsv.Counter
	replayed     *obsv.Counter
	quarantined  map[string]*obsv.Counter
	recoveredGen *obsv.Gauge
	appendSec    map[string]*obsv.Histogram
	restoreSec   map[string]*obsv.Histogram
}

// observe records on steps[step] that the step took from start until now,
// and returns now.
func observe(steps map[string]*obsv.Histogram, step string, start time.Time) time.Time {
	now := time.Now()
	steps[step].Observe(now.Sub(start).Seconds())
	return now
}

// Store owns the WAL file and snapshot directory for one dataset.
// Not safe for concurrent use; retrodnsd's ingest loop is single-threaded.
type Store struct {
	dir   string
	opts  Options
	ds    *scanner.Dataset
	cache *core.ClassifyCache

	wal     *os.File
	walSize int64
	// frame is the encode buffer, reused from one Append to the next.
	frame []byte
	// failed latches the first log write or fsync error. Whether that frame
	// is on disk is unknown from then on, so Append refuses until a
	// Snapshot has rewritten the state and emptied the log (or the
	// directory is reopened and recovery decides).
	failed error

	appendsSince int
	lastSnapGen  uint64
	closed       bool
	met          storeMetrics
}

// Open recovers state from dir and returns a store ready for appends. The
// returned Recovery always carries a usable Dataset and Cache (fresh ones
// on a cold boot). Fault counters for damage found during recovery are
// both returned and, when opts.Metrics is set, exported.
func Open(opts Options) (*Store, *Recovery, error) {
	if opts.Dir == "" {
		return nil, nil, errors.New("wal: Options.Dir required")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, nil, err
	}
	s := &Store{dir: opts.Dir, opts: opts}
	s.initMetrics(opts.Metrics)
	rec := &Recovery{Faults: make(map[string]int64)}

	// The recovery rule: the newest snapshot that verifies wins (damaged
	// ones count and fall through to the next older, then to a cold
	// dataset), and the WAL tail replays on top of it.
	start := time.Now()
	var cacheBytes []byte
	for _, name := range listSnapshots(opts.Dir) {
		ds, cb, err := loadSnapshotFile(filepath.Join(opts.Dir, name), opts.Spill)
		if err != nil {
			rec.Faults[FaultBadSnapshot]++
			s.fault(FaultBadSnapshot)
			continue
		}
		s.ds, cacheBytes, rec.FromSnapshot = ds, cb, name
		rec.Warm = true
		break
	}
	var err error
	if s.ds == nil {
		if s.ds, err = newDataset(opts); err != nil {
			return nil, nil, err
		}
	}
	s.lastSnapGen = s.ds.Generation()
	start = observe(s.met.restoreSec, "dataset", start)

	if err := s.replayWAL(rec); err != nil {
		return nil, nil, err
	}
	start = observe(s.met.restoreSec, "replay", start)

	s.cache = core.NewClassifyCache()
	if len(cacheBytes) > 0 {
		if err := s.cache.DecodeState(cacheBytes, s.ds); err != nil {
			// Correctness never depends on the cache: fall back to cold.
			rec.Faults[FaultBadSnapshot]++
			s.fault(FaultBadSnapshot)
			s.cache = core.NewClassifyCache()
		}
	}
	observe(s.met.restoreSec, "cache", start)

	wal, err := os.OpenFile(s.walPath(), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, err
	}
	s.wal = wal

	rec.Dataset = s.ds
	rec.Cache = s.cache
	rec.Generation = s.ds.Generation()
	s.met.recoveredGen.Set(int64(rec.Generation))
	return s, rec, nil
}

// newDataset is a cold boot's dataset, out of core under opts.Spill if set.
func newDataset(opts Options) (*scanner.Dataset, error) {
	ds := scanner.NewDatasetShards(opts.Shards)
	if opts.Spill != nil {
		if err := ds.ConfigureSpill(*opts.Spill); err != nil {
			return nil, err
		}
	}
	return ds, nil
}

func (s *Store) walPath() string { return filepath.Join(s.dir, LogName) }

func (s *Store) initMetrics(reg *obsv.Registry) {
	s.met.quarantined = make(map[string]*obsv.Counter, len(walFaults))
	if reg == nil {
		return
	}
	reg.SetHelp(MetricWALAppends, "Batches appended to the WAL.")
	reg.SetHelp(MetricWALRecords, "Records appended to the WAL.")
	reg.SetHelp(MetricWALBytes, "Bytes appended to the WAL.")
	reg.SetHelp(MetricWALSnapshots, "Snapshot files written.")
	reg.SetHelp(MetricWALReplayed, "WAL frames applied during recovery.")
	reg.SetHelp(MetricWALQuarantined, "Durability-layer refusals, by reason.")
	reg.SetHelp(MetricWALRecoveredGen, "Dataset generation recovered to at boot.")
	reg.SetHelp(MetricWALAppendSec, "Where one durable append's time goes, by step (sync runs beside stage).")
	reg.SetHelp(MetricWALRestoreSec, "Where one recovery's time goes, by step: snapshot decode, log replay, cache restore.")
	s.met.appends = reg.Counter(MetricWALAppends)
	s.met.records = reg.Counter(MetricWALRecords)
	s.met.bytes = reg.Counter(MetricWALBytes)
	s.met.snapshots = reg.Counter(MetricWALSnapshots)
	s.met.replayed = reg.Counter(MetricWALReplayed)
	for _, reason := range walFaults {
		s.met.quarantined[reason] = reg.Counter(MetricWALQuarantined, "reason", reason)
	}
	s.met.recoveredGen = reg.Gauge(MetricWALRecoveredGen)
	s.met.appendSec = make(map[string]*obsv.Histogram, len(appendSteps))
	for _, step := range appendSteps {
		s.met.appendSec[step] = reg.Histogram(MetricWALAppendSec, obsv.DurationBuckets, "step", step)
	}
	s.met.restoreSec = make(map[string]*obsv.Histogram, len(restoreSteps))
	for _, step := range restoreSteps {
		s.met.restoreSec[step] = reg.Histogram(MetricWALRestoreSec, obsv.DurationBuckets, "step", step)
	}
}

func (s *Store) fault(reason string) {
	s.met.quarantined[reason].Inc()
}

// replayWAL applies valid frames past the restored snapshot, truncates any
// damaged tail, and leaves the log ready for appends.
func (s *Store) replayWAL(rec *Recovery) error {
	data, err := os.ReadFile(s.walPath())
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	good, replayErr := Replay(data, s.applyFrame(rec))
	if replayErr != nil {
		switch {
		case errors.Is(replayErr, ErrTornTail):
			rec.Faults[FaultTornTail]++
			s.fault(FaultTornTail)
		case errors.Is(replayErr, ErrCRCMismatch):
			rec.Faults[FaultCRCMismatch]++
			s.fault(FaultCRCMismatch)
		case errors.Is(replayErr, ErrBadFrame):
			rec.Faults[FaultBadFrame]++
			s.fault(FaultBadFrame)
		case errors.Is(replayErr, ErrOutOfOrderGeneration):
			// counted by applyFrame
		default:
			return replayErr
		}
	}
	if good < len(data) {
		if err := os.Truncate(s.walPath(), int64(good)); err != nil {
			return err
		}
	}
	s.walSize = int64(good)
	return nil
}

// applyFrame is recovery's Replay callback: it applies the frames past the
// restored generation, counts the stale and skewed ones it skips, and stops
// the walk with ErrOutOfOrderGeneration at a generation gap, whose frame is
// truncated away with the rest of the log.
func (s *Store) applyFrame(rec *Recovery) func(gen uint64, date simtime.Date, records []*scanner.Record) error {
	return func(gen uint64, date simtime.Date, records []*scanner.Record) error {
		cur := s.ds.Generation()
		want := cur + 1
		if cur == 0 {
			want = 2 // first Append freezes (gen 1) then publishes gen 2
		}
		switch {
		case gen <= cur:
			// Normal after a crash between snapshot write and log
			// rotation: the log still holds frames the snapshot covers.
			rec.Faults[FaultDupGeneration]++
			s.fault(FaultDupGeneration)
			return nil
		case gen != want:
			rec.Faults[FaultOutOfOrder]++
			s.fault(FaultOutOfOrder)
			return fmt.Errorf("%w: frame gen %d, want %d", ErrOutOfOrderGeneration, gen, want)
		}
		if !date.InStudy() {
			rec.Faults[FaultClockSkew]++
			s.fault(FaultClockSkew)
			return nil
		}
		if err := s.ds.Append(date, records); err != nil {
			return fmt.Errorf("wal: replay apply gen %d: %w", gen, err)
		}
		rec.ReplayedBatches++
		rec.Warm = true
		s.met.replayed.Inc()
		return nil
	}
}

// Append makes the batch durable and then visible, in that order: the frame
// is encoded, a goroutine writes and fsyncs it while this one stages the
// batch in the dataset (Dataset.AppendAfter), and the dataset publishes
// only once the fsync has returned. A batch any reader has seen is always
// recoverable, and a torn write is a batch no reader ever saw. A scan date
// outside the study window is refused with ErrClockSkew before either side
// sees it.
//
// A failed write or fsync publishes nothing and latches: every later
// Append returns the same error (see Store.failed).
func (s *Store) Append(date simtime.Date, records []*scanner.Record) error {
	if s.closed {
		return ErrClosed
	}
	if s.failed != nil {
		return s.failed
	}
	if !date.InStudy() {
		s.fault(FaultClockSkew)
		return fmt.Errorf("%w: %s", ErrClockSkew, date)
	}
	cur := s.ds.Generation()
	want := cur + 1
	if cur == 0 {
		want = 2
	}
	t := time.Now()
	s.frame = appendFrame(s.frame[:0], want, date, records)
	frame := s.frame
	t = observe(s.met.appendSec, "encode", t)

	synced := make(chan error, 1)
	go func() {
		start := time.Now()
		_, err := s.wal.Write(frame)
		if err == nil {
			err = s.wal.Sync()
		}
		observe(s.met.appendSec, "sync", start)
		synced <- err
	}()
	// Joined exactly once: at the barrier, or here when the dataset refused
	// the batch before reaching it and the writer still owns the file.
	join := sync.OnceValue(func() error { return <-synced })
	err := s.ds.AppendAfter(date, records, func() error {
		t = observe(s.met.appendSec, "stage", t)
		err := join()
		t = observe(s.met.appendSec, "sync_wait", t)
		return err
	})
	if syncErr := join(); syncErr != nil {
		s.failed = fmt.Errorf("wal: log write failed, appends refused until a snapshot or reopen: %w", syncErr)
		return s.failed
	}
	if err != nil {
		// The dataset refused (e.g. strict-mode quarantine): the frame
		// must not survive, or replay would apply what the live process
		// rejected.
		if terr := s.truncateTo(s.walSize); terr != nil {
			return errors.Join(err, terr)
		}
		return err
	}
	observe(s.met.appendSec, "publish", t)
	s.walSize += int64(len(frame))
	s.appendsSince++
	s.met.appends.Inc()
	s.met.records.Add(int64(len(records)))
	s.met.bytes.Add(int64(len(frame)))
	if got := s.ds.Generation(); got != want {
		return fmt.Errorf("wal: generation skew: dataset at %d, wal framed %d", got, want)
	}
	return nil
}

func (s *Store) truncateTo(n int64) error {
	if err := s.wal.Truncate(n); err != nil {
		return err
	}
	// O_APPEND writes land at the (now truncated) end; nothing to seek.
	return s.wal.Sync()
}

// MaybeSnapshot writes a snapshot if SnapshotEvery appends have landed
// since the last one. Returns whether it did.
func (s *Store) MaybeSnapshot() (bool, error) {
	every := s.opts.SnapshotEvery
	if every <= 0 {
		every = defaultSnapshotEvery
	}
	if s.appendsSince < every {
		return false, nil
	}
	return true, s.Snapshot()
}

// Snapshot captures the dataset (+ classify cache) at its current
// generation, publishes it atomically, rotates the WAL, and prunes old
// snapshot files. Call between pipeline runs.
func (s *Store) Snapshot() error {
	if s.closed {
		return ErrClosed
	}
	gen := s.ds.Generation()
	if gen == 0 {
		return nil // nothing durable to capture
	}
	if gen == s.lastSnapGen && s.failed == nil {
		s.appendsSince = 0
		return nil
	}
	if err := writeSnapshotFile(s.dir, gen, s.ds, s.cache); err != nil {
		return err
	}
	// The snapshot is durable and published: frames up to gen are now
	// redundant, and recovery skips any that survive an ill-timed crash
	// here as duplicate generations.
	if err := s.truncateTo(0); err != nil {
		return err
	}
	s.walSize = 0
	s.failed = nil
	s.appendsSince = 0
	s.lastSnapGen = gen
	s.met.snapshots.Inc()
	pruneSnapshots(s.dir)
	return nil
}

// Close fsyncs and closes the WAL — the graceful-drain contract: nothing
// the daemon published is lost to a clean SIGTERM (every batch was already
// fsynced before it was visible; this covers the file handle itself).
func (s *Store) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	var errs []error
	if s.wal != nil {
		if err := s.wal.Sync(); err != nil {
			errs = append(errs, err)
		}
		if err := s.wal.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// Generation returns the dataset generation the store last appended or
// recovered to.
func (s *Store) Generation() uint64 { return s.ds.Generation() }
