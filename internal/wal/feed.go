package wal

// Feeder turns a stream of scan records — a scans.csv file, or the weekly
// scans of a simulated world — into gated Dataset.Append batches. The
// gates exist so that garbage on the wire never reaches the dataset: a
// record Append would quarantine, a batch dated outside the study window,
// or a scan date already ingested all divert into retrodns_feed_* counters
// instead. The dataset-level quarantine journal — which feeds the run
// report — therefore stays identical between a clean run and one whose
// input was torn, garbled, duplicated, or clock-skewed, which is exactly
// the invariant the chaos harness asserts byte-for-byte.

import (
	"errors"
	"io"

	"retrodns/internal/obsv"
	"retrodns/internal/scanner"
	"retrodns/internal/simtime"
)

// Feed metric family names.
const (
	MetricFeedRows        = "retrodns_feed_rows_total"
	MetricFeedBatches     = "retrodns_feed_batches_total"
	MetricFeedQuarantined = "retrodns_feed_quarantined_total"
)

// Feed quarantine reasons.
const (
	FeedBadRow        = scanner.CSVQuarBadRow        // unparseable CSV line
	FeedTruncatedTail = scanner.CSVQuarTruncatedTail // torn final line at end of input
	FeedBadRecord     = "bad_record"                 // parsed but fails the ingest gate
	FeedClockSkew     = "clock_skew"                 // batch date outside the study window
	FeedDuplicateScan = "duplicate_scan"             // scan date already ingested
)

var feedReasons = []string{
	FeedBadRow, FeedTruncatedTail, FeedBadRecord, FeedClockSkew, FeedDuplicateScan,
}

// Feeder reads records, groups consecutive same-date records into
// batches, gates them, and appends clean batches through the store (or
// straight into the dataset when store is nil). The records come from a
// scans.csv stream (csv) or from scan, called for each of dates in turn.
type Feeder struct {
	csv   *scanner.ScanCSV
	ds    *scanner.Dataset
	store *Store

	scan  func(simtime.Date) []*scanner.Record
	dates []simtime.Date // still to scan; a date the dataset holds is skipped
	batch []*scanner.Record

	pendingDate simtime.Date
	pending     []*scanner.Record
	lookahead   *scanner.Record
	seen        map[simtime.Date]bool

	rows        *obsv.Counter
	batches     *obsv.Counter
	quarantined map[string]*obsv.Counter
}

// NewFeeder wraps src (a scans.csv stream, header optional). Scan dates
// the dataset already holds — the restart case — are pre-marked seen, so
// re-reading the file from the top converges instead of double-appending.
func NewFeeder(src io.Reader, ds *scanner.Dataset, store *Store, reg *obsv.Registry) *Feeder {
	f := newFeeder(ds, store, reg)
	f.csv = scanner.NewScanCSV(src)
	f.csv.OnQuarantine = func(reason, detail string) {
		f.quarantine(reason, 1)
	}
	return f
}

func newFeeder(ds *scanner.Dataset, store *Store, reg *obsv.Registry) *Feeder {
	f := &Feeder{
		ds:          ds,
		store:       store,
		seen:        make(map[simtime.Date]bool),
		quarantined: make(map[string]*obsv.Counter, len(feedReasons)),
	}
	for _, date := range ds.ScanDates(0, 0) {
		f.seen[date] = true
	}
	if reg != nil {
		reg.SetHelp(MetricFeedRows, "Feed records read: complete scans.csv lines, or a world's scan records.")
		reg.SetHelp(MetricFeedBatches, "Scan batches appended from the feed.")
		reg.SetHelp(MetricFeedQuarantined, "Feed records diverted before Append, by reason.")
		f.rows = reg.Counter(MetricFeedRows)
		f.batches = reg.Counter(MetricFeedBatches)
		for _, reason := range feedReasons {
			f.quarantined[reason] = reg.Counter(MetricFeedQuarantined, "reason", reason)
		}
	}
	return f
}

// next reads the feed's next record. io.EOF means no further record is
// available yet, which ends the pending batch: a scans.csv writer pausing,
// or the end of one scan of a world.
func (f *Feeder) next() (*scanner.Record, error) {
	if f.csv != nil {
		return f.csv.Next()
	}
	if f.batch != nil && len(f.batch) == 0 {
		f.batch = nil // the scan just read is whole
		return nil, io.EOF
	}
	for len(f.batch) == 0 && len(f.dates) > 0 {
		if date := f.dates[0]; !f.seen[date] {
			f.batch = f.scan(date)
		}
		f.dates = f.dates[1:]
	}
	if len(f.batch) == 0 {
		return nil, io.EOF
	}
	rec := f.batch[0]
	f.batch = f.batch[1:]
	return rec, nil
}

// quarantine counts n rows under reason; without a registry the counters
// are nil, which obsv counts as a no-op.
func (f *Feeder) quarantine(reason string, n int64) {
	f.quarantined[reason].Add(n)
}

// Tick reads input until one clean batch has been appended. It returns
// (date, true, nil) after an append; (0, false, nil) when the stream has
// no further complete data — the follow-mode caller waits and retries,
// the bounded caller calls Finish and stops. Gated batches (clock skew,
// duplicates) are consumed and counted without ending the tick.
func (f *Feeder) Tick() (simtime.Date, bool, error) {
	for {
		var rec *scanner.Record
		if f.lookahead != nil {
			rec, f.lookahead = f.lookahead, nil
		} else {
			r, err := f.next()
			if errors.Is(err, io.EOF) {
				// End of currently-available input is a batch boundary.
				if len(f.pending) > 0 {
					date, appended, ferr := f.flush()
					if ferr != nil {
						return 0, false, ferr
					}
					if appended {
						return date, true, nil
					}
					continue
				}
				return 0, false, nil
			}
			if err != nil {
				return 0, false, err
			}
			rec = r
			f.rows.Inc()
		}
		// Clock skew is classified before the generic record gate (which
		// would fold it into bad_record): an out-of-window date is its own
		// failure mode with its own counter.
		if !rec.ScanDate.InStudy() {
			f.quarantine(FeedClockSkew, 1)
			continue
		}
		if _, _, ok := scanner.ValidateRecord(rec); !ok {
			f.quarantine(FeedBadRecord, 1)
			continue
		}
		if len(f.pending) == 0 {
			f.pendingDate = rec.ScanDate
			f.pending = append(f.pending, rec)
			continue
		}
		if rec.ScanDate == f.pendingDate {
			f.pending = append(f.pending, rec)
			continue
		}
		f.lookahead = rec
		date, appended, err := f.flush()
		if err != nil {
			return 0, false, err
		}
		if appended {
			return date, true, nil
		}
	}
}

// flush gates and appends the pending batch. A gated batch is dropped in
// its entirety (counted per record) and never reaches Append — an Append
// on a skewed date would advance the generation and journal dataset-level
// quarantine, diverging recovered state from a clean run's.
func (f *Feeder) flush() (simtime.Date, bool, error) {
	date, batch := f.pendingDate, f.pending
	f.pending, f.pendingDate = nil, 0
	if !date.InStudy() {
		f.quarantine(FeedClockSkew, int64(len(batch)))
		return date, false, nil
	}
	if f.seen[date] {
		f.quarantine(FeedDuplicateScan, int64(len(batch)))
		return date, false, nil
	}
	var err error
	if f.store != nil {
		err = f.store.Append(date, batch)
	} else {
		err = f.ds.Append(date, batch)
	}
	if err != nil {
		return date, false, err
	}
	f.seen[date] = true
	f.batches.Inc()
	return date, true, nil
}

// Finish declares bounded input exhausted: a torn final scans.csv line
// becomes a truncated_tail quarantine entry instead of a parse error.
func (f *Feeder) Finish() {
	if f.csv != nil {
		f.csv.FinishTail()
	}
}
