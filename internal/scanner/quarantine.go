package scanner

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"retrodns/internal/dnscore"
	"retrodns/internal/simtime"
	"retrodns/internal/x509lite"
)

// The ingest gate. Four years of real scan data contain rows that are
// simply broken — certificates that never parsed, names with junk bytes,
// timestamps from before the feed existed, unroutable addresses. One such
// row must not take down the pipeline or, worse, silently corrupt the
// per-domain indexes: AddScan and Append validate every record and divert
// malformed ones into a bounded per-reason quarantine journal. The valid
// remainder of the scan is ingested unchanged.
//
// With the sharded corpus, validation runs as its own parallel phase
// before shard fan-out, and record-level rejections journal into the shard
// that would have owned the record. Every rejection carries a global
// sequence number, so the merged report (Quarantine) reproduces the exact
// feed-order journal regardless of shard count.

// ErrQuarantined wraps every hard ingest rejection a strict dataset
// returns; errors.Is(err, ErrQuarantined) identifies them.
var ErrQuarantined = errors.New("scanner: record quarantined")

// QuarantineReason classifies why a record was refused.
type QuarantineReason int

// Quarantine reasons, in display order.
const (
	// QuarNilRecord: the feed produced a nil *Record.
	QuarNilRecord QuarantineReason = iota
	// QuarNilCert: the record carries no certificate.
	QuarNilCert
	// QuarBadName: a SAN fails dnscore.ParseName or is non-canonical, or
	// the certificate secures no names at all.
	QuarBadName
	// QuarBadDate: the record's scan date falls outside the study window.
	QuarBadDate
	// QuarZeroIP: the responding address is the zero Addr or unspecified.
	QuarZeroIP
	numQuarReasons
)

// String names the reason.
func (r QuarantineReason) String() string {
	switch r {
	case QuarNilRecord:
		return "nil-record"
	case QuarNilCert:
		return "nil-cert"
	case QuarBadName:
		return "bad-name"
	case QuarBadDate:
		return "date-out-of-window"
	case QuarZeroIP:
		return "zero-ip"
	default:
		return fmt.Sprintf("reason-%d", int(r))
	}
}

// maxQuarExamples bounds the journal: counters are exact, but only the
// first few offending records are retained for diagnostics, so a feed
// spewing millions of broken rows cannot balloon memory. Each shard
// journal and the merged report observe the same bound.
const maxQuarExamples = 8

// QuarantinedRecord is one journaled rejection.
type QuarantinedRecord struct {
	Reason QuarantineReason
	// Date is the scan date the record arrived under.
	Date simtime.Date
	// Detail describes the offending value (an IP, a SAN, a date).
	Detail string
}

func (q QuarantinedRecord) String() string {
	return fmt.Sprintf("%s @%s: %s", q.Reason, q.Date, q.Detail)
}

// QuarantineReport is a point-in-time copy of the dataset's quarantine
// journal: exact per-reason counters plus the first few examples of each.
type QuarantineReport struct {
	Total    int
	ByReason map[QuarantineReason]int
	Examples []QuarantinedRecord
}

// String renders the report for CLI diagnostics, one reason per line.
func (r QuarantineReport) String() string {
	if r.Total == 0 {
		return "quarantine: clean"
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "quarantine: %d records refused\n", r.Total)
	reasons := make([]QuarantineReason, 0, len(r.ByReason))
	for reason := range r.ByReason {
		reasons = append(reasons, reason)
	}
	sort.Slice(reasons, func(i, j int) bool { return reasons[i] < reasons[j] })
	for _, reason := range reasons {
		fmt.Fprintf(&sb, "  %-20s %d\n", reason.String()+":", r.ByReason[reason])
	}
	for _, ex := range r.Examples {
		fmt.Fprintf(&sb, "  e.g. %s\n", ex)
	}
	return strings.TrimRight(sb.String(), "\n")
}

// quarExample is one retained rejection plus its global sequence number,
// which orders examples across shard journals at merge time.
type quarExample struct {
	QuarantinedRecord
	seq uint64
}

// quarantine is one journal — the dataset holds one for scan-date-level
// rejections and each shard holds one for its records. Writers hold d.mu.
type quarantine struct {
	counts   [numQuarReasons]int
	total    int
	examples []quarExample
}

// add journals one rejection, keeping at most maxQuarExamples examples
// across all reasons (earliest first — the head of a broken feed is where
// debugging starts).
func (q *quarantine) add(reason QuarantineReason, date simtime.Date, detail string, seq uint64) {
	q.counts[reason]++
	q.total++
	if len(q.examples) < maxQuarExamples {
		q.examples = append(q.examples, quarExample{
			QuarantinedRecord: QuarantinedRecord{Reason: reason, Date: date, Detail: detail},
			seq:               seq,
		})
	}
}

// absorb folds another journal into this one (counters summed exactly,
// examples concatenated for a later seq-sort).
func (q *quarantine) absorb(other *quarantine) {
	for reason, n := range other.counts {
		q.counts[reason] += n
	}
	q.total += other.total
	q.examples = append(q.examples, other.examples...)
}

// report copies the journal out.
func (q *quarantine) report() QuarantineReport {
	r := QuarantineReport{Total: q.total, ByReason: make(map[QuarantineReason]int)}
	for reason, n := range q.counts {
		if n > 0 {
			r.ByReason[QuarantineReason(reason)] = n
		}
	}
	r.Examples = make([]QuarantinedRecord, len(q.examples))
	for i, ex := range q.examples {
		r.Examples[i] = ex.QuarantinedRecord
	}
	return r
}

// validateRecord decides whether r may enter the indexes, returning the
// refusal reason and a description of the offending value.
// ValidateRecord applies the ingest gate's per-record checks without
// touching any dataset. Feed layers (CSV ingest, WAL replay) use it to
// divert records that Append would quarantine, keeping dataset-level
// quarantine journals — which feed the run report — identical between a
// clean run and one that saw garbage on the wire.
func ValidateRecord(r *Record) (reason string, detail string, ok bool) {
	qr, detail, ok := validateRecord(r)
	if ok {
		return "", "", true
	}
	return qr.String(), detail, false
}

func validateRecord(r *Record) (QuarantineReason, string, bool) {
	if r == nil {
		return QuarNilRecord, "nil record", false
	}
	if r.Cert == nil {
		return QuarNilCert, fmt.Sprintf("record at %s has no certificate", r.IP), false
	}
	if !r.ScanDate.InStudy() {
		return QuarBadDate, fmt.Sprintf("scan date %s outside study window", r.ScanDate), false
	}
	if !r.IP.IsValid() || r.IP.IsUnspecified() {
		return QuarZeroIP, fmt.Sprintf("cert %d served from zero address", r.Cert.Serial), false
	}
	// Memoized on the certificate and allocation-free: a certificate that
	// recurs in every weekly scan has its SANs walked once.
	if !r.Cert.NamesCanonical() {
		return QuarBadName, badNameDetail(r.Cert), false
	}
	return 0, "", true
}

// badNameDetail describes the first SAN that keeps c out of the indexes.
func badNameDetail(c *x509lite.Certificate) string {
	for _, san := range c.SANs {
		if _, err := dnscore.ParseName(string(san)); err != nil {
			return fmt.Sprintf("cert %d SAN %q: %v", c.Serial, san, err)
		}
		if !dnscore.IsCanonical(string(san)) {
			return fmt.Sprintf("cert %d SAN %q is not canonical", c.Serial, san)
		}
	}
	return fmt.Sprintf("cert %d secures no names", c.Serial)
}

// gateRecordsLocked is ingest phase A: validate one scan's records — in
// parallel chunks for bulk scans — and return a per-record gate slice
// (0 = valid, else reason+1) plus the accepted count. Nothing is journaled
// here (journalRejectsLocked does that when the scan is published); in
// strict mode the first malformed record (lowest index, deterministic
// regardless of worker count) aborts the whole scan with a typed error
// before anything is journaled or ingested (atomic reject, so a strict
// caller can stop a feed without half-applied state). Caller holds d.mu.
func (d *Dataset) gateRecordsLocked(date simtime.Date, records []*Record) ([]uint8, int, error) {
	if len(records) == 0 {
		return nil, 0, nil
	}
	gates := make([]uint8, len(records))
	forChunks(len(records), ingestWorkers(len(records)), func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			if reason, _, ok := validateRecord(records[i]); !ok {
				gates[i] = uint8(reason) + 1
			}
		}
	})
	accepted := 0
	for i, g := range gates {
		if g == 0 {
			accepted++
		} else if d.strict {
			_, detail, _ := validateRecord(records[i])
			return nil, 0, fmt.Errorf("%w: scan %s record %d: %s (%s)", ErrQuarantined, date, i, detail, QuarantineReason(g-1))
		}
	}
	return gates, accepted, nil
}

// journalRejectsLocked journals what the gates refused of one scan: the
// scan date itself at the dataset level (a scan dated outside the study
// window is refused as a whole — its date must not enter the scan-date
// index, where it would distort every period roster — and belongs to no
// shard), then each refused record, in feed order, into the shard that
// would have owned it. Caller holds d.mu.
func (d *Dataset) journalRejectsLocked(date simtime.Date, dateOK bool, records []*Record, gates []uint8) {
	if !dateOK {
		d.quarSeq++
		d.quar.add(QuarBadDate, date, badDateDetail(date), d.quarSeq)
		d.met.quarantined[QuarBadDate].Inc()
	}
	for i, g := range gates {
		if g == 0 {
			continue
		}
		// Rejections are rare; recomputing the detail string here keeps the
		// parallel validation pass allocation-free for valid records
		// (TestGateValidRecordAllocatesNothing).
		reason := QuarantineReason(g - 1)
		_, detail, _ := validateRecord(records[i])
		d.quarSeq++
		d.quarShardFor(records[i]).quar.add(reason, date, detail, d.quarSeq)
		d.met.quarantined[reason].Inc()
	}
}

func badDateDetail(date simtime.Date) string {
	return fmt.Sprintf("scan date %s outside study window", date)
}

// quarShardFor routes a rejected record to the shard that would have owned
// it: the shard of its first SAN with a registered domain, else shard 0.
// Pure function of the record, so the journal layout is reproducible.
func (d *Dataset) quarShardFor(r *Record) *shard {
	if r != nil && r.Cert != nil {
		for _, san := range r.Cert.SANs {
			if apex := san.RegisteredDomain(); apex != "" {
				return d.shardFor(apex)
			}
		}
	}
	return d.shards[0]
}

// SetStrict switches the dataset between quarantine mode (default: skip
// and journal malformed records, AddScan/Append return nil) and strict
// mode (the first malformed record fails the whole call with an error
// wrapping ErrQuarantined and nothing from that scan is ingested).
func (d *Dataset) SetStrict(strict bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.strict = strict
}

// Quarantine returns a merged copy of the quarantine journals — the
// dataset's scan-date journal plus every shard's record journal: exact
// summed per-reason counters, with the earliest maxQuarExamples examples
// in feed order. The merge is byte-identical for any shard count.
func (d *Dataset) Quarantine() QuarantineReport {
	d.mu.RLock()
	defer d.mu.RUnlock()
	var merged quarantine
	merged.absorb(&d.quar)
	for _, s := range d.shards {
		merged.absorb(&s.quar)
	}
	sort.Slice(merged.examples, func(i, j int) bool { return merged.examples[i].seq < merged.examples[j].seq })
	if len(merged.examples) > maxQuarExamples {
		merged.examples = merged.examples[:maxQuarExamples]
	}
	return merged.report()
}
