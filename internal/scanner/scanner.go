// Package scanner produces the simulation's analogue of the Censys
// Universal Internet Data Set (CUIDS): weekly Internet-wide scans of the
// TLS ports, annotated the way the paper annotates them — origin ASN
// (pfx2as), country (geolocation), certificate names and issuer, browser
// trust, CT log entry ID (the crt.sh ID), and whether a secured name looks
// like a sensitive subdomain.
package scanner

import (
	"fmt"
	"net/netip"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"retrodns/internal/ctlog"
	"retrodns/internal/dnscore"
	"retrodns/internal/ipmeta"
	"retrodns/internal/netsim"
	"retrodns/internal/obsv"
	"retrodns/internal/simtime"
	"retrodns/internal/x509lite"
)

// SensitiveKeywords is the paper's subdomain substring list (§4.3): names
// commonly attached to services that receive cleartext credentials.
var SensitiveKeywords = []string{
	"secure", "mail", "remote", "login", "logon", "portal", "admin", "owa",
	"vpn", "connect", "cloud", "signin", "citrix", "box", "account",
	"intranet", "imap", "smtp", "pop", "ftp", "api",
}

// IsSensitiveName reports whether the name contains a sensitive keyword as
// a substring, the paper's §4.3 matching rule. Only registrable names
// qualify (bare TLDs and public suffixes are never sensitive). The
// substring semantics are deliberate: they catch webmail.gov.cy (a
// suffix-child domain), personal.govcloud.gov.cy ("cloud" inside the
// registered label), and mail2010.kotc.com.kw alike.
func IsSensitiveName(name dnscore.Name) bool {
	if name.RegisteredDomain() == "" {
		return false
	}
	s := strings.ToLower(string(name))
	for _, kw := range SensitiveKeywords {
		if strings.Contains(s, kw) {
			return true
		}
	}
	return false
}

// Record is one annotated scan observation: a certificate seen at an IP on
// a scan date, with the ports it was returned on. It mirrors the rows of
// the paper's Table 1.
type Record struct {
	// The fields the deployment-map build reads come first, within the
	// record's first 64 bytes: a classify pass over a window of records
	// allocated in scan order is bound by the first load of each, and one
	// line (two at worst) then serves them all. The codecs name every
	// field, so the order is not on disk or the wire.

	// ScanDate is the weekly scan this record came from.
	ScanDate simtime.Date
	// ASN is the origin AS of IP per the prefix table.
	ASN ipmeta.ASN
	// IP is the responding host.
	IP netip.Addr
	// Country is IP's geolocation.
	Country ipmeta.CountryCode
	// Cert is the certificate presented.
	Cert *x509lite.Certificate
	// Ports lists the TLS ports on which this certificate was returned.
	Ports []uint16
	// CrtShID is the CT log entry ID for the certificate, 0 if unlogged.
	CrtShID int64
	// Trusted reports browser trust at scan time (Apple/Microsoft/Mozilla).
	Trusted bool
	// Sensitive reports whether any SAN is a sensitive subdomain.
	Sensitive bool
}

// Names returns the certificate's SANs (the "Name(s) Secured" column).
func (r *Record) Names() []dnscore.Name { return r.Cert.SANs }

// String renders the record like a row of the paper's Table 1.
func (r *Record) String() string {
	ports := make([]string, len(r.Ports))
	for i, p := range r.Ports {
		ports[i] = fmt.Sprint(p)
	}
	names := make([]string, len(r.Cert.SANs))
	for i, n := range r.Cert.SANs {
		names[i] = string(n)
	}
	yn := func(b bool) string {
		if b {
			return "T"
		}
		return "F"
	}
	return fmt.Sprintf("%s  %-15s  [%s]  %-6d %s  %-10d  %-14s  %s  %s  [%s]",
		r.ScanDate, r.IP, strings.Join(ports, ", "), uint32(r.ASN), r.Country,
		r.CrtShID, r.Cert.Issuer, yn(r.Trusted), yn(r.Sensitive), strings.Join(names, ", "))
}

// Scanner runs weekly scans against the simulated Internet and annotates
// the observations.
type Scanner struct {
	internet *netsim.Internet
	meta     *ipmeta.Directory
	trust    *x509lite.TrustStore
	log      *ctlog.Log
}

// New creates a scanner over the hosting plane with the given annotation
// sources. The CT log may be nil (records then carry CrtShID 0).
func New(internet *netsim.Internet, meta *ipmeta.Directory, trust *x509lite.TrustStore, log *ctlog.Log) *Scanner {
	return &Scanner{internet: internet, meta: meta, trust: trust, log: log}
}

// ScanWeek scans every provisioned host on the given date and returns one
// record per (IP, certificate), with ports aggregated.
func (s *Scanner) ScanWeek(date simtime.Date) []*Record {
	obs := s.internet.ScanAt(date)
	// Aggregate ports per (IP, cert fingerprint).
	type ipCert struct {
		ip netip.Addr
		fp x509lite.Fingerprint
	}
	agg := make(map[ipCert]*Record)
	var order []ipCert
	for _, o := range obs {
		k := ipCert{o.Endpoint.Addr, o.Cert.Fingerprint()}
		r, ok := agg[k]
		if !ok {
			asn, cc := s.meta.Annotate(o.Endpoint.Addr)
			r = &Record{
				ScanDate: date,
				IP:       o.Endpoint.Addr,
				ASN:      asn,
				Country:  cc,
				Cert:     o.Cert,
				Trusted:  s.trust.BrowserTrusted(o.Cert, date),
			}
			for _, san := range o.Cert.SANs {
				if IsSensitiveName(san) {
					r.Sensitive = true
					break
				}
			}
			if s.log != nil {
				if e, ok := s.log.Lookup(o.Cert.Fingerprint()); ok {
					r.CrtShID = e.ID
				}
			}
			agg[k] = r
			order = append(order, k)
		}
		r.Ports = append(r.Ports, o.Endpoint.Port)
	}
	records := make([]*Record, len(order))
	for i, k := range order {
		records[i] = agg[k]
		sort.Slice(records[i].Ports, func(a, b int) bool { return records[i].Ports[a] < records[i].Ports[b] })
	}
	return records
}

// RunStudy scans every weekly scan date in [from, to) and returns the
// accumulated dataset.
func (s *Scanner) RunStudy(from, to simtime.Date) *Dataset {
	return s.RunStudyEvery(from, to, simtime.DaysPerWeek)
}

// RunStudyEvery scans at an arbitrary cadence — the paper's study period
// had weekly Censys scans, but Censys moved to daily scans in April 2021
// (footnote 9), and the cadence materially changes how observable
// short-lived attacker infrastructure is.
func (s *Scanner) RunStudyEvery(from, to simtime.Date, everyDays int) *Dataset {
	ds := NewDataset()
	s.RunStudyEveryInto(ds, from, to, everyDays)
	return ds
}

// RunStudyEveryInto runs the same scan series into a caller-provided
// dataset, so the accumulator's shard count (NewDatasetShards) and strict
// mode can be chosen up front.
func (s *Scanner) RunStudyEveryInto(ds *Dataset, from, to simtime.Date, everyDays int) {
	if everyDays < 1 {
		everyDays = 1
	}
	start := from
	if start < simtime.StudyStart {
		start = simtime.StudyStart
	}
	end := to
	if end > simtime.StudyEnd {
		end = simtime.StudyEnd
	}
	for date := start; date < end; date += simtime.Date(everyDays) {
		ds.AddScan(date, s.ScanWeek(date))
	}
}

// DirtyCell identifies one (domain, period) analysis cell that gained
// records since some generation — the unit of cache invalidation in the
// incremental pipeline.
type DirtyCell struct {
	Domain dnscore.Name
	Period simtime.Period
}

// datasetView is the dataset-global immutable snapshot published after
// Freeze and after every Append: the merged domain list, scan-date index,
// period roster, generation, and corpus counts. Per-domain record windows
// live in the per-shard indexes (shardIndex); the view carries only the
// cross-shard aggregates, so publishing it is O(changed domains), not
// O(corpus).
type datasetView struct {
	// generation counts publishes: 1 for the Freeze snapshot, +1 per Append.
	generation uint64
	// domains is the sorted merge of every shard's domain list.
	domains []dnscore.Name
	// scanDates is the sorted list of ingested scan dates.
	scanDates []simtime.Date
	// periods is the sorted distinct study periods with scans.
	periods []simtime.Period
	// records counts accepted records; domainCount counts distinct domains.
	records     int
	domainCount int
}

// Dataset indexes scan records the way the pipeline consumes them: by the
// registered domain of each secured name. Internally the corpus is sharded
// by registered-domain hash (see shard.go): each shard owns its slice of
// the per-domain indexes with its own lock, sorted indexes, and quarantine
// journal, so large scans validate and ingest in parallel across shards
// while every read and the pipeline output stay byte-identical for any
// shard count. Records pass through an interning layer on ingest (see
// intern.go): certificates dedup through a fingerprint-keyed pool and SAN
// strings through a shared string pool, so a certificate observed in
// thousands of weekly scans is stored once.
//
// The dataset takes ownership of the records handed to AddScan/Append:
// interning replaces a record's Cert with the pool's canonical instance.
// What a record points to — its certificate, its Ports array — is only
// ever read, so records of different datasets may share those (a ScanCSV
// reader's records do).
//
// The lifecycle is unchanged from the unsharded design: after Freeze every
// read path is lock-free and period-window lookups run in O(log n) by
// binary search over presorted per-domain record slices. Append ingests
// further scans without thawing: each call publishes fresh snapshots,
// bumps the dataset generation, and journals which (domain, period) cells
// gained records so incremental consumers can recompute only the delta.
type Dataset struct {
	mu     sync.RWMutex
	shards []*shard

	// scanDates and records accumulate dataset-global state before Freeze;
	// freezeLocked moves them into the first view snapshot.
	scanDates []simtime.Date
	records   int

	// view holds the current dataset-global snapshot, nil until Freeze.
	view atomic.Pointer[datasetView]

	// dirtyPeriods journals the generation at which a period last gained a
	// scan date (which changes the period's scan roster for every domain,
	// not just those with new records). Per-cell journals live in the
	// shards.
	dirtyPeriods periodGens

	// quar journals scan-date-level rejections; record-level rejections
	// journal into the owning shard. quarSeq orders rejections globally so
	// the merged report is identical for any shard count. strict turns the
	// first refusal into a hard AddScan/Append error instead.
	quar    quarantine
	quarSeq uint64
	strict  bool

	// pool interns names, IP strings, and certificates; intern gates
	// whether ingest routes records through it.
	pool   *Pool
	intern bool
	// routes memoizes, per pooled certificate, where its records go (see
	// routeLocked).
	routes map[*x509lite.Certificate]certRoute
	// sized is set once a wide scan has sized the first-sighting tables
	// (see sizeTablesLocked).
	sized bool

	// met holds the dataset's metric handles, populated by SetMetrics.
	// The nil handles of an uninstrumented dataset no-op.
	met datasetMetrics

	// spill holds the out-of-core configuration (see spill.go), nil when
	// the corpus is purely in-memory. segmet holds the spill layer's
	// counter handles behind an atomic pointer, because spilled-shard reads
	// count into them lock-free.
	spill  *spillState
	segmet atomic.Pointer[segmentMetrics]
}

// datasetMetrics is the dataset's ingest instrumentation: scan and
// record throughput counters, corpus-size gauges, one quarantine counter
// per refusal reason, per-shard occupancy gauges, and intern-pool gauges.
type datasetMetrics struct {
	scans        *obsv.Counter
	records      *obsv.Counter
	quarantined  [numQuarReasons]*obsv.Counter
	domains      *obsv.Gauge
	size         *obsv.Gauge
	generation   *obsv.Gauge
	shardDomains []*obsv.Gauge
	shardRecords []*obsv.Gauge
	internized   *obsv.Gauge
	certPool     *obsv.Gauge
	corpusBytes  *obsv.Gauge

	// Out-of-core residency gauges (see spill.go).
	residentBytes *obsv.Gauge
	spilledBytes  *obsv.Gauge
	spilledShards *obsv.Gauge
	shardResident []*obsv.Gauge
}

// Dataset metric family names.
const (
	MetricIngestScans        = "retrodns_ingest_scans_total"
	MetricIngestRecords      = "retrodns_ingest_records_total"
	MetricIngestQuarantined  = "retrodns_ingest_quarantined_total"
	MetricDatasetDomains     = "retrodns_dataset_domains"
	MetricDatasetRecords     = "retrodns_dataset_records"
	MetricDatasetGen         = "retrodns_dataset_ingest_generation"
	MetricCorpusShardDomains = "retrodns_corpus_shard_domains"
	MetricCorpusShardRecords = "retrodns_corpus_shard_records"
	MetricInternStrings      = "retrodns_intern_strings"
	MetricCertPoolSize       = "retrodns_cert_pool_size"
	MetricCorpusBytes        = "retrodns_corpus_bytes_estimate"
)

// Out-of-core metric family names: the resident/spilled split of the
// corpus-bytes estimate, shard residency, and segment store activity.
const (
	MetricCorpusResidentBytes = "retrodns_corpus_resident_bytes"
	MetricCorpusSpilledBytes  = "retrodns_corpus_spilled_bytes"
	MetricCorpusSpilledShards = "retrodns_corpus_spilled_shards"
	MetricCorpusShardResident = "retrodns_corpus_shard_resident"
	MetricSegmentSeals        = "retrodns_segment_seals_total"
	MetricSegmentSealedBytes  = "retrodns_segment_sealed_bytes_total"
	MetricSegmentUnspills     = "retrodns_segment_unspills_total"
	MetricSegmentReads        = "retrodns_segment_reads_total"
	MetricSegmentReadBytes    = "retrodns_segment_read_bytes_total"
	MetricSegmentReadErrors   = "retrodns_segment_read_errors_total"
)

// SetMetrics points the dataset's ingest instrumentation at a registry:
// accepted scans and records count into retrodns_ingest_*_total, refused
// records into retrodns_ingest_quarantined_total by reason, the corpus
// gauges track domains/records/generation after every ingest, the
// per-shard gauges expose shard occupancy (domain count and record
// attachments per shard), and the intern gauges track pool sizes and the
// estimated resident corpus bytes. Call before ingest begins; a nil
// registry detaches (handles go nil).
func (d *Dataset) SetMetrics(reg *obsv.Registry) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if reg == nil {
		d.met = datasetMetrics{}
		d.segmet.Store(&segmentMetrics{})
		return
	}
	reg.SetHelp(MetricIngestScans, "Scans accepted by AddScan/Append.")
	reg.SetHelp(MetricIngestRecords, "Scan records accepted into the per-domain indexes.")
	reg.SetHelp(MetricIngestQuarantined, "Records the ingest gate refused, by reason.")
	reg.SetHelp(MetricDatasetDomains, "Registered domains currently indexed.")
	reg.SetHelp(MetricDatasetRecords, "Scan records currently indexed.")
	reg.SetHelp(MetricDatasetGen, "Dataset index generation (1 at Freeze, +1 per Append).")
	reg.SetHelp(MetricCorpusShardDomains, "Registered domains indexed per corpus shard.")
	reg.SetHelp(MetricCorpusShardRecords, "Record attachments indexed per corpus shard.")
	reg.SetHelp(MetricInternStrings, "Distinct name strings interned in the pool.")
	reg.SetHelp(MetricCertPoolSize, "Distinct certificates interned in the dedup pool.")
	reg.SetHelp(MetricCorpusBytes, "Estimated resident bytes of the indexed corpus (model-based).")
	d.met.scans = reg.Counter(MetricIngestScans)
	d.met.records = reg.Counter(MetricIngestRecords)
	for reason := QuarantineReason(0); reason < numQuarReasons; reason++ {
		d.met.quarantined[reason] = reg.Counter(MetricIngestQuarantined, "reason", reason.String())
	}
	d.met.domains = reg.Gauge(MetricDatasetDomains)
	d.met.size = reg.Gauge(MetricDatasetRecords)
	d.met.generation = reg.Gauge(MetricDatasetGen)
	d.met.shardDomains = make([]*obsv.Gauge, len(d.shards))
	d.met.shardRecords = make([]*obsv.Gauge, len(d.shards))
	for sid := range d.shards {
		lbl := strconv.Itoa(sid)
		d.met.shardDomains[sid] = reg.Gauge(MetricCorpusShardDomains, "shard", lbl)
		d.met.shardRecords[sid] = reg.Gauge(MetricCorpusShardRecords, "shard", lbl)
	}
	d.met.internized = reg.Gauge(MetricInternStrings)
	d.met.certPool = reg.Gauge(MetricCertPoolSize)
	d.met.corpusBytes = reg.Gauge(MetricCorpusBytes)

	reg.SetHelp(MetricCorpusResidentBytes, "Estimated corpus bytes resident in memory (model-based).")
	reg.SetHelp(MetricCorpusSpilledBytes, "Estimated corpus bytes spilled to segment files (model-based).")
	reg.SetHelp(MetricCorpusSpilledShards, "Corpus shards currently spilled to disk.")
	reg.SetHelp(MetricCorpusShardResident, "Per-shard residency: 1 resident, 0 spilled.")
	reg.SetHelp(MetricSegmentSeals, "Cold shards sealed into segment files.")
	reg.SetHelp(MetricSegmentSealedBytes, "Bytes written into sealed segment files.")
	reg.SetHelp(MetricSegmentUnspills, "Spilled shards replayed back into memory for writes.")
	reg.SetHelp(MetricSegmentReads, "Record windows served off spilled segments.")
	reg.SetHelp(MetricSegmentReadBytes, "Entry bytes decoded off spilled segments.")
	reg.SetHelp(MetricSegmentReadErrors, "Segment window reads refused as damaged.")
	d.met.residentBytes = reg.Gauge(MetricCorpusResidentBytes)
	d.met.spilledBytes = reg.Gauge(MetricCorpusSpilledBytes)
	d.met.spilledShards = reg.Gauge(MetricCorpusSpilledShards)
	d.met.shardResident = make([]*obsv.Gauge, len(d.shards))
	for sid := range d.shards {
		d.met.shardResident[sid] = reg.Gauge(MetricCorpusShardResident, "shard", strconv.Itoa(sid))
	}
	d.segmet.Store(&segmentMetrics{
		seals:       reg.Counter(MetricSegmentSeals),
		sealedBytes: reg.Counter(MetricSegmentSealedBytes),
		unspills:    reg.Counter(MetricSegmentUnspills),
		reads:       reg.Counter(MetricSegmentReads),
		readBytes:   reg.Counter(MetricSegmentReadBytes),
		readErrors:  reg.Counter(MetricSegmentReadErrors),
	})
}

// publishSizeLocked refreshes the corpus gauges. Caller holds d.mu.
func (d *Dataset) publishSizeLocked() {
	if v := d.view.Load(); v != nil {
		d.met.domains.Set(int64(v.domainCount))
		d.met.size.Set(int64(v.records))
		d.met.generation.Set(int64(v.generation))
	} else {
		domains := 0
		for _, s := range d.shards {
			domains += len(s.byDomain)
		}
		d.met.domains.Set(int64(domains))
		d.met.size.Set(int64(d.records))
	}
	for sid, s := range d.shards {
		domains, attach := s.counts()
		if d.met.shardDomains != nil {
			d.met.shardDomains[sid].Set(int64(domains))
			d.met.shardRecords[sid].Set(int64(attach))
		}
	}
	st := d.pool.Stats()
	d.met.internized.Set(int64(st.Names))
	d.met.certPool.Set(st.Certs)
	total := d.estimatedBytesLocked(st)
	spilled := d.spilledBytesLocked()
	d.met.corpusBytes.Set(total)
	d.met.residentBytes.Set(total - spilled)
	d.met.spilledBytes.Set(spilled)
	nspilled := 0
	for sid, s := range d.shards {
		resident := int64(1)
		if idx := s.idx.Load(); idx != nil && idx.spill != nil {
			resident = 0
			nspilled++
		}
		if d.met.shardResident != nil {
			d.met.shardResident[sid].Set(resident)
		}
	}
	d.met.spilledShards.Set(int64(nspilled))
}

// DefaultShards is the shard count of NewDataset. It is a fixed constant —
// not derived from GOMAXPROCS — so corpus layout, per-shard metrics, and
// run reports are machine-independent.
const DefaultShards = 8

// maxShards bounds NewDatasetShards: past this, per-shard fixed costs
// (locks, journals, merge fan-in) outweigh any parallelism.
const maxShards = 64

// NewDataset creates an empty dataset with DefaultShards shards and
// interning enabled.
func NewDataset() *Dataset {
	return NewDatasetShards(DefaultShards)
}

// NewDatasetShards creates an empty dataset sharded n ways (clamped to
// [1, 64]; n < 1 selects DefaultShards). The shard count is an ingest
// concurrency knob only: every read and the pipeline output are
// byte-identical for any value.
func NewDatasetShards(n int) *Dataset {
	if n < 1 {
		n = DefaultShards
	}
	if n > maxShards {
		n = maxShards
	}
	d := &Dataset{
		shards: make([]*shard, n),
		pool:   NewPool(),
		intern: true,
		routes: make(map[*x509lite.Certificate]certRoute),
	}
	for i := range d.shards {
		d.shards[i] = newShard()
	}
	d.segmet.Store(&segmentMetrics{})
	return d
}

// Shards returns the dataset's shard count.
func (d *Dataset) Shards() int { return len(d.shards) }

// Pool returns the dataset's intern pool (never nil). Callers may use it
// to share interned names with structures derived from the corpus.
func (d *Dataset) Pool() *Pool { return d.pool }

// SetIntern enables or disables the interning layer for subsequent ingest
// (enabled by default). Call before ingest begins; already-interned
// records are unaffected. Disabling is for benchmarking the allocation
// savings — correctness does not depend on the setting.
func (d *Dataset) SetIntern(on bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.intern = on
}

// shardFor routes a registered domain to its owning shard.
func (d *Dataset) shardFor(domain dnscore.Name) *shard {
	return d.shards[shardIndexOf(domain, len(d.shards))]
}

// AddScan ingests the records of one weekly scan. Malformed records — nil
// records or certificates, invalid or non-canonical SANs, scan dates
// outside the study window, zero addresses — are quarantined into the
// dataset's journal (see Quarantine) rather than ingested; in strict mode
// (SetStrict) the first malformed record instead fails the whole call
// with an error wrapping ErrQuarantined and nothing from the scan lands.
// Large scans validate and ingest in parallel across the corpus shards.
// AddScan panics on a frozen dataset — an API-misuse assert, not a data
// condition: use Append for post-freeze ingest.
func (d *Dataset) AddScan(date simtime.Date, records []*Record) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.view.Load() != nil {
		panic("scanner: AddScan on a frozen Dataset (use Append)")
	}
	return d.ingestLocked(date, records, false, nil)
}

// Append ingests the records of one scan into a frozen dataset without
// thawing: per-domain indexes are maintained by merge-in-place within each
// affected shard, fresh immutable snapshots are published for lock-free
// readers, the generation advances, and the (domain, period) cells that
// gained records are journaled for DirtySince. Freeze is implied if it has
// not run yet. Records carrying a ScanDate other than date are merged
// where their own date sorts. Malformed records are quarantined (or, in
// strict mode, fail the whole call before any state changes) exactly as in
// AddScan; a rejected scan still advances the generation so incremental
// consumers observe that ingest was attempted.
func (d *Dataset) Append(date simtime.Date, records []*Record) error {
	return d.AppendAfter(date, records, nil)
}

// AppendAfter is Append with a barrier between building the batch and
// showing it: the batch is gated, interned, routed and merged into each
// touched shard's successor index, then durable (if not nil) is called
// exactly once, and only when it returns nil is anything published. A
// durability layer runs its fsync beside the staging and joins it there
// (internal/wal), so no reader ever sees a batch that is not on disk.
//
// When durable fails, its error is returned and nothing observable moved:
// Generation, every window, Domains, DirtySince, Quarantine and Size read
// as before the call, and the same batch may be appended again. What
// staging did outside the batch stays: certificates interned into the
// pool, a spilled shard made resident, the implied first Freeze. A
// strict-mode refusal or an unspill failure returns before durable is
// called. durable runs under the dataset's write lock and must not call
// back into the dataset.
func (d *Dataset) AppendAfter(date simtime.Date, records []*Record, durable func() error) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.ingestLocked(date, records, true, durable)
}

// ingestLocked is the shared ingest path: gate the scan date, validate
// records (gate, parallel over chunks), size the first-sighting tables on
// the first wide scan, dedup certificates through the pool and resolve
// every record's registered domains and owning shards (route, parallel
// over chunks), let each shard take its own buckets (stage, parallel over
// shards), pass the barrier, then publish
// the shards' successor indexes, the quarantine journal, the dataset-global
// view and metrics. Caller holds d.mu; appendMode selects Append semantics
// (implied freeze, generation bump, dirty journaling, a barrier — bulk
// ingest accumulates in place while it stages).
func (d *Dataset) ingestLocked(date simtime.Date, records []*Record, appendMode bool, durable func() error) error {
	dateOK := date.InStudy()
	if !dateOK && d.strict {
		return fmt.Errorf("%w: %s", ErrQuarantined, badDateDetail(date))
	}
	gates, accepted, err := d.gateRecordsLocked(date, records)
	if err != nil {
		return err
	}
	if appendMode {
		d.freezeLocked()
		// Segments are immutable: every shard this ingest writes into must
		// be resident first. Runs before interning and fan-out, so a spill
		// replay failure leaves the dataset unchanged.
		if err := d.unspillTouchedLocked(records, gates); err != nil {
			d.publishSizeLocked() // the implied freeze, if any, did land
			return err
		}
	}
	d.sizeTablesLocked(records, gates, accepted)
	gen := uint64(0)
	if appendMode {
		gen = d.view.Load().generation + 1
	}
	nextIdx := make([]*shardIndex, len(d.shards))
	newDomainsBy := make([][]dnscore.Name, len(d.shards))
	if accepted > 0 {
		buckets := d.routeLocked(records, gates, accepted)
		forShards(len(d.shards), shardWorkers(len(records), len(d.shards)), func(sid int) {
			nextIdx[sid], newDomainsBy[sid] = d.shards[sid].stage(buckets[sid], gen, appendMode)
		})
	}
	if durable != nil {
		if err := durable(); err != nil {
			d.publishSizeLocked() // the freeze, interning and unspill, if any, did land
			return err
		}
	}
	d.journalRejectsLocked(date, dateOK, records, gates)
	if !appendMode && !dateOK && accepted == 0 {
		// Out-of-window bulk scan with nothing valid: the rejections are
		// journaled, nothing else changes.
		return nil
	}
	for sid, next := range nextIdx {
		if next != nil {
			s := d.shards[sid]
			s.mu.Lock()
			s.idx.Store(next)
			s.mu.Unlock()
		}
	}
	if appendMode {
		old := d.view.Load()
		next := &datasetView{
			generation:  gen,
			domains:     old.domains,
			scanDates:   old.scanDates,
			records:     old.records + accepted,
			domainCount: old.domainCount,
		}
		if dateOK {
			next.scanDates = insertDate(old.scanDates, date)
			d.dirtyPeriods[simtime.PeriodOf(date)] = gen
		}
		next.periods = periodsOf(next.scanDates)
		added := 0
		for _, nd := range newDomainsBy {
			added += len(nd)
		}
		if added > 0 {
			next.domains = mergeDomains(old.domains, newDomainsBy...)
			next.domainCount = old.domainCount + added
		}
		d.view.Store(next)
	} else {
		if dateOK {
			d.scanDates = append(d.scanDates, date)
		}
		d.records += accepted
	}
	if dateOK {
		d.met.scans.Inc()
	}
	d.met.records.Add(int64(accepted))
	// Re-enforce the budget: this ingest may have unspilled shards or grown
	// resident ones past it. The ingested state is already published, so an
	// enforcement failure is reported but loses nothing.
	spillErr := d.enforceSpillLocked()
	d.publishSizeLocked()
	return spillErr
}

// sizeTablesLocked sizes the first-sighting tables — the intern pool's
// certificate and name stripes, the route memo and every shard's
// accumulation map — from the first scan of at least
// parallelIngestThreshold accepted records, in one step rather than by
// doubling while the scan stages: the first scan of a bulk load is nearly
// all first sightings. The scan's distinct certificate instances bound its
// distinct certificates, and their SANs its distinct names and domains: a
// certificate on many addresses is counted once, as the CSV reader hands
// all its rows one instance. A table is sized only while it is empty, so
// nothing already ingested is dropped. Caller holds d.mu.
func (d *Dataset) sizeTablesLocked(records []*Record, gates []uint8, accepted int) {
	if d.sized || accepted < parallelIngestThreshold {
		return
	}
	d.sized = true
	certs, names := distinctCerts(records, gates, accepted)
	// The tables are independent, and making a large one is mostly
	// faulting in fresh memory, so they are made in parallel.
	var jobs []func()
	if d.intern {
		jobs = append(jobs,
			func() { d.pool.certs.Reserve(certs) },
			func() { d.pool.names.reserve(names) },
			func() {
				if len(d.routes) == 0 {
					d.routes = make(map[*x509lite.Certificate]certRoute, certs)
				}
			})
	}
	// An even spread plus a quarter, as routeLocked sizes its buckets, of
	// the records or, when fewer, the names.
	even := min(accepted, names) / len(d.shards)
	for _, s := range d.shards {
		jobs = append(jobs, func() { s.reserve(even + even/4) })
	}
	forShards(len(jobs), ingestWorkers(accepted), func(i int) { jobs[i]() })
}

// distinctCerts counts the distinct certificate instances of the accepted
// records and the SANs they carry, each instance once.
func distinctCerts(records []*Record, gates []uint8, accepted int) (certs, names int) {
	seen := make(map[*x509lite.Certificate]struct{}, accepted)
	for i, r := range records {
		if gates[i] != 0 {
			continue
		}
		if _, ok := seen[r.Cert]; !ok {
			seen[r.Cert] = struct{}{}
			names += len(r.Cert.SANs)
		}
	}
	return len(seen), names
}

// Freeze ends the bulk-ingest phase and builds the read indexes: each
// shard sorts its per-domain record slices by scan date once (shards sort
// in parallel), the merged domain list and scan dates are sorted and
// cached in the dataset view, and every subsequent read is lock-free.
// Freeze is idempotent and safe to call concurrently; AddScan panics
// afterwards, Append continues ingest incrementally.
func (d *Dataset) Freeze() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.freezeLocked()
	// First chance to enforce a budget configured before ingest. Freeze has
	// no error to return; on a store failure the corpus simply stays
	// resident and the next Append surfaces the error.
	_ = d.enforceSpillLocked()
	d.publishSizeLocked()
}

// freezeLocked builds and publishes the generation-1 snapshots, taking
// ownership of the ingest-phase containers. Caller holds d.mu.
func (d *Dataset) freezeLocked() {
	if d.view.Load() != nil {
		return
	}
	nsh := len(d.shards)
	forShards(nsh, shardWorkers(d.records, nsh), func(sid int) {
		d.shards[sid].freeze()
	})
	perShard := make([][]dnscore.Name, nsh)
	for sid, s := range d.shards {
		perShard[sid] = s.idx.Load().domains
	}
	domains := mergeDomains(nil, perShard...)
	domainCount := len(domains)
	sort.Slice(d.scanDates, func(i, j int) bool { return d.scanDates[i] < d.scanDates[j] })
	view := &datasetView{
		generation:  1,
		domains:     domains,
		scanDates:   d.scanDates,
		periods:     periodsOf(d.scanDates),
		records:     d.records,
		domainCount: domainCount,
	}
	d.scanDates = nil
	d.view.Store(view)
}

// Frozen reports whether Freeze has run.
func (d *Dataset) Frozen() bool { return d.view.Load() != nil }

// Generation returns the dataset's index generation: 0 before Freeze, 1
// after, +1 per Append. Incremental consumers record the generation they
// analyzed and later ask DirtySince what changed.
func (d *Dataset) Generation() uint64 {
	if v := d.view.Load(); v != nil {
		return v.generation
	}
	return 0
}

// insertRecord merges r into a date-sorted record slice, preserving the
// stable order (a record ties after existing records of its date). The
// common case — r's date sorts last — is a pure append, which may grow the
// shared backing array in place: safe, because concurrent readers bound
// themselves by their own snapshot's length. Out-of-order merges copy.
func insertRecord(recs []*Record, r *Record) []*Record {
	if n := len(recs); n == 0 || recs[n-1].ScanDate <= r.ScanDate {
		return append(recs, r)
	}
	i := sort.Search(len(recs), func(k int) bool { return recs[k].ScanDate > r.ScanDate })
	out := make([]*Record, 0, len(recs)+1)
	out = append(out, recs[:i]...)
	out = append(out, r)
	out = append(out, recs[i:]...)
	return out
}

// insertDate merges date into a sorted date slice, always copying so prior
// snapshots never observe the mutation.
func insertDate(dates []simtime.Date, date simtime.Date) []simtime.Date {
	i := sort.Search(len(dates), func(k int) bool { return dates[k] > date })
	out := make([]simtime.Date, 0, len(dates)+1)
	out = append(out, dates[:i]...)
	out = append(out, date)
	out = append(out, dates[i:]...)
	return out
}

// DirtySince reports what changed after the given generation: the
// (domain, period) cells that gained records, and the study periods that
// gained scan dates (every domain's cell in such a period must be
// re-examined — the period's scan roster feeds presence and edge checks
// even for domains with no new records). It is the reference view of the
// journal the shard indexes carry (the pipeline reads ShardView.DirtyMask):
// cells sorted by domain then period, so the result is deterministic and
// independent of the shard count. DirtySince(0) reports everything
// journaled since Freeze.
func (d *Dataset) DirtySince(gen uint64) ([]DirtyCell, []simtime.Period) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	var cells []DirtyCell
	for _, s := range d.shards {
		if idx := s.idx.Load(); idx != nil {
			idx.eachDirty(gen, func(cell DirtyCell, _ uint64) { cells = append(cells, cell) })
		}
	}
	// Each shard's cells arrive in order and no two shards share a domain.
	sort.SliceStable(cells, func(i, j int) bool { return cells[i].Domain < cells[j].Domain })
	var periods []simtime.Period
	for p, g := range d.dirtyPeriods {
		if g > gen {
			periods = append(periods, simtime.Period(p))
		}
	}
	return cells, periods
}

// DirtyPeriodMask is DirtySince's period list alone, bit p for period p.
func (d *Dataset) DirtyPeriodMask(gen uint64) uint16 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.dirtyPeriods.since(gen)
}

// periodsOf reduces sorted scan dates to the distinct study periods.
func periodsOf(dates []simtime.Date) []simtime.Period {
	var out []simtime.Period
	for _, s := range dates {
		if !s.InStudy() {
			continue
		}
		p := simtime.PeriodOf(s)
		if n := len(out); n == 0 || out[n-1] != p {
			out = append(out, p)
		}
	}
	return out
}

// Domains returns every registered domain with at least one record, sorted.
// On a frozen dataset the view's cached merged slice is returned; treat it
// as read-only.
func (d *Dataset) Domains() []dnscore.Name {
	if v := d.view.Load(); v != nil {
		return v.domains
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	if v := d.view.Load(); v != nil {
		return v.domains
	}
	n := 0
	for _, s := range d.shards {
		n += len(s.byDomain)
	}
	out := make([]dnscore.Name, 0, n)
	for _, s := range d.shards {
		for name := range s.byDomain {
			out = append(out, name)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Periods returns the sorted distinct study periods covered by the
// dataset's scan dates. On a frozen dataset the cached slice is returned;
// treat it as read-only.
func (d *Dataset) Periods() []simtime.Period {
	if v := d.view.Load(); v != nil {
		return v.periods
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	if v := d.view.Load(); v != nil {
		return v.periods
	}
	sorted := append([]simtime.Date(nil), d.scanDates...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return periodsOf(sorted)
}

// DomainRecords returns the records for a registered domain within
// [from, to), in scan-date order. Zero bounds disable that side. On a
// frozen dataset this is a lock-free binary search over the owning shard's
// presorted slice, returning a shared window; treat it as read-only.
func (d *Dataset) DomainRecords(domain dnscore.Name, from, to simtime.Date) []*Record {
	s := d.shardFor(domain)
	if idx := s.idx.Load(); idx != nil {
		return windowRecords(idx.records(domain), from, to)
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	if idx := s.idx.Load(); idx != nil {
		return windowRecords(idx.records(domain), from, to)
	}
	var out []*Record
	for _, r := range s.byDomain[domain] {
		if r.ScanDate < from {
			continue
		}
		if to > 0 && r.ScanDate >= to {
			continue
		}
		out = append(out, r)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].ScanDate < out[j].ScanDate })
	return out
}

// windowRecords slices the [from, to) window out of a date-sorted record
// slice. Zero bounds disable that side, matching DomainRecords.
func windowRecords(recs []*Record, from, to simtime.Date) []*Record {
	lo := sort.Search(len(recs), func(i int) bool { return recs[i].ScanDate >= from })
	hi := len(recs)
	if to > 0 {
		hi = lo + sort.Search(len(recs)-lo, func(i int) bool { return recs[lo+i].ScanDate >= to })
	}
	if lo >= hi {
		return nil
	}
	return recs[lo:hi]
}

// ScanDates returns the ingested scan dates within [from, to); zero to
// disables the upper bound. On a frozen dataset this is a lock-free binary
// search returning a window of the shared sorted slice; treat it as
// read-only.
func (d *Dataset) ScanDates(from, to simtime.Date) []simtime.Date {
	if v := d.view.Load(); v != nil {
		return windowDates(v.scanDates, from, to)
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	if v := d.view.Load(); v != nil {
		return windowDates(v.scanDates, from, to)
	}
	var out []simtime.Date
	for _, s := range d.scanDates {
		if s >= from && (to <= 0 || s < to) {
			out = append(out, s)
		}
	}
	return out
}

// windowDates slices the [from, to) window out of a sorted date slice.
func windowDates(dates []simtime.Date, from, to simtime.Date) []simtime.Date {
	lo := sort.Search(len(dates), func(i int) bool { return dates[i] >= from })
	hi := len(dates)
	if to > 0 {
		hi = lo + sort.Search(len(dates)-lo, func(i int) bool { return dates[lo+i] >= to })
	}
	if lo >= hi {
		return nil
	}
	return dates[lo:hi]
}

// LatestScanDate returns the most recent ingested scan date and whether
// any scan has been ingested at all — the data-recency stamp a serving
// layer reports next to its snapshot generation. Lock-free on a frozen
// dataset.
func (d *Dataset) LatestScanDate() (simtime.Date, bool) {
	if v := d.view.Load(); v != nil {
		if n := len(v.scanDates); n > 0 {
			return v.scanDates[n-1], true
		}
		return 0, false
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	var latest simtime.Date
	found := false
	for _, s := range d.scanDates {
		if !found || s > latest {
			latest, found = s, true
		}
	}
	return latest, found
}

// Size returns (domains, records) counts.
func (d *Dataset) Size() (int, int) {
	if v := d.view.Load(); v != nil {
		return v.domainCount, v.records
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	if v := d.view.Load(); v != nil {
		return v.domainCount, v.records
	}
	domains := 0
	for _, s := range d.shards {
		domains += len(s.byDomain)
	}
	return domains, d.records
}

// Estimated per-object resident footprints for EstimatedBytes. These are
// model constants (struct sizes plus typical allocator overhead), chosen
// so the estimate is deterministic across machines rather than exact.
const (
	estRecordBytes      = 112 // Record struct + small Ports backing array
	estAttachBytes      = 16  // one *Record slot in a per-domain slice, amortized growth
	estDomainEntryBytes = 96  // map entry + sorted-slice slot per domain, per index
	estCertBytes        = 480 // Certificate struct + signature + SAN headers
)

// EstimatedBytes returns a deterministic model-based estimate of the
// corpus's resident memory: record structs, per-domain index attachments,
// domain entries, and the intern pools (actual interned string bytes plus
// a per-certificate footprint). It is an accounting estimate for capacity
// planning and the retrodns_corpus_bytes_estimate gauge, not a heap
// measurement.
func (d *Dataset) EstimatedBytes() int64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.estimatedBytesLocked(d.pool.Stats())
}

// estimatedBytesLocked computes the corpus-bytes estimate from current
// counts and the given pool stats. Caller holds d.mu.
func (d *Dataset) estimatedBytesLocked(st PoolStats) int64 {
	records := d.records
	if v := d.view.Load(); v != nil {
		records = v.records
	}
	var domains, attach int
	for _, s := range d.shards {
		sd, sa := s.counts()
		domains += sd
		attach += sa
	}
	return int64(records)*estRecordBytes +
		int64(attach)*estAttachBytes +
		int64(domains)*estDomainEntryBytes +
		st.NameBytes +
		st.Certs*estCertBytes
}
