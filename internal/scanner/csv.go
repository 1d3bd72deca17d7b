package scanner

// The scans.csv schema is the interchange format between worldgen (which
// emits longitudinal scan corpora) and the ingest side (retrodnsd -scans-csv,
// cmd/chaos). The format is deliberately lossy: a row carries only the cert
// fields a crt.sh-style dump would — names, issuer, log ID — so the reader
// reconstructs a deterministic certificate from them. Both an uninterrupted
// run and a crash-recovered run read the same file, so the reconstruction
// only has to be injective and stable, not faithful to the generator's
// in-memory certificate.
//
// The reader is line-based rather than encoding/csv: a file being appended
// by a live worldgen (or torn by a crash) routinely ends in a partial line,
// and encoding/csv's read-ahead turns that into a hard error mid-stream.
// Here a partial tail is held back until its newline arrives (follow mode)
// or quarantined as truncated_tail at end of input (bounded mode), and the
// reader resumes at the next complete record either way.

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"hash/maphash"
	"io"
	"math"
	"net/netip"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"retrodns/internal/dnscore"
	"retrodns/internal/ipmeta"
	"retrodns/internal/simtime"
	"retrodns/internal/x509lite"
)

// ScanCSVHeader is the scans.csv column schema, shared by the worldgen
// writer and this reader.
var ScanCSVHeader = []string{
	"scan_date", "ip", "ports", "asn", "country",
	"crtsh_id", "issuer", "trusted", "sensitive", "names",
}

// scanCSVFields is the expected per-row field count, len(ScanCSVHeader).
const scanCSVFields = 10

// Quarantine reasons reported by the CSV reader via OnQuarantine.
const (
	CSVQuarBadRow        = "bad_row"
	CSVQuarTruncatedTail = "truncated_tail"
)

// ErrBadScanRow reports a row that could not be parsed into a Record.
var ErrBadScanRow = errors.New("scanner: bad scan row")

// FormatScanRow renders one record as a scans.csv row. The inverse of
// ParseScanRow up to the lossy cert projection described above. The row is
// built in one buffer and the fields are substrings of one string, so a
// retained field keeps its whole row alive.
func FormatScanRow(r *Record) []string {
	var ends [scanCSVFields]int
	buf := make([]byte, 0, 256)
	buf = r.ScanDate.Time().AppendFormat(buf, "2006-01-02")
	ends[0] = len(buf)
	if r.IP.IsValid() {
		buf = r.IP.AppendTo(buf)
	} else {
		buf = append(buf, r.IP.String()...)
	}
	ends[1] = len(buf)
	for i, p := range r.Ports {
		if i > 0 {
			buf = append(buf, ' ')
		}
		buf = strconv.AppendUint(buf, uint64(p), 10)
	}
	ends[2] = len(buf)
	buf = strconv.AppendUint(buf, uint64(r.ASN), 10)
	ends[3] = len(buf)
	buf = append(buf, r.Country...)
	ends[4] = len(buf)
	buf = strconv.AppendInt(buf, r.CrtShID, 10)
	ends[5] = len(buf)
	buf = append(buf, r.Cert.Issuer...)
	ends[6] = len(buf)
	buf = strconv.AppendBool(buf, r.Trusted)
	ends[7] = len(buf)
	buf = strconv.AppendBool(buf, r.Sensitive)
	ends[8] = len(buf)
	for i, n := range r.Cert.SANs {
		if i > 0 {
			buf = append(buf, ' ')
		}
		buf = append(buf, n...)
	}
	ends[9] = len(buf)
	row := string(buf)
	fields := make([]string, scanCSVFields)
	start := 0
	for i, end := range ends {
		fields[i] = row[start:end]
		start = end
	}
	return fields
}

// ParseScanDate parses the scan_date column (ISO calendar day).
func ParseScanDate(s string) (simtime.Date, error) {
	t, err := time.Parse("2006-01-02", s)
	if err != nil {
		return 0, fmt.Errorf("%w: scan_date %q", ErrBadScanRow, s)
	}
	return simtime.FromTime(t), nil
}

// ParseScanRow parses one scans.csv row into a Record. The certificate is
// reconstructed deterministically from the row's (names, issuer, crtsh_id)
// triple: its serial is an FNV-1a digest of those fields, its validity spans
// the study window, and it carries no signature. Two runs reading the same
// file therefore build fingerprint-identical certificates.
//
// This is the reference decoder: every row pays for every field. ScanCSV
// takes the same steps in the same order and memoizes what repeats, and the
// differential tests hold the two to identical results. Nothing in the
// returned Record aliases fields.
func ParseScanRow(fields []string) (*Record, error) {
	if len(fields) != scanCSVFields {
		return nil, fieldCountErr(len(fields))
	}
	date, err := ParseScanDate(fields[0])
	if err != nil {
		return nil, err
	}
	ip, err := parseScanIP(fields[1])
	if err != nil {
		return nil, err
	}
	ports, err := parseScanPorts(fields[2])
	if err != nil {
		return nil, err
	}
	asn, err := parseScanASN(fields[3])
	if err != nil {
		return nil, err
	}
	tail, err := parseCertTail(fields[5], strings.Clone(fields[6]), fields[7], fields[8], strings.Clone(fields[9]))
	if err != nil {
		return nil, err
	}
	rec := &Record{ScanDate: date, IP: ip, Ports: ports, ASN: asn, Country: ipmeta.CountryCode(strings.Clone(fields[4]))}
	tail.fill(rec)
	return rec, nil
}

func fieldCountErr(n int) error {
	return fmt.Errorf("%w: %d fields, want %d", ErrBadScanRow, n, scanCSVFields)
}

func parseScanIP(s string) (netip.Addr, error) {
	ip, err := netip.ParseAddr(s)
	if err != nil {
		return ip, fmt.Errorf("%w: ip %q", ErrBadScanRow, s)
	}
	return ip, nil
}

// parseLineIP is parseScanIP over the read buffer. A plain dotted quad —
// four decimal octets of at most 255 without a leading zero, nothing else —
// is decoded in place; anything else goes to parseScanIP, so what is
// accepted, and the error text, stay the reference's. The reference's error
// holds its input, so handing it every row would copy every address.
func parseLineIP(b []byte) (netip.Addr, error) {
	var quad [4]byte
	i := 0
	for k := range quad {
		if k > 0 {
			if i == len(b) || b[i] != '.' {
				return parseScanIP(string(b))
			}
			i++
		}
		start, v := i, 0
		for i < len(b) && i-start < 3 && '0' <= b[i] && b[i] <= '9' {
			v = v*10 + int(b[i]-'0')
			i++
		}
		if i == start || v > 255 || (b[start] == '0' && i-start > 1) {
			return parseScanIP(string(b))
		}
		quad[k] = byte(v)
	}
	if i != len(b) {
		return parseScanIP(string(b))
	}
	return netip.AddrFrom4(quad), nil
}

func parseScanPorts(s string) ([]uint16, error) {
	var ports []uint16
	for _, p := range strings.Fields(s) {
		v, err := strconv.ParseUint(p, 10, 16)
		if err != nil {
			return nil, fmt.Errorf("%w: port %q", ErrBadScanRow, p)
		}
		ports = append(ports, uint16(v))
	}
	return ports, nil
}

func parseScanASN(s string) (ipmeta.ASN, error) {
	asn, err := strconv.ParseUint(s, 10, 32)
	if err != nil {
		return 0, fmt.Errorf("%w: asn %q", ErrBadScanRow, s)
	}
	return ipmeta.ASN(asn), nil
}

// parseLineASN is parseScanASN over the read buffer, the way parseLineIP is
// parseScanIP's: decimal digits that fit 32 bits are decoded in place, and
// anything else goes to parseScanASN for the verdict and the error text.
func parseLineASN(b []byte) (ipmeta.ASN, error) {
	var v uint64
	for _, d := range b {
		if d < '0' || d > '9' || v > math.MaxUint32 {
			return parseScanASN(string(b))
		}
		v = v*10 + uint64(d-'0')
	}
	if len(b) == 0 || v > math.MaxUint32 {
		return parseScanASN(string(b))
	}
	return ipmeta.ASN(v), nil
}

// certTail is the decoded crtsh_id,issuer,trusted,sensitive,names tail of a
// row: the columns that identify the certificate and ride along with it.
type certTail struct {
	cert      *x509lite.Certificate
	crtshID   int64
	trusted   bool
	sensitive bool
}

func (t certTail) fill(r *Record) {
	r.Cert, r.CrtShID, r.Trusted, r.Sensitive = t.cert, t.crtshID, t.trusted, t.sensitive
}

// parseCertTail decodes the five tail columns. The certificate keeps issuer
// and substrings of names, so the caller passes strings it is content to
// have retained.
func parseCertTail(crtsh, issuer, trusted, sensitive, names string) (certTail, error) {
	var t certTail
	var err error
	if t.crtshID, err = strconv.ParseInt(crtsh, 10, 64); err != nil {
		return t, fmt.Errorf("%w: crtsh_id %q", ErrBadScanRow, crtsh)
	}
	if t.trusted, err = strconv.ParseBool(trusted); err != nil {
		return t, fmt.Errorf("%w: trusted %q", ErrBadScanRow, trusted)
	}
	if t.sensitive, err = strconv.ParseBool(sensitive); err != nil {
		return t, fmt.Errorf("%w: sensitive %q", ErrBadScanRow, sensitive)
	}
	rawNames := strings.Fields(names)
	if len(rawNames) == 0 {
		return t, fmt.Errorf("%w: empty names", ErrBadScanRow)
	}
	sans := make([]dnscore.Name, 0, len(rawNames))
	for _, n := range rawNames {
		name, err := dnscore.ParseName(n)
		if err != nil {
			return t, fmt.Errorf("%w: name %q", ErrBadScanRow, n)
		}
		sans = append(sans, name)
	}
	t.cert = &x509lite.Certificate{
		Serial:    synthCertSerial(names, issuer, t.crtshID),
		Subject:   sans[0],
		SANs:      sans,
		Issuer:    issuer,
		NotBefore: simtime.StudyStart,
		NotAfter:  simtime.StudyEnd,
		Method:    x509lite.ValidationDNS01,
	}
	return t, nil
}

// synthCertSerial derives the reconstructed certificate's serial from the
// fields the CSV actually carries, so equal rows yield equal certs.
func synthCertSerial(names, issuer string, crtshID int64) uint64 {
	h := fnvAdd(fnvAdd(fnvOffset64, names), "\x00")
	h = fnvAdd(fnvAdd(h, issuer), "\x00")
	for i := 0; i < 8; i++ {
		h = (h ^ uint64(byte(uint64(crtshID)>>(8*i)))) * fnvPrime64
	}
	return h
}

const (
	// readerMemoCap is the entry cap of each reader memo. A longitudinal
	// corpus re-observes the same certificate at the same hosts week after
	// week, so most rows repeat everything but their address; the cap
	// bounds what a reader retains on a feed that does not. A memo that
	// reaches it is emptied and refills from the rows that follow, so a
	// corpus whose certificates turn over keeps hitting as long as one
	// scan's worth fits.
	readerMemoCap = 1 << 18
	// recordSlab is the most Records one allocation hands out (slabRecord),
	// here and in the window decoder. Small, so a slab is not kept alive
	// long by a few surviving records once the rest are let go: a spilled
	// shard dropping its payloads, a caller keeping two records of a window.
	recordSlab = 32
	// readAheadRows is the most lines one read-ahead chunk carries, and
	// readAheadChunks the floor of how many chunks the producer queues
	// before it stops: a follow loop's small scans read ahead by the floor
	// (a floor of 64 chunks raised its peak RSS by up to 15 %; 8 did not).
	// Past the floor the producer reads on to the end of the scan after the
	// caller's, so a bulk load parses the next scan whole while its caller
	// stages this one — but stops at readAheadCeiling queued lines, parsed
	// or quarantined, so an input whose scan date never changes (or that
	// holds no well-formed row to date) queues no more than one memo's
	// worth.
	readAheadRows    = 1 << 10
	readAheadChunks  = 8
	readAheadCeiling = readerMemoCap
	// certMemoShards is how many shards the certificate memo is split
	// over, by a hash of the tail, so the insert phase can fill them in
	// parallel. A power of two, at least maxWorkers.
	certMemoShards = 32
)

// ScanCSV reads scans.csv rows from a (possibly still growing) stream.
// Rows that fail to parse are reported through OnQuarantine and skipped;
// Next only ever returns parsed records or io.EOF. io.EOF is retryable:
// in follow mode the caller waits and calls Next again, and any partial
// line buffered at EOF is completed once the writer appends its remainder.
//
// Rows are split in the reader's buffer and whatever a row repeats from an
// earlier one is served from a memo: the scan date, the ports list, the
// country code, the issuer, and — keyed on the raw crtsh_id..names tail —
// the certificate. A miss takes ParseScanRow's decode of that column,
// checks and all, and copies what it keeps, so no Record references the
// read buffer. Records of one reader therefore share *Certificate
// instances and Ports backing arrays; both are read-only from the moment
// Next returns.
//
// Parsing runs ahead of the caller: a producer goroutine frames chunks of
// input lines, parses them, and queues the records with the quarantines
// that fell between them. It stops on its own once the queue holds the
// floor of readAheadChunks and reaches past the end of the scan after the
// caller's (or holds readAheadCeiling lines), or the input has no further
// complete line; Next restarts it when the queue runs low. So a bulk load
// parses the next scan while the caller stages this one, and OnQuarantine
// is still called on the caller's goroutine, at its line's place among the
// records.
//
// Each chunk parses across GOMAXPROCS workers, in two phases. In the
// lookup phase each worker takes a contiguous run of the lines and looks
// the repeating columns up in the memos as they stood at the chunk's
// start, decoding whatever misses. In the insert phase the producer alone
// walks the rows in line order and
// memoizes each miss — or, when an earlier row of the chunk memoized the
// same key first, swaps in the memo's value — so rows with one tail come
// back with one certificate whichever chunk and worker they fell to. The
// certificate memo, by far the largest, is split by a hash of the tail over
// shards the workers fill in parallel, each shard by one worker in line
// order.
type ScanCSV struct {
	// The producer's state: only the running producer touches it, and
	// FinishTail and PartialTail once none runs. Its parse workers read
	// the memos in the lookup phase, which nothing writes until the phase
	// joins, and in the insert phase each writes only its own certs shards.
	br      *bufio.Reader
	partial []byte
	started bool // first complete line seen (header handling done)

	ports     map[string][]uint16
	countries map[string]ipmeta.CountryCode
	issuers   map[string]string
	certs     [certMemoShards]map[string]certTail
	seed      maphash.Seed // hashes a tail to its certs shard

	lines    []byte // the chunk's framed lines, back to back
	ends     []int  // where each line ends in lines
	rows     []csvRow
	workers  []csvWorker
	lastDate simtime.Date // of the last record queued, once dated
	dated    bool

	// The hand-off, under mu: ready is broadcast when a chunk is queued
	// and when the producer stops. ahead counts the scan-date changes in
	// the chunk Next is delivering (curScans of them) and in the queue;
	// queued counts the queued lines, records and quarantines alike.
	mu       sync.Mutex
	ready    sync.Cond
	running  bool
	queue    []*csvChunk
	ahead    int
	curScans int
	queued   int

	// The caller's state: the chunk Next is delivering, its next record
	// and quarantine, and whether the last Next returned the error that
	// ended the input (only then is partial the caller's torn tail).
	cur     *csvChunk
	ri, qi  int
	drained bool

	// memoCap, chunkRows, maxChunks and maxLines are readerMemoCap,
	// readAheadRows, readAheadChunks and readAheadCeiling, and workers has
	// parseWorkers() entries: fields only so tests can fill a memo, put
	// chunk and worker boundaries between any two lines, or reach the
	// ceiling, with a few lines.
	memoCap, chunkRows, maxChunks, maxLines int

	// OnQuarantine, when set, receives one call per skipped input line
	// with a reason (CSVQuarBadRow, CSVQuarTruncatedTail) and a detail.
	OnQuarantine func(reason, detail string)
}

// csvChunk is a run of consecutive input lines the producer parsed.
type csvChunk struct {
	recs  []*Record
	quars []csvQuar // in line order
	err   error     // what ended the input after the run; nil if it filled
	// scans counts the records whose scan date differs from the record
	// queued before them.
	scans int
}

// lines is how many input lines the chunk holds, parsed or quarantined.
func (ch *csvChunk) lines() int { return len(ch.recs) + len(ch.quars) }

// csvQuar is a bad row that came after the chunk's first at records.
type csvQuar struct {
	at     int
	detail string
}

// csvRow is what the lookup phase made of one line: a record with every
// column decoded, or the error that refused the line, and which memoized
// columns missed. The record holds the values decoded for those; the
// insert phase memoizes them under the keys kept here.
type csvRow struct {
	rec         *Record
	err         error
	portsKey    string
	tailKey     string // never empty for a parsed row: the tail has commas
	tailShard   int    // the certs shard of the tail, when it missed
	portsMiss   bool
	countryMiss bool
}

// csvWorker is one parse worker's own state, kept across chunks: the scan
// date of the last row it parsed and the slab its records come out of.
type csvWorker struct {
	dateStr string // "" before its first row
	date    simtime.Date
	slab    []Record
}

// parseWorkers is how many workers a reader parses a chunk across.
func parseWorkers() int { return min(runtime.GOMAXPROCS(0), maxWorkers) }

// NewScanCSV wraps r in a scans.csv reader.
func NewScanCSV(r io.Reader) *ScanCSV {
	c := &ScanCSV{
		br:        bufio.NewReaderSize(r, 64<<10),
		ports:     make(map[string][]uint16),
		countries: make(map[string]ipmeta.CountryCode),
		issuers:   make(map[string]string),
		seed:      maphash.MakeSeed(),
		workers:   make([]csvWorker, parseWorkers()),
		memoCap:   readerMemoCap,
		chunkRows: readAheadRows,
		maxChunks: readAheadChunks,
		maxLines:  readAheadCeiling,
	}
	for i := range c.certs {
		c.certs[i] = make(map[string]certTail)
	}
	c.ready.L = &c.mu
	return c
}

// memoOrPut returns the value m holds under key, putting v there first if
// it holds none. A memo that holds limit entries is emptied before the put.
func memoOrPut[V any](m map[string]V, limit int, key string, v V) V {
	if got, ok := m[key]; ok {
		return got
	}
	if len(m) >= limit {
		clear(m)
	}
	m[key] = v
	return v
}

// Next returns the next well-formed record. It returns io.EOF when the
// underlying stream has no further complete line; a trailing partial line
// stays buffered so a growing file can complete it later. A read error
// comes after every record read before it, and a later Next reads on. Once
// Next has returned an error no producer runs until Next is called again.
func (c *ScanCSV) Next() (*Record, error) {
	c.drained = false
	for {
		if ch := c.cur; ch != nil {
			for c.qi < len(ch.quars) && ch.quars[c.qi].at <= c.ri {
				q := ch.quars[c.qi]
				c.qi++
				c.quarantine(CSVQuarBadRow, q.detail)
			}
			if c.ri < len(ch.recs) {
				c.ri++
				return ch.recs[c.ri-1], nil
			}
			c.cur = nil
			if ch.err != nil {
				c.drained = true
				return nil, ch.err
			}
		}
		c.cur, c.ri, c.qi = c.take(), 0, 0
	}
}

// take pops the next queued chunk, first starting the producer if it is
// stopped, the queue is short and the input has not ended in it, then
// waiting for a chunk if none is queued.
func (c *ScanCSV) take() *csvChunk {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ahead -= c.curScans // the chunk Next was delivering is done
	c.curScans = 0
	n := len(c.queue)
	if !c.running && c.short() && (n == 0 || c.queue[n-1].err == nil) {
		c.running = true
		go c.produce()
	}
	for len(c.queue) == 0 {
		c.ready.Wait()
	}
	ch := c.queue[0]
	n = copy(c.queue, c.queue[1:])
	c.queue[n] = nil
	c.queue = c.queue[:n]
	c.queued -= ch.lines()
	c.curScans = ch.scans
	return ch
}

// full reports whether the producer may stop: the queue holds the floor
// and either reaches past the end of the scan after the caller's — two
// scan-date changes on from the start of the chunk Next is delivering — or
// holds the ceiling's lines. Caller holds mu.
func (c *ScanCSV) full() bool {
	return len(c.queue) >= c.maxChunks && (c.ahead >= 2 || c.queued >= c.maxLines)
}

// short reports whether a stopped producer should start again: the queue
// is down to half the floor, or short of the next scan's end with at most
// half the ceiling's lines. Caller holds mu.
func (c *ScanCSV) short() bool {
	return len(c.queue) <= c.maxChunks/2 || (c.ahead < 2 && c.queued <= c.maxLines/2)
}

// produce queues chunks until the queue is full or the input has no
// further complete line. It never waits on Next, so the producer of a
// reader its caller drops stops by itself.
func (c *ScanCSV) produce() {
	for stop := false; !stop; {
		ch := c.fill()
		c.mu.Lock()
		c.queue = append(c.queue, ch)
		c.ahead += ch.scans
		c.queued += ch.lines()
		stop = ch.err != nil || c.full()
		c.running = !stop
		c.ready.Broadcast()
		c.mu.Unlock()
	}
}

// waitIdle returns once no producer runs.
func (c *ScanCSV) waitIdle() {
	c.mu.Lock()
	for c.running {
		c.ready.Wait()
	}
	c.mu.Unlock()
}

// fill frames up to chunkRows lines, or as many complete lines as the
// stream holds, and parses them into a chunk.
func (c *ScanCSV) fill() *csvChunk {
	ch := &csvChunk{}
	c.lines, c.ends = c.lines[:0], c.ends[:0]
	for len(c.ends) < c.chunkRows {
		line, err := c.br.ReadSlice('\n')
		if err != nil {
			// No newline yet: hold what arrived for the next read.
			c.partial = append(c.partial, line...)
			if errors.Is(err, bufio.ErrBufferFull) {
				continue
			}
			if errors.Is(err, io.EOF) {
				err = io.EOF
			}
			ch.err = err
			break
		}
		if len(c.partial) > 0 {
			// line views partial's array until the next read appends to it,
			// by which time it has been copied into lines.
			line = append(c.partial, line...)
			c.partial = line[:0]
		}
		line = bytes.TrimRight(line, "\r\n")
		if len(line) == 0 {
			continue
		}
		first := !c.started
		c.started = true
		if first && bytes.HasPrefix(line, scanCSVHeaderPrefix) {
			continue // header row
		}
		c.lines = append(c.lines, line...)
		c.ends = append(c.ends, len(c.lines))
	}
	c.lookup()
	c.insert(ch)
	return ch
}

var scanCSVHeaderPrefix = []byte(ScanCSVHeader[0] + ",")

// lookup is a chunk's lookup phase: one contiguous run of lines per
// worker.
func (c *ScanCSV) lookup() {
	n := len(c.ends)
	if cap(c.rows) < n {
		c.rows = make([]csvRow, n)
	}
	c.rows = c.rows[:n]
	forChunks(n, len(c.workers), func(w, lo, hi int) {
		c.parseRows(&c.workers[w], lo, hi)
	})
}

// parseRows parses lines [lo, hi) of the chunk into their rows.
func (c *ScanCSV) parseRows(w *csvWorker, lo, hi int) {
	start := 0
	if lo > 0 {
		start = c.ends[lo-1]
	}
	for i := lo; i < hi; i++ {
		row := &c.rows[i]
		*row = csvRow{}
		row.rec, row.err = c.parseLine(w, row, c.lines[start:c.ends[i]])
		start = c.ends[i]
	}
}

// insert is a chunk's insert phase, in line order: every parsed row's
// misses are memoized, or answered from the memo when an earlier row got
// there first, and the rows become the chunk. The small memos are the
// producer's alone; the certs shards are split over the workers.
func (c *ScanCSV) insert(ch *csvChunk) {
	ch.recs = make([]*Record, 0, len(c.rows))
	misses := 0
	for i := range c.rows {
		row := &c.rows[i]
		rec := row.rec
		if rec == nil {
			ch.quars = append(ch.quars, csvQuar{len(ch.recs), row.err.Error()})
			continue
		}
		if row.portsMiss {
			rec.Ports = memoOrPut(c.ports, c.memoCap, row.portsKey, rec.Ports)
		}
		if row.tailKey != "" {
			// The issuer gets a memo of its own: a pooled certificate keeps
			// its issuer after the reader is gone, and must not keep this
			// row's tail alive with it. The certificate is this row's own
			// until memoized, so it takes the memo's copy when an earlier
			// row put one there.
			rec.Cert.Issuer = memoOrPut(c.issuers, c.memoCap, rec.Cert.Issuer, rec.Cert.Issuer)
			misses++
		}
		if row.countryMiss {
			rec.Country = memoOrPut(c.countries, c.memoCap, string(rec.Country), rec.Country)
		}
		if c.dated && rec.ScanDate != c.lastDate {
			ch.scans++
		}
		c.lastDate, c.dated = rec.ScanDate, true
		ch.recs = append(ch.recs, rec)
	}
	if misses == 0 {
		return
	}
	limit := max(1, c.memoCap/certMemoShards)
	k := min(len(c.workers), certMemoShards, misses)
	forChunks(k, k, func(w, _, _ int) {
		for i := range c.rows {
			row := &c.rows[i]
			if row.tailKey != "" && row.tailShard%k == w {
				rec := row.rec
				memoOrPut(c.certs[row.tailShard], limit, row.tailKey, certTail{rec.Cert, rec.CrtShID, rec.Trusted, rec.Sensitive}).fill(rec)
			}
		}
	})
}

// parseLine is ParseScanRow over one framed line: same columns, same
// order, same errors, with the repeating columns answered from the memos
// and the worker's last date. What misses is decoded and noted in row for
// the insert phase. The string(bytes) map indexes and comparisons below do
// not allocate.
func (c *ScanCSV) parseLine(w *csvWorker, row *csvRow, line []byte) (*Record, error) {
	var head [5][]byte // scan_date, ip, ports, asn, country
	tail := line
	for i := range head {
		j := bytes.IndexByte(tail, ',')
		if j < 0 {
			return nil, fieldCountErr(i + 1)
		}
		head[i], tail = tail[:j], tail[j+1:]
	}
	if n := len(head) + 1 + bytes.Count(tail, []byte{','}); n != scanCSVFields {
		return nil, fieldCountErr(n)
	}
	if w.dateStr == "" || string(head[0]) != w.dateStr {
		s := string(head[0])
		date, err := ParseScanDate(s)
		if err != nil {
			return nil, err
		}
		w.dateStr, w.date = s, date
	}
	ip, err := parseLineIP(head[1])
	if err != nil {
		return nil, err
	}
	ports, ok := c.ports[string(head[2])]
	if !ok {
		s := string(head[2])
		if ports, err = parseScanPorts(s); err != nil {
			return nil, err
		}
		row.portsKey, row.portsMiss = s, true
	}
	asn, err := parseLineASN(head[3])
	if err != nil {
		return nil, err
	}
	shard := int(maphash.Bytes(c.seed, tail) & (certMemoShards - 1))
	ct, ok := c.certs[shard][string(tail)]
	if !ok {
		// The key is the memo's copy of the tail. The certificate keeps
		// neither it nor the line: its names are substrings of one copy of
		// the names column, so a pooled certificate outliving the memo
		// pins no reader memory.
		s := string(tail)
		var f [5]string // the field count check left exactly four commas
		rest := s
		for i := range f[:4] {
			f[i], rest, _ = strings.Cut(rest, ",")
		}
		f[4] = rest
		issuer, ok := c.issuers[f[1]]
		if !ok {
			issuer = strings.Clone(f[1])
		}
		if ct, err = parseCertTail(f[0], issuer, f[2], f[3], strings.Clone(f[4])); err != nil {
			return nil, err
		}
		row.tailKey, row.tailShard = s, shard
	}
	country, ok := c.countries[string(head[4])]
	if !ok {
		country = ipmeta.CountryCode(head[4])
		row.countryMiss = true
	}
	rec := slabRecord(&w.slab, recordSlab)
	*rec = Record{ScanDate: w.date, IP: ip, Ports: ports, ASN: asn, Country: country}
	ct.fill(rec)
	return rec, nil
}

// FinishTail declares end of input for a bounded read: a non-empty partial
// line still buffered is a torn tail — quarantined, not a parse error — and
// is dropped so a subsequent Next sees a clean stream. Only the tail the
// last Next stopped at counts: a reader still inside its input has none.
//
// FinishTail and PartialTail first wait for the read-ahead to stop, so once
// either returns the reader no longer reads its source until Next is called.
func (c *ScanCSV) FinishTail() {
	if !c.PartialTail() {
		return
	}
	detail := fmt.Sprintf("%d bytes: %q", len(c.partial), c.partial[:min(len(c.partial), 80)])
	c.partial = c.partial[:0]
	c.quarantine(CSVQuarTruncatedTail, detail)
}

// PartialTail reports whether the last Next stopped at a torn final line,
// which is held until the line completes or FinishTail drops it.
func (c *ScanCSV) PartialTail() bool {
	c.waitIdle()
	return c.drained && len(c.partial) > 0
}

func (c *ScanCSV) quarantine(reason, detail string) {
	if c.OnQuarantine != nil {
		c.OnQuarantine(reason, detail)
	}
}
