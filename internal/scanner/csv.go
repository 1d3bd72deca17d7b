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
	"io"
	"math"
	"net/netip"
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
	// readAheadRows is the most records one read-ahead chunk carries, and
	// readAheadChunks how many chunks the producer queues before it stops:
	// the reader parses at most ~9 k rows past the caller. A bound of 64
	// chunks raised a follow loop's peak RSS by up to 15 %; 8 did not.
	readAheadRows   = 1 << 10
	readAheadChunks = 8
)

// ScanCSV reads scans.csv rows from a (possibly still growing) stream.
// Rows that fail to parse are reported through OnQuarantine and skipped;
// Next only ever returns parsed records or io.EOF. io.EOF is retryable:
// in follow mode the caller waits and calls Next again, and any partial
// line buffered at EOF is completed once the writer appends its remainder.
//
// Rows are split in place in the read buffer and whatever a row repeats
// from an earlier one is served from a memo: the scan date, the ports list,
// the country code, the issuer, and — keyed on the raw crtsh_id..names
// tail — the certificate. A miss takes ParseScanRow's decode of that
// column, checks and all, and copies what it keeps, so no Record
// references the read buffer. Records of one reader therefore share
// *Certificate instances and Ports backing arrays; both are read-only from
// the moment Next returns.
//
// Parsing runs ahead of the caller: a producer goroutine fills chunks of
// parsed rows, each with the quarantines that fell between its records, and
// stops on its own once readAheadChunks are queued or the input has no
// further complete line; Next restarts it when the queue runs low. So a
// bulk load parses the next rows while the caller stages the last ones, and
// OnQuarantine is still called on the caller's goroutine, at its line's
// place among the records.
type ScanCSV struct {
	// The producer's state: only the running producer touches it, and
	// FinishTail and PartialTail once none runs.
	br      *bufio.Reader
	partial []byte
	started bool // first complete line seen (header handling done)

	dateStr   string // scan_date column of the last row; "" before the first
	date      simtime.Date
	ports     map[string][]uint16
	countries map[string]ipmeta.CountryCode
	issuers   map[string]string
	certs     map[string]certTail
	slab      []Record

	// The hand-off, under mu: ready is broadcast when a chunk is queued
	// and when the producer stops.
	mu      sync.Mutex
	ready   sync.Cond
	running bool
	queue   []*csvChunk

	// The caller's state: the chunk Next is delivering, its next record
	// and quarantine, and whether the last Next returned the error that
	// ended the input (only then is partial the caller's torn tail).
	cur     *csvChunk
	ri, qi  int
	drained bool

	// memoCap is readerMemoCap, and chunkRows and maxChunks readAheadRows
	// and readAheadChunks: fields only so tests can fill a memo, or split
	// the input into chunks, with a few rows.
	memoCap, chunkRows, maxChunks int

	// OnQuarantine, when set, receives one call per skipped input line
	// with a reason (CSVQuarBadRow, CSVQuarTruncatedTail) and a detail.
	OnQuarantine func(reason, detail string)
}

// csvChunk is a run of consecutive input lines the producer parsed.
type csvChunk struct {
	recs  []*Record
	quars []csvQuar // in line order
	err   error     // what ended the input after the run; nil if it filled
}

// csvQuar is a bad row that came after the chunk's first at records.
type csvQuar struct {
	at     int
	detail string
}

// NewScanCSV wraps r in a scans.csv reader.
func NewScanCSV(r io.Reader) *ScanCSV {
	c := &ScanCSV{
		br:        bufio.NewReaderSize(r, 64<<10),
		ports:     make(map[string][]uint16),
		countries: make(map[string]ipmeta.CountryCode),
		issuers:   make(map[string]string),
		certs:     make(map[string]certTail),
		memoCap:   readerMemoCap,
		chunkRows: readAheadRows,
		maxChunks: readAheadChunks,
	}
	c.ready.L = &c.mu
	return c
}

// memoPut records v under key in one of c's capped memos.
func memoPut[V any](c *ScanCSV, m map[string]V, key string, v V) {
	if len(m) >= c.memoCap {
		clear(m)
	}
	m[key] = v
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
// stopped, the queue is at most half full and the input has not ended in
// it, then waiting for a chunk if none is queued.
func (c *ScanCSV) take() *csvChunk {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := len(c.queue)
	if !c.running && n <= c.maxChunks/2 && (n == 0 || c.queue[n-1].err == nil) {
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
	return ch
}

// produce queues chunks until maxChunks are waiting or the input has no
// further complete line. It never waits on Next, so the producer of a
// reader its caller drops stops by itself.
func (c *ScanCSV) produce() {
	for stop := false; !stop; {
		ch := c.fill()
		c.mu.Lock()
		c.queue = append(c.queue, ch)
		stop = ch.err != nil || len(c.queue) >= c.maxChunks
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

// fill runs the line loop until the chunk holds chunkRows records or the
// stream has no further complete line.
func (c *ScanCSV) fill() *csvChunk {
	ch := &csvChunk{recs: make([]*Record, 0, c.chunkRows)}
	for len(ch.recs) < c.chunkRows {
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
			return ch
		}
		if len(c.partial) > 0 {
			// line views partial's array until the next read appends to it,
			// by which time the row has been decoded.
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
		rec, err := c.parseLine(line)
		if err != nil {
			ch.quars = append(ch.quars, csvQuar{len(ch.recs), err.Error()})
			continue
		}
		ch.recs = append(ch.recs, rec)
	}
	return ch
}

var scanCSVHeaderPrefix = []byte(ScanCSVHeader[0] + ",")

// parseLine is ParseScanRow over the read buffer: same columns, same
// order, same errors, with the repeating columns answered from the memos.
// The string(bytes) map indexes and comparisons below do not allocate.
func (c *ScanCSV) parseLine(line []byte) (*Record, error) {
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
	if c.dateStr == "" || string(head[0]) != c.dateStr {
		s := string(head[0])
		date, err := ParseScanDate(s)
		if err != nil {
			return nil, err
		}
		c.dateStr, c.date = s, date
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
		memoPut(c, c.ports, s, ports)
	}
	asn, err := parseLineASN(head[3])
	if err != nil {
		return nil, err
	}
	ct, ok := c.certs[string(tail)]
	if !ok {
		// The key is the one copy of the tail; the certificate's names are
		// substrings of it. Its issuer comes from a memo of its own: a
		// pooled certificate keeps its issuer after the reader is gone, and
		// must not keep this row's tail alive with it (the pool re-interns
		// names, not the issuer).
		s := string(tail)
		f := strings.SplitN(s, ",", 5)
		issuer, ok := c.issuers[f[1]]
		if !ok {
			issuer = strings.Clone(f[1])
			memoPut(c, c.issuers, issuer, issuer)
		}
		if ct, err = parseCertTail(f[0], issuer, f[2], f[3], f[4]); err != nil {
			return nil, err
		}
		memoPut(c, c.certs, s, ct)
	}
	country, ok := c.countries[string(head[4])]
	if !ok {
		country = ipmeta.CountryCode(head[4])
		memoPut(c, c.countries, string(country), country)
	}
	rec := slabRecord(&c.slab, recordSlab)
	*rec = Record{ScanDate: c.date, IP: ip, Ports: ports, ASN: asn, Country: country}
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
