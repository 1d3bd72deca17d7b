package scanner_test

// Differential tests for the memoized scans.csv reader. The reference is
// the exported, unmemoized ParseScanRow(strings.Split(line, ",")) wrapped
// in the reader's line framing; the reader must agree with it on which
// lines become records, on every Record field, and on the reconstructed
// certificate, whatever its memos hold at the time.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"retrodns/internal/core"
	"retrodns/internal/pdns"
	"retrodns/internal/report"
	"retrodns/internal/scanner"
	"retrodns/internal/simtime"
	"retrodns/internal/synth"
	"retrodns/internal/x509lite"
)

// synthCSV renders a synth corpus as scans.csv, header included.
func synthCSV(cfg synth.Config) string {
	g := synth.New(cfg)
	var sb strings.Builder
	sb.WriteString(strings.Join(scanner.ScanCSVHeader, ",") + "\n")
	for _, date := range g.ScanDates() {
		g.EmitScan(date, func(r *scanner.Record) {
			sb.WriteString(strings.Join(scanner.FormatScanRow(r), ",") + "\n")
		})
	}
	return sb.String()
}

// csvEvent is what became of one input line: a record, or a quarantine
// and its detail.
type csvEvent struct {
	rec            *scanner.Record
	reason, detail string
}

// readAhead is a reader's read-ahead: lines per chunk, the floor of chunks
// queued, the ceiling of lines queued and the parse workers per chunk, each
// zero for the default.
type readAhead struct{ rows, chunks, ceiling, workers int }

// String names a read-ahead by its chunking, and its ceiling and workers
// when they are set.
func (ra readAhead) String() string {
	s := fmt.Sprintf("{%d %d}", ra.rows, ra.chunks)
	if ra.ceiling != 0 {
		s += fmt.Sprintf(" ceiling %d", ra.ceiling)
	}
	if ra.workers != 0 {
		s += fmt.Sprintf(" workers %d", ra.workers)
	}
	return s
}

// readAheads are the read-aheads the differential tests read at: the
// default chunking, and chunks of one to three rows with one to three
// queued, at the default worker count; and every chunking of more than one
// row, chunks of seven included, at one, two and four workers. So bad rows,
// runs of them and a torn tail fall on every side of a chunk boundary and
// of a worker's run.
var readAheads = func() []readAhead {
	ras := []readAhead{{}, {rows: 1, chunks: 1}, {rows: 1, chunks: 3}, {rows: 2, chunks: 1}, {rows: 3, chunks: 2}}
	for _, workers := range []int{1, 2, 4} {
		for _, ra := range []readAhead{{}, {rows: 2, chunks: 1}, {rows: 3, chunks: 2}, {rows: 7, chunks: 2}} {
			ra.workers = workers
			ras = append(ras, ra)
		}
	}
	return ras
}()

// eventReader wraps src in a reader that logs quarantines into the
// returned event list, in line order with the records drain appends. The
// list is written from OnQuarantine and from drain without a lock, so under
// -race a quarantine reported off the caller's goroutine fails the test.
func eventReader(src io.Reader, caps int, ra readAhead) (*scanner.ScanCSV, *[]csvEvent) {
	c := scanner.NewScanCSV(src)
	if caps > 0 {
		c.SetMemoCap(caps)
	}
	c.SetReadAhead(ra.rows, ra.chunks, ra.ceiling, ra.workers)
	events := new([]csvEvent)
	c.OnQuarantine = func(reason, detail string) {
		*events = append(*events, csvEvent{reason: reason, detail: detail})
	}
	return c, events
}

func drain(tb testing.TB, c *scanner.ScanCSV, events *[]csvEvent) {
	tb.Helper()
	for {
		rec, err := c.Next()
		if errors.Is(err, io.EOF) {
			return
		}
		if err != nil {
			tb.Fatalf("Next: %v", err)
		}
		*events = append(*events, csvEvent{rec: rec})
	}
}

// referenceEvents reads data the unmemoized way: the reader's framing
// (split on newline, trailing CR/LF trimmed, blank lines and a leading
// header skipped, a torn tail quarantined) around ParseScanRow.
func referenceEvents(data string) []csvEvent {
	var events []csvEvent
	started := false
	for {
		i := strings.IndexByte(data, '\n')
		if i < 0 {
			if data != "" {
				detail := fmt.Sprintf("%d bytes: %q", len(data), data[:min(len(data), 80)])
				events = append(events, csvEvent{reason: scanner.CSVQuarTruncatedTail, detail: detail})
			}
			return events
		}
		line := strings.TrimRight(data[:i], "\r\n")
		data = data[i+1:]
		if line == "" {
			continue
		}
		first := !started
		started = true
		if first && strings.HasPrefix(line, scanner.ScanCSVHeader[0]+",") {
			continue
		}
		rec, err := scanner.ParseScanRow(strings.Split(line, ","))
		if err != nil {
			events = append(events, csvEvent{reason: scanner.CSVQuarBadRow, detail: err.Error()})
			continue
		}
		events = append(events, csvEvent{rec: rec})
	}
}

// recordDiff names the first field two records disagree on, "" if none.
func recordDiff(a, b *scanner.Record) string {
	switch {
	case a.ScanDate != b.ScanDate:
		return "ScanDate"
	case a.IP != b.IP:
		return "IP"
	case !reflect.DeepEqual(a.Ports, b.Ports):
		return "Ports"
	case a.ASN != b.ASN:
		return "ASN"
	case a.Country != b.Country:
		return "Country"
	case a.CrtShID != b.CrtShID:
		return "CrtShID"
	case a.Trusted != b.Trusted:
		return "Trusted"
	case a.Sensitive != b.Sensitive:
		return "Sensitive"
	case a.Cert.Fingerprint() != b.Cert.Fingerprint():
		return "Cert.Fingerprint"
	case a.Cert.Subject != b.Cert.Subject:
		return "Cert.Subject"
	case !reflect.DeepEqual(a.Cert.SANs, b.Cert.SANs): // the fingerprint sorts them
		return "Cert.SANs"
	}
	return ""
}

func sameEvents(tb testing.TB, label string, got, want []csvEvent) {
	tb.Helper()
	if len(got) != len(want) {
		tb.Fatalf("%s: %d events, reference has %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].reason != want[i].reason || got[i].detail != want[i].detail {
			tb.Fatalf("%s: event %d: reader says %q %q, reference says %q %q",
				label, i, got[i].reason, got[i].detail, want[i].reason, want[i].detail)
		}
		if want[i].rec == nil {
			continue
		}
		if field := recordDiff(got[i].rec, want[i].rec); field != "" {
			tb.Fatalf("%s: event %d: %s differs\nreader:    %v\nreference: %v", label, i, field, got[i].rec, want[i].rec)
		}
	}
}

// checkAgainstReference reads data whole and in torn pieces, through a
// default reader and one whose memos hold two entries, at every chunking in
// readAheads, and requires the reference's events every time.
func checkAgainstReference(tb testing.TB, data string, tornSeed int64) {
	tb.Helper()
	want := referenceEvents(data)
	for _, caps := range []int{0, 2} {
		for _, ra := range readAheads {
			c, events := eventReader(strings.NewReader(data), caps, ra)
			drain(tb, c, events)
			c.FinishTail()
			sameEvents(tb, fmt.Sprintf("whole, caps=%d, read-ahead %v", caps, ra), *events, want)

			// A growing file: the writer lands a few bytes at a time and the
			// reader runs to EOF in between, so lines complete across resumes.
			var src bytes.Buffer
			c, events = eventReader(&src, caps, ra)
			rng := rand.New(rand.NewSource(tornSeed))
			for rest := data; rest != ""; {
				n := 1 + rng.Intn(300)
				if n > len(rest) {
					n = len(rest)
				}
				src.WriteString(rest[:n])
				rest = rest[n:]
				drain(tb, c, events)
			}
			c.FinishTail()
			sameEvents(tb, fmt.Sprintf("torn, caps=%d, read-ahead %v", caps, ra), *events, want)
		}
	}
}

const goodRow = "2017-01-08,84.205.1.9,443 8443,35506,GR,1001,Let's Encrypt,true,false,mail.mfa.gov.kg www.mfa.gov.kg"

// hostileRows are the shapes the synth corpus never produces: every
// ErrBadScanRow path, rows that are valid but unusual, and pairs that
// differ in one tail column.
func hostileRows() []string {
	long := make([]string, 300) // one valid row wider than the read buffer
	for i := range long {
		long[i] = fmt.Sprintf("h%03d.%s.example", i, strings.Repeat("x", 60)+"."+strings.Repeat("y", 60)+"."+strings.Repeat("z", 60))
	}
	return []string{
		goodRow,
		goodRow, // exact repeat: every memo hits
		strings.Replace(goodRow, "Let's Encrypt", "DigiCert", 1),
		strings.Replace(goodRow, ",1001,", ",1002,", 1),
		strings.Replace(goodRow, "true,false", "false,true", 1),
		strings.Replace(goodRow, "84.205.1.9", "2001:db8::1", 1),
		strings.Replace(goodRow, "443 8443", "", 1),
		strings.Replace(goodRow, "443 8443", " 443  8443 ", 1),
		strings.Replace(goodRow, "GR", "", 1),
		strings.Replace(goodRow, "mail.mfa.gov.kg", "MAIL.mfa.gov.kg.", 1),
		goodRow + "\r",
		"",
		"\r",
		"garbled,row",
		strings.Join(scanner.ScanCSVHeader, ","), // a header that is not the first line
		goodRow + ",extra",
		strings.Replace(goodRow, "2017-01-08", "2017-13-08", 1),
		strings.Replace(goodRow, "2017-01-08", "", 1),
		strings.Replace(goodRow, "84.205.1.9", "84.205.1.999", 1),
		strings.Replace(goodRow, "84.205.1.9", "084.205.1.9", 1),
		strings.Replace(goodRow, "84.205.1.9", "84.205.1.09", 1),
		strings.Replace(goodRow, "84.205.1.9", "84.205.1.0", 1),
		strings.Replace(goodRow, "84.205.1.9", "0.0.0.0", 1),
		strings.Replace(goodRow, "84.205.1.9", "255.255.255.255", 1),
		strings.Replace(goodRow, "84.205.1.9", "256.205.1.9", 1),
		strings.Replace(goodRow, "84.205.1.9", "1000.205.1.9", 1),
		strings.Replace(goodRow, "84.205.1.9", "84.205.1", 1),
		strings.Replace(goodRow, "84.205.1.9", "84.205.1.9.7", 1),
		strings.Replace(goodRow, "84.205.1.9", "84.205..9", 1),
		strings.Replace(goodRow, "84.205.1.9", "84.205.1.", 1),
		strings.Replace(goodRow, "84.205.1.9", "84.205.1.9x", 1),
		strings.Replace(goodRow, "84.205.1.9", "84.205.1.9 ", 1),
		strings.Replace(goodRow, "84.205.1.9", " 84.205.1.9", 1),
		strings.Replace(goodRow, "84.205.1.9", "+84.205.1.9", 1),
		strings.Replace(goodRow, "84.205.1.9", "84.205.1.9%eth0", 1),
		strings.Replace(goodRow, "84.205.1.9", "::ffff:84.205.1.9", 1),
		strings.Replace(goodRow, "84.205.1.9", "", 1),
		strings.Replace(goodRow, "443 8443", "443 70000", 1),
		strings.Replace(goodRow, "35506", "as35506", 1),
		strings.Replace(goodRow, "35506", "035506", 1),
		strings.Replace(goodRow, "35506", "4294967295", 1),
		strings.Replace(goodRow, "35506", "4294967296", 1),
		strings.Replace(goodRow, "35506", "+35506", 1),
		strings.Replace(goodRow, ",35506,", ",,", 1),
		strings.Replace(goodRow, ",1001,", ",0x3e9,", 1),
		strings.Replace(goodRow, "true,false", "yes,false", 1),
		strings.Replace(goodRow, "true,false", "true,", 1),
		strings.Replace(goodRow, "mail.mfa.gov.kg www.mfa.gov.kg", "  ", 1),
		strings.Replace(goodRow, "mail.mfa.gov.kg", "-mail.mfa.gov.kg", 1),
		strings.Replace(goodRow, "2017-01-08", "1999-01-08", 1), // parses; the dataset gate refuses it later
		strings.Repeat("junk ", 15000),
		strings.Replace(goodRow, "mail.mfa.gov.kg www.mfa.gov.kg", strings.Join(long, " "), 1),
		goodRow,
	}
}

func TestScanCSVMatchesReference(t *testing.T) {
	if len(scanner.ScanCSVHeader) != len(strings.Split(goodRow, ",")) {
		t.Fatalf("header has %d columns, rows have %d", len(scanner.ScanCSVHeader), len(strings.Split(goodRow, ",")))
	}
	corpus := synthCSV(synth.Config{Domains: 300, Scans: 6, Seed: 5})
	t.Run("synth corpus read twice", func(t *testing.T) {
		checkAgainstReference(t, corpus+corpus, 1)
	})
	t.Run("hostile rows", func(t *testing.T) {
		checkAgainstReference(t, strings.Join(hostileRows(), "\n")+"\n", 2)
	})
	t.Run("torn tail at end of input", func(t *testing.T) {
		checkAgainstReference(t, corpus[:len(corpus)/2+7], 3)
	})
}

// TestScanCSVSharesWhatRepeats pins the memo's two halves: rows with the
// same tail come back with the same certificate instance (which is what
// lets a dataset's gate and pool recognise it), and rows that differ in
// any identifying column do not. The tail's first two rows fall to
// different workers of one chunk, so both miss the memo and the insert
// phase has to make them one; later rows fall in later chunks.
func TestScanCSVSharesWhatRepeats(t *testing.T) {
	at := func(ip string) string { return strings.Replace(goodRow, "84.205.1.9", ip, 1) }
	rows := []string{
		goodRow,
		strings.Replace(goodRow, "Let's Encrypt", "DigiCert", 1),
		at("84.205.1.10"),
		strings.Replace(goodRow, ",1001,", ",1002,", 1),
		at("84.205.1.11"),
		at("84.205.1.12"),
		at("84.205.1.13"),
		at("84.205.1.14"),
		at("84.205.1.15"),
	}
	same, differ := []int{2, 4, 5, 6, 7, 8}, []int{1, 3}
	for _, ra := range []readAhead{{}, {rows: 4, chunks: 1, workers: 2}, {rows: 4, chunks: 1, workers: 4}, {rows: 3, chunks: 2, workers: 3}, {rows: 1, chunks: 1}} {
		c, events := eventReader(strings.NewReader(strings.Join(rows, "\n")+"\n"), 0, ra)
		drain(t, c, events)
		if len(*events) != len(rows) {
			t.Fatalf("read-ahead %v: %d events, want %d", ra, len(*events), len(rows))
		}
		rec := func(i int) *scanner.Record { return (*events)[i].rec }
		for _, i := range same {
			if rec(i).Cert != rec(0).Cert {
				t.Errorf("read-ahead %v: rows 0 and %d have one tail but not one certificate instance", ra, i)
			}
		}
		for i := range rows {
			if &rec(i).Ports[0] != &rec(0).Ports[0] {
				t.Errorf("read-ahead %v: rows 0 and %d have one ports column but not one ports array", ra, i)
			}
		}
		for _, i := range differ {
			if rec(i).Cert == rec(0).Cert || rec(i).Cert.Fingerprint() == rec(0).Cert.Fingerprint() {
				t.Errorf("read-ahead %v: row %d differs from row 0 in one tail column but shares its certificate", ra, i)
			}
		}
	}
}

// FuzzScanCSVRow holds the reader to the reference on arbitrary lines. The
// line follows a valid row, so its columns meet warm memos, and is read
// twice, so its second reading meets whatever the first left behind.
func FuzzScanCSVRow(f *testing.F) {
	for _, row := range hostileRows() {
		if len(row) < 1<<10 {
			f.Add(row)
		}
	}
	f.Fuzz(func(t *testing.T, line string) {
		data := goodRow + "\n" + line + "\n" + line + "\n"
		want := referenceEvents(data)
		for _, caps := range []int{0, 1} {
			for _, ra := range readAheads {
				c, events := eventReader(strings.NewReader(data), caps, ra)
				drain(t, c, events)
				c.FinishTail()
				sameEvents(t, fmt.Sprintf("caps=%d, read-ahead %v", caps, ra), *events, want)
			}
		}
	})
}

// readBatches reads a whole scans.csv through one reader and groups the
// records by consecutive scan date.
func readBatches(tb testing.TB, data string) [][]*scanner.Record {
	tb.Helper()
	c, events := eventReader(strings.NewReader(data), 0, readAhead{})
	drain(tb, c, events)
	var batches [][]*scanner.Record
	for _, ev := range *events {
		if ev.rec == nil {
			tb.Fatalf("corpus row quarantined: %s", ev.reason)
		}
		if n := len(batches); n == 0 || batches[n-1][0].ScanDate != ev.rec.ScanDate {
			batches = append(batches, nil)
		}
		batches[len(batches)-1] = append(batches[len(batches)-1], ev.rec)
	}
	return batches
}

// TestIngestedRecordsDoNotPinLines ingests a corpus whose lines are wide
// next to what a Record keeps of them and requires the heap it leaves
// behind to follow the dataset's own size model. A Record that holds a
// substring of its row keeps the row alive, and the heap then follows the
// size of the file instead (2.8x the model on this corpus, before the reader copied what it keeps).
func TestIngestedRecordsDoNotPinLines(t *testing.T) {
	const domains, scans = 2000, 40
	var sb strings.Builder
	for _, date := range simtime.ScanDates(0, 7*scans)[:scans] {
		for d := 0; d < domains; d++ {
			apex := fmt.Sprintf("ministry-of-foreign-affairs-%06d.example", d)
			fmt.Fprintf(&sb, "%s,10.%d.%d.7,443 8443,64500,KG,%d,Let's Encrypt Authority X3,true,true,portal.%s secure-mail.%s remote-vpn.%s\n",
				date, d/250, d%250, d+1, apex, apex, apex)
		}
	}
	csv := sb.String()

	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	ds := scanner.NewDataset()
	for _, batch := range readBatches(t, csv) {
		if err := ds.AddScan(batch[0].ScanDate, batch); err != nil {
			t.Fatal(err)
		}
	}
	ds.Freeze()
	grown := int64(heap() - before)
	est := ds.EstimatedBytes()
	runtime.KeepAlive(csv)
	if _, nr := ds.Size(); nr != domains*scans {
		t.Fatalf("ingested %d records, want %d", nr, domains*scans)
	}
	t.Logf("csv %d bytes, heap grew %d, model estimates %d", len(csv), grown, est)
	if limit := est + est/4; grown > limit {
		t.Fatalf("heap grew %d bytes for a corpus the model puts at %d (limit %d); the csv is %d bytes",
			grown, est, limit, len(csv))
	}
}

// TestPooledIssuersShareOneString ingests a corpus through ScanCSV, drops
// the reader, and requires the pooled certificates of one issuer to share
// one issuer string. A certificate whose issuer is a substring of its row's
// crtsh_id..names tail keeps that tail alive for as long as the pool keeps
// the certificate, and every certificate then holds a string of its own.
func TestPooledIssuersShareOneString(t *testing.T) {
	ds := scanner.NewDataset()
	for _, batch := range readBatches(t, synthCSV(synth.Config{Domains: 400, Scans: 4, Seed: 5, TransientPerMille: 200})) {
		if err := ds.AddScan(batch[0].ScanDate, batch); err != nil {
			t.Fatal(err)
		}
	}
	ds.Freeze()
	data := map[string]*byte{}
	certs := map[*x509lite.Certificate]bool{}
	for _, domain := range ds.Domains() {
		for _, r := range ds.DomainRecords(domain, 0, 0) {
			certs[r.Cert] = true
			p := unsafe.StringData(r.Cert.Issuer)
			if q, ok := data[r.Cert.Issuer]; ok && q != p {
				t.Fatalf("issuer %q: two pooled certificates hold two copies of it", r.Cert.Issuer)
			}
			data[r.Cert.Issuer] = p
		}
	}
	if len(data) < 2 || len(certs) <= len(data) {
		t.Fatalf("corpus too plain: %d issuers over %d pooled certificates", len(data), len(certs))
	}
}

// TestReaderRecordsFeedTwoDatasets is the aliasing check: records of one
// reader share certificates and ports arrays, so two datasets fed from it
// — each with Record structs of its own, as ingest takes those over —
// reach the same shared objects from their parallel gate, intern and
// consume phases at once. Run under -race by `make race`; the findings of
// the two must also be byte-identical.
func TestReaderRecordsFeedTwoDatasets(t *testing.T) {
	// 2500 domains put each scan past the parallel-ingest threshold.
	batches := readBatches(t, synthCSV(synth.Config{Domains: 2500, Scans: 6, Seed: 9}))
	copies := make([][]*scanner.Record, len(batches))
	for i, batch := range batches {
		copies[i] = make([]*scanner.Record, len(batch))
		for j, r := range batch {
			cp := *r
			copies[i][j] = &cp
		}
	}
	bulk, follow := scanner.NewDatasetShards(8), scanner.NewDatasetShards(3)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for _, batch := range batches {
			if err := bulk.AddScan(batch[0].ScanDate, batch); err != nil {
				t.Error(err)
			}
		}
		bulk.Freeze()
	}()
	go func() {
		defer wg.Done()
		for _, batch := range copies {
			if err := follow.Append(batch[0].ScanDate, batch); err != nil {
				t.Error(err)
			}
		}
	}()
	wg.Wait()

	findings := func(ds *scanner.Dataset) []byte {
		res := (&core.Pipeline{Params: core.DefaultParams(), Dataset: ds, PDNS: pdns.NewDB()}).Run()
		var buf bytes.Buffer
		if err := report.WriteJSON(&buf, res); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := findings(bulk), findings(follow)
	if !bytes.Equal(a, b) {
		t.Fatalf("findings differ between the two datasets\nbulk:\n%s\nfollow:\n%s", a, b)
	}
	if nd, nr := bulk.Size(); nd == 0 || nr == 0 {
		t.Fatalf("empty corpus: %d domains, %d records", nd, nr)
	}
}

// TestFirstWideScanSizingKeepsEverything ingests two wide scans whose
// certificates partly overlap — the first sizes the first-sighting tables,
// the second lands in tables that already hold entries — and holds the
// dataset to the same scans ingested row by row, which never sizes
// anything, on the pool, Size and every window, and to the scans ingested
// with interning off on Size, every window and the findings. (Row by row,
// each row's AddScan lists its scan date again, which changes the
// findings' scan counts, so those are not compared there.)
func TestFirstWideScanSizingKeepsEverything(t *testing.T) {
	csv := synthCSV(synth.Config{Domains: 2500, Scans: 2, Seed: 13, TransientPerMille: 300})
	load := func(rowByRow, intern bool) *scanner.Dataset {
		ds := scanner.NewDataset()
		ds.SetIntern(intern)
		batches := readBatches(t, csv)
		if len(batches) != 2 || len(batches[0]) < 2500 {
			t.Fatalf("corpus shape: %d scans", len(batches))
		}
		for _, batch := range batches {
			step := len(batch)
			if rowByRow {
				step = 1
			}
			for lo := 0; lo < len(batch); lo += step {
				if err := ds.AddScan(batch[0].ScanDate, batch[lo:min(lo+step, len(batch))]); err != nil {
					t.Fatal(err)
				}
			}
		}
		ds.Freeze()
		return ds
	}
	findings := func(ds *scanner.Dataset) []byte {
		res := (&core.Pipeline{Params: core.DefaultParams(), Dataset: ds, PDNS: pdns.NewDB()}).Run()
		var buf bytes.Buffer
		if err := report.WriteJSON(&buf, res); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	wide, rows, off := load(false, true), load(true, true), load(false, false)
	if a, b := wide.Pool().Stats(), rows.Pool().Stats(); a != b {
		t.Errorf("pool stats: wide scans %v, row by row %v", a, b)
	}
	if st := wide.Pool().Stats(); st.Certs == 0 || st.Names == 0 {
		t.Fatalf("nothing pooled: %v", st)
	}
	nd, nr := wide.Size()
	for name, ds := range map[string]*scanner.Dataset{"row by row": rows, "interning off": off} {
		if d, r := ds.Size(); d != nd || r != nr {
			t.Errorf("Size: wide scans (%d, %d), %s (%d, %d)", nd, nr, name, d, r)
		}
		for _, domain := range wide.Domains() {
			a, b := wide.DomainRecords(domain, 0, 0), ds.DomainRecords(domain, 0, 0)
			if len(a) != len(b) {
				t.Fatalf("%s: %s has %d records, wide scans %d", name, domain, len(b), len(a))
			}
			for i := range a {
				if field := recordDiff(a[i], b[i]); field != "" {
					t.Fatalf("%s: %s record %d: %s differs", name, domain, i, field)
				}
			}
		}
	}
	if a, b := findings(wide), findings(off); !bytes.Equal(a, b) {
		t.Fatalf("findings differ with interning off\nwide:\n%s\noff:\n%s", a, b)
	}
}
