package scanner

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/netip"
	"slices"
	"strconv"
	"strings"
	"testing"

	"retrodns/internal/simtime"
	"retrodns/internal/x509lite"
)

func csvLine(t *testing.T, r *Record) string {
	t.Helper()
	return strings.Join(FormatScanRow(r), ",") + "\n"
}

func testScanRecord(t *testing.T, date simtime.Date, i int) *Record {
	t.Helper()
	cert := mkCert(t, leKey, "Let's Encrypt", date-1, date+90, "csvtest.example")
	return &Record{
		ScanDate: date, IP: legitIP, Ports: []uint16{443, 8443},
		ASN: 35506, Country: "GR", Cert: cert, CrtShID: int64(1000 + i),
		Trusted: true, Sensitive: i%2 == 0,
	}
}

func TestScanRowRoundTrip(t *testing.T) {
	date := simtime.ScanDates(0, 20)[0]
	orig := testScanRecord(t, date, 1)
	got, err := ParseScanRow(FormatScanRow(orig))
	if err != nil {
		t.Fatalf("ParseScanRow: %v", err)
	}
	if got.ScanDate != orig.ScanDate || got.IP != orig.IP || got.ASN != orig.ASN ||
		got.Country != orig.Country || got.CrtShID != orig.CrtShID ||
		got.Trusted != orig.Trusted || got.Sensitive != orig.Sensitive {
		t.Fatalf("scalar fields diverged: %+v vs %+v", got, orig)
	}
	if len(got.Ports) != 2 || got.Ports[0] != 443 || got.Ports[1] != 8443 {
		t.Fatalf("ports: %v", got.Ports)
	}
	if len(got.Cert.SANs) != 1 || got.Cert.SANs[0] != "csvtest.example" {
		t.Fatalf("SANs: %v", got.Cert.SANs)
	}
	// The reconstruction is deterministic: parsing the same row twice
	// yields fingerprint-identical certificates.
	again, err := ParseScanRow(FormatScanRow(orig))
	if err != nil {
		t.Fatal(err)
	}
	if got.Cert.Fingerprint() != again.Cert.Fingerprint() {
		t.Fatal("reconstructed cert fingerprint not deterministic")
	}
	if _, _, ok := ValidateRecord(got); !ok {
		t.Fatal("round-tripped record fails the ingest gate")
	}
}

// TestFormatScanRowFields holds the one-buffer FormatScanRow to the
// field-at-a-time rendering it replaced, on the records whose fields differ
// in kind: IPv6 and zero addresses, no and many ports, no names, a negative
// CT id.
func TestFormatScanRowFields(t *testing.T) {
	reference := func(r *Record) []string {
		ports := make([]string, len(r.Ports))
		for i, p := range r.Ports {
			ports[i] = strconv.Itoa(int(p))
		}
		names := make([]string, len(r.Cert.SANs))
		for i, n := range r.Cert.SANs {
			names[i] = string(n)
		}
		return []string{
			r.ScanDate.String(), r.IP.String(), strings.Join(ports, " "),
			strconv.FormatUint(uint64(r.ASN), 10), string(r.Country),
			strconv.FormatInt(r.CrtShID, 10), r.Cert.Issuer,
			strconv.FormatBool(r.Trusted), strconv.FormatBool(r.Sensitive),
			strings.Join(names, " "),
		}
	}
	date := simtime.ScanDates(0, 20)[0]
	many := mkCert(t, leKey, "Let's Encrypt", date-1, date+90, "a.example", "mail.a.example", "vpn.a.example")
	records := []*Record{
		testScanRecord(t, date, 1),
		testScanRecord(t, simtime.StudyEnd-1, 2),
		{ScanDate: date, IP: netip.MustParseAddr("2001:db8::7"), Ports: []uint16{25, 443, 65535}, ASN: 4294967295, Country: "NL", Cert: many, CrtShID: -3},
		{ScanDate: date, IP: netip.MustParseAddr("::ffff:192.0.2.7"), Cert: many, Trusted: true},
		{ScanDate: date, Cert: &x509lite.Certificate{}, Sensitive: true},
	}
	for i, r := range records {
		if got, want := FormatScanRow(r), reference(r); !slices.Equal(got, want) {
			t.Errorf("record %d:\n got %q\nwant %q", i, got, want)
		}
	}
}

func TestScanCSVSkipsHeaderAndBadRows(t *testing.T) {
	date := simtime.ScanDates(0, 20)[0]
	good := testScanRecord(t, date, 1)
	var buf bytes.Buffer
	buf.WriteString(strings.Join(ScanCSVHeader, ",") + "\n")
	buf.WriteString("garbled,row\n")
	buf.WriteString(csvLine(t, good))
	c := NewScanCSV(&buf)
	var quars []string
	c.OnQuarantine = func(reason, detail string) { quars = append(quars, reason) }
	rec, err := c.Next()
	if err != nil {
		t.Fatalf("Next: %v", err)
	}
	if rec.CrtShID != good.CrtShID {
		t.Fatalf("wrong record: %+v", rec)
	}
	if _, err := c.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("want EOF, got %v", err)
	}
	if len(quars) != 1 || quars[0] != CSVQuarBadRow {
		t.Fatalf("quarantine calls: %v", quars)
	}
}

// TestScanCSVTruncatedTail covers the follow-mode contract: a torn final
// line is held back, completed when the file grows, and — at declared end
// of input — quarantined as truncated_tail rather than parsed.
func TestScanCSVTruncatedTail(t *testing.T) {
	dates := simtime.ScanDates(0, 30)
	a := csvLine(t, testScanRecord(t, dates[0], 1))
	b := csvLine(t, testScanRecord(t, dates[1], 2))

	t.Run("held back then completed", func(t *testing.T) {
		var src bytes.Buffer
		src.WriteString(a)
		src.WriteString(b[:len(b)/2]) // torn mid-line, no newline
		c := NewScanCSV(&src)
		if _, err := c.Next(); err != nil {
			t.Fatalf("first record: %v", err)
		}
		if _, err := c.Next(); !errors.Is(err, io.EOF) {
			t.Fatalf("want EOF at torn tail, got %v", err)
		}
		if !c.PartialTail() {
			t.Fatal("torn tail not buffered")
		}
		// The writer appends the remainder: the record completes.
		src.WriteString(b[len(b)/2:])
		rec, err := c.Next()
		if err != nil {
			t.Fatalf("resumed record: %v", err)
		}
		if rec.ScanDate != dates[1] {
			t.Fatalf("resumed record date: %v", rec.ScanDate)
		}
	})

	t.Run("quarantined at end of input", func(t *testing.T) {
		src := strings.NewReader(a + b[:len(b)/2])
		c := NewScanCSV(src)
		var quars []string
		c.OnQuarantine = func(reason, detail string) { quars = append(quars, reason) }
		if _, err := c.Next(); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Next(); !errors.Is(err, io.EOF) {
			t.Fatalf("want EOF, got %v", err)
		}
		c.FinishTail()
		if len(quars) != 1 || quars[0] != CSVQuarTruncatedTail {
			t.Fatalf("want one truncated_tail, got %v", quars)
		}
		if c.PartialTail() {
			t.Fatal("tail not cleared after FinishTail")
		}
		c.FinishTail() // idempotent
		if len(quars) != 1 {
			t.Fatalf("FinishTail not idempotent: %v", quars)
		}
	})

	t.Run("torn then continued line parses as one bad row", func(t *testing.T) {
		src := strings.NewReader(a[:len(a)/2] + "XXX\n" + b)
		c := NewScanCSV(src)
		var quars []string
		c.OnQuarantine = func(reason, detail string) { quars = append(quars, reason) }
		rec, err := c.Next()
		if err != nil {
			t.Fatalf("want resume at next complete record, got %v", err)
		}
		if rec.ScanDate != dates[1] {
			t.Fatalf("resumed at %v, want %v", rec.ScanDate, dates[1])
		}
		if len(quars) != 1 || quars[0] != CSVQuarBadRow {
			t.Fatalf("quarantine calls: %v", quars)
		}
	})
}

// TestScanCSVTruncatedTailDetail pins the truncated_tail detail: the torn
// line's whole length, then its first 80 bytes quoted.
func TestScanCSVTruncatedTailDetail(t *testing.T) {
	tail := strings.Repeat("x", 5000)
	c := NewScanCSV(strings.NewReader(goodRowForDetail + "\n" + tail))
	var details []string
	c.OnQuarantine = func(reason, detail string) { details = append(details, reason+": "+detail) }
	if _, err := c.Next(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("want EOF, got %v", err)
	}
	c.FinishTail()
	want := `truncated_tail: 5000 bytes: "` + strings.Repeat("x", 80) + `"`
	if len(details) != 1 || details[0] != want {
		t.Fatalf("quarantine calls %q, want [%q]", details, want)
	}
}

const goodRowForDetail = "2017-01-08,84.205.1.9,443,35506,GR,1001,Let's Encrypt,true,false,www.mfa.gov.kg"

// TestParseLineIPMatchesReference holds the in-place dotted-quad decoder to
// parseScanIP, value and error text, on every address built from four
// octets out of a list of valid, malformed and out-of-range ones, and on
// each of those with bytes around it.
func TestParseLineIPMatchesReference(t *testing.T) {
	octets := []string{"", "0", "00", "01", "1", "9", "10", "25", "99", "100", "199", "249", "255", "256", "300", "999", "1000", "a", "-1", " 1", "1 "}
	check := func(s string) {
		got, gerr := parseLineIP([]byte(s))
		want, werr := parseScanIP(s)
		if got != want || fmt.Sprint(gerr) != fmt.Sprint(werr) {
			t.Fatalf("parseLineIP(%q) = %v, %v; parseScanIP says %v, %v", s, got, gerr, want, werr)
		}
	}
	for _, a := range octets {
		for _, b := range octets {
			for _, c := range octets {
				for _, d := range octets {
					check(a + "." + b + "." + c + "." + d)
				}
			}
		}
	}
	for _, s := range []string{"", ".", "...", "1.2.3", "1.2.3.4.", "1.2.3.4.5", "1.2.3.4x", "x1.2.3.4", "1.2.3.4%eth0",
		"::1", "2001:db8::1", "::ffff:1.2.3.4", "1.2.3.4:80", "1..2.3", "１.2.3.4"} {
		check(s)
	}
}

// TestParseLineASNMatchesReference holds the in-place ASN decoder to
// parseScanASN, value and error text, around the 32-bit edge and on what
// strconv refuses in base 10.
func TestParseLineASNMatchesReference(t *testing.T) {
	for _, s := range []string{"", "0", "00", "007", "35506", "4294967295", "04294967295", "4294967296",
		"9999999999", "10000000000", "99999999999999999999999", "+1", "-1", "1_000", "0x10", " 1", "1 ", "as1", "1.0", "١"} {
		got, gerr := parseLineASN([]byte(s))
		want, werr := parseScanASN(s)
		if got != want || fmt.Sprint(gerr) != fmt.Sprint(werr) {
			t.Fatalf("parseLineASN(%q) = %v, %v; parseScanASN says %v, %v", s, got, gerr, want, werr)
		}
	}
}

// refSynthCertSerial is synthCertSerial as it stood on hash/fnv: three heap
// objects a first-sight certificate, and the serial every corpus on disk was
// fingerprinted with.
func refSynthCertSerial(names, issuer string, crtshID int64) uint64 {
	h := fnv.New64a()
	io.WriteString(h, names)
	h.Write([]byte{0})
	io.WriteString(h, issuer)
	h.Write([]byte{0})
	var buf [8]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(uint64(crtshID) >> (8 * i))
	}
	h.Write(buf[:])
	return h.Sum64()
}

// FuzzSynthCertSerial holds the in-place hash to that reference.
func FuzzSynthCertSerial(f *testing.F) {
	f.Add("", "", int64(0))
	f.Add("mail.mfa.gov.kg www.mfa.gov.kg", "Let's Encrypt Authority X3", int64(1394170951))
	f.Add("a\x00b", "\x00", int64(-1))
	f.Fuzz(func(t *testing.T, names, issuer string, crtshID int64) {
		if got, want := synthCertSerial(names, issuer, crtshID), refSynthCertSerial(names, issuer, crtshID); got != want {
			t.Fatalf("synthCertSerial(%q, %q, %d) = %#x, reference %#x", names, issuer, crtshID, got, want)
		}
	})
}
