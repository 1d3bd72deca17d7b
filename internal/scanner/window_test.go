package scanner

import (
	"errors"
	"fmt"
	"math"
	"net/netip"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"retrodns/internal/dnscore"
	"retrodns/internal/ipmeta"
	"retrodns/internal/simtime"
	"retrodns/internal/wire"
	"retrodns/internal/x509lite"
)

// refDecodeRecord is the record decoder as it stood before the slab form:
// one heap Record, one ports array and one country string per record. The
// production decoder (decodeRecordInto) is held to it check for check.
func refDecodeRecord(r *wire.Reader, certs []*x509lite.Certificate) *Record {
	rec := &Record{}
	rec.ScanDate = simtime.Date(r.Int())
	ipRaw := r.Blob()
	if len(ipRaw) > 0 {
		if addr, ok := netip.AddrFromSlice(ipRaw); ok {
			rec.IP = addr
		} else {
			r.Fail("ip bytes")
		}
	}
	nports := r.Count()
	for i := 0; i < nports; i++ {
		p := r.Uvarint()
		if p > math.MaxUint16 {
			r.Fail("port range")
			return rec
		}
		rec.Ports = append(rec.Ports, uint16(p))
	}
	rec.ASN = ipmeta.ASN(r.Uvarint())
	rec.Country = ipmeta.CountryCode(r.String())
	certIdx := r.Uvarint()
	if r.Err() == nil && certIdx > 0 {
		if certIdx > uint64(len(certs)) {
			r.Fail("cert index")
		} else {
			rec.Cert = certs[certIdx-1]
		}
	}
	rec.CrtShID = r.Int()
	rec.Trusted = r.Bool()
	rec.Sensitive = r.Bool()
	return rec
}

// refDecodeWindow is the per-record reference loop decodeWindow replaced,
// with the one window rule the loop did not have: a record dated before
// the one it follows is refused.
func refDecodeWindow(value []byte, certs []*x509lite.Certificate) ([]*Record, error) {
	r := wire.NewReader(value)
	n := r.Count()
	out := make([]*Record, 0, n)
	for j := 0; j < n; j++ {
		if r.Err() != nil {
			break
		}
		rec := refDecodeRecord(r, certs)
		if j > 0 && rec.ScanDate < out[j-1].ScanDate {
			r.Fail("window date order")
		}
		out = append(out, rec)
	}
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return out, nil
}

// windowCerts is the shard cert table the codec tests decode against. The
// codec only ever hands the pointers back, so bare certificates do.
func windowCerts() []*x509lite.Certificate {
	certs := make([]*x509lite.Certificate, 3)
	for i := range certs {
		name := dnscore.Name(fmt.Sprintf("c%d.example", i))
		certs[i] = &x509lite.Certificate{Serial: uint64(i) + 1, Subject: name, SANs: []dnscore.Name{name}}
	}
	return certs
}

// encodeTestWindow is encodeWindow with the certificate given as a table
// index (0 = none), so a window can also name an index the table lacks.
func encodeTestWindow(window []*Record, certIdx []uint64) []byte {
	var w wire.Writer
	w.Uvarint(uint64(len(window)))
	for i, rec := range window {
		encodeRecord(&w, rec, certIdx[i])
	}
	return w.Bytes()
}

// sameDecode holds decodeWindow to the reference on one input: the same
// records, or the same wire.ErrMalformed and no records at all. Then the same again
// decoding into dirty, a cursor whose slab still holds whatever the input
// before this one left there: a refused window must not come back as the
// part that decoded, nor as rows of the previous one.
func sameDecode(t *testing.T, label string, value []byte, certs []*x509lite.Certificate, dirty *WindowCursor) {
	t.Helper()
	want, wantErr := refDecodeWindow(value, certs)
	check := func(label string, got []*Record, gotErr error) {
		t.Helper()
		if wantErr != nil {
			if gotErr == nil || gotErr.Error() != wantErr.Error() || !errors.Is(gotErr, wire.ErrMalformed) {
				t.Fatalf("%s: error %v, reference %v", label, gotErr, wantErr)
			}
			if got != nil {
				t.Fatalf("%s: %d records beside error %v", label, len(got), gotErr)
			}
			return
		}
		if gotErr != nil {
			t.Fatalf("%s: error %v, reference decoded %d records", label, gotErr, len(want))
		}
		if !reflect.DeepEqual(derefs(got), derefs(want)) {
			t.Fatalf("%s: records differ from the reference\n got %v\nwant %v", label, derefs(got), derefs(want))
		}
	}
	got, gotErr := decodeWindow(value, certs)
	check(label, got, gotErr)
	got, gotErr = decodeWindowInto(value, certs, dirty)
	check(label+" into a dirty slab", got, gotErr)
}

// recordRow renders every field of a record, the certificate by
// fingerprint, so windows of different datasets compare as strings.
func recordRow(r *Record) string {
	return fmt.Sprint(r.ScanDate, r.IP, r.Ports, r.ASN, r.Country, r.Cert.Fingerprint(), r.CrtShID, r.Trusted, r.Sensitive)
}

func derefs(window []*Record) []Record {
	out := make([]Record, len(window))
	for i, r := range window {
		out[i] = *r
	}
	return out
}

// testWindow is a window and, record by record, the cert-table index it is
// encoded with.
type testWindow struct {
	window  []*Record
	certIdx []uint64
}

// testWindows covers what a record can hold: IPv4, IPv6, 4-in-6 and zero
// addresses; no, one and many ports; no certificate; ports and country
// repeating from the record before, changing, and changing back; windows on
// both sides of the slab bound.
func testWindows() map[string]testWindow {
	v4 := netip.MustParseAddr("192.0.2.7")
	v6 := netip.MustParseAddr("2001:db8::7")
	mapped := netip.MustParseAddr("::ffff:192.0.2.7")
	out := map[string]testWindow{"empty": {}}

	mixed := []*Record{
		{ScanDate: 10, IP: v4, Ports: []uint16{443}, ASN: 64512, Country: "GR", CrtShID: 7, Trusted: true},
		{ScanDate: 17, IP: v6, Ports: []uint16{443}, ASN: 64512, Country: "GR", CrtShID: -7, Sensitive: true},
		{ScanDate: 17, IP: mapped, Ports: nil, ASN: 0, Country: ""},
		{ScanDate: 24, IP: netip.Addr{}, Ports: []uint16{25, 443, 465, 993, 65535}, ASN: math.MaxUint32, Country: "NL"},
		{ScanDate: 24, IP: v4, Ports: []uint16{25, 443, 465, 993, 65535}, ASN: 1, Country: "NL"},
		{ScanDate: 31, IP: v4, Ports: []uint16{25, 443, 465, 993, 0}, ASN: 1, Country: "N"},
		{ScanDate: 31, IP: v4, Ports: []uint16{25}, ASN: 1, Country: "NLX"},
		{ScanDate: 38, IP: v4, Ports: []uint16{443}, ASN: 1, Country: "GR"},
		{ScanDate: 38, IP: v4, Ports: nil, ASN: 1, Country: "GR"},
		{ScanDate: 38, IP: v4, Ports: nil, ASN: 1, Country: "GR"},
	}
	out["mixed"] = testWindow{mixed, []uint64{1, 1, 0, 3, 3, 2, 0, 1, 1, 0}}

	for _, n := range []int{1, recordSlab - 1, recordSlab, recordSlab + 1, 3*recordSlab + 4} {
		var window []*Record
		var idx []uint64
		for i := 0; i < n; i++ {
			rec := &Record{
				ScanDate: simtime.Date(7 * i), IP: netip.AddrFrom4([4]byte{10, 0, byte(i >> 8), byte(i)}),
				Ports: []uint16{443}, ASN: 64512, Country: "GR", CrtShID: int64(i), Trusted: true,
			}
			if i%40 == 39 { // the rare week a host moves
				rec.Ports, rec.Country = []uint16{443, 8443}, "MD"
			}
			window = append(window, rec)
			idx = append(idx, uint64(i%3)+1)
		}
		out[fmt.Sprintf("steady-%d", n)] = testWindow{window, idx}
	}
	return out
}

// TestDecodeWindowMatchesReference is the differential table: whole
// windows, every truncation of each, and the malformed values each check in
// the decoder exists for.
func TestDecodeWindowMatchesReference(t *testing.T) {
	certs, dirty := windowCerts(), &WindowCursor{}
	for name, tw := range testWindows() {
		value := encodeTestWindow(tw.window, tw.certIdx)
		got, err := decodeWindow(value, certs)
		if err != nil || len(got) != len(tw.window) {
			t.Fatalf("%s: decoded %d of %d records, err %v", name, len(got), len(tw.window), err)
		}
		for cut := 0; cut <= len(value); cut++ {
			sameDecode(t, fmt.Sprintf("%s[:%d]", name, cut), value[:cut], certs, dirty)
		}
		sameDecode(t, name+"+trailing", append(slices.Clone(value), 0), certs, dirty)
		sameDecode(t, name+" against an empty cert table", value, nil, dirty)
	}

	// One good record, then a second one malformed in each way the decoder
	// refuses. The good record must not come back beside the error.
	good := &Record{ScanDate: 10, IP: netip.MustParseAddr("192.0.2.7"), Ports: []uint16{443}, ASN: 1, Country: "GR"}
	bad := map[string]func(w *wire.Writer){
		"ip of five bytes": func(w *wire.Writer) { w.Int(17); w.Blob([]byte{1, 2, 3, 4, 5}) },
		"port past 65535":  func(w *wire.Writer) { w.Int(17); w.Blob(nil); w.Uvarint(2); w.Uvarint(443); w.Uvarint(65536) },
		"port count past the input": func(w *wire.Writer) {
			w.Int(17)
			w.Blob(nil)
			w.Uvarint(1 << 40)
		},
		"country past the input": func(w *wire.Writer) { w.Int(17); w.Blob(nil); w.Uvarint(0); w.Uvarint(1); w.Uvarint(1 << 30) },
		"cert index past the table": func(w *wire.Writer) {
			w.Int(17)
			w.Blob(nil)
			w.Uvarint(0)
			w.Uvarint(1)
			w.String("GR")
			w.Uvarint(4)
			w.Int(0)
			w.Bool(true)
			w.Bool(false)
		},
		"bool of two": func(w *wire.Writer) {
			w.Int(17)
			w.Blob(nil)
			w.Uvarint(0)
			w.Uvarint(1)
			w.String("GR")
			w.Uvarint(0)
			w.Int(0)
			w.Byte(2)
			w.Byte(0)
		},
		"overlong varint": func(w *wire.Writer) {
			*w = wire.NewWriter(append(w.Bytes(), 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01))
		},
	}
	for name, second := range bad {
		var w wire.Writer
		w.Uvarint(2)
		encodeRecord(&w, good, 1)
		second(&w)
		if _, err := refDecodeWindow(w.Bytes(), certs); !errors.Is(err, wire.ErrMalformed) {
			t.Fatalf("%s: the reference accepts it (%v); the case tests nothing", name, err)
		}
		sameDecode(t, name, w.Bytes(), certs, dirty)
	}
	sameDecode(t, "count past the input", []byte{200, 1}, certs, dirty)

	// Well-formed records out of date order: DomainRecords would binary
	// search them wrongly, so the window is refused whole.
	mixed := testWindows()["mixed"]
	unsorted := slices.Clone(mixed.window)
	unsorted[3], unsorted[7] = unsorted[7], unsorted[3]
	value := encodeTestWindow(unsorted, mixed.certIdx)
	if _, err := decodeWindow(value, certs); !errors.Is(err, wire.ErrMalformed) {
		t.Fatalf("out-of-order window decoded (%v)", err)
	}
	sameDecode(t, "out of date order", value, certs, dirty)
}

// FuzzDecodeWindow holds the same equality on arbitrary bytes.
func FuzzDecodeWindow(f *testing.F) {
	for _, tw := range testWindows() {
		if value := encodeTestWindow(tw.window, tw.certIdx); len(value) < 1<<10 {
			f.Add(value)
		}
	}
	certs, dirty := windowCerts(), &WindowCursor{}
	f.Fuzz(func(t *testing.T, value []byte) {
		sameDecode(t, "fuzz", value, certs, dirty)
	})
}

// TestDecodedWindowSharing pins what records of one window share and what
// they must not: an unchanged ports list or country is the previous
// record's, a changed one is its own, and an empty list stays nil.
func TestDecodedWindowSharing(t *testing.T) {
	tw := testWindows()["mixed"]
	got, err := decodeWindow(encodeTestWindow(tw.window, tw.certIdx), windowCerts())
	if err != nil {
		t.Fatal(err)
	}
	sharesPorts := func(i, j int) bool { return &got[i].Ports[0] == &got[j].Ports[0] }
	if !sharesPorts(0, 1) || !sharesPorts(3, 4) {
		t.Error("equal consecutive ports lists decoded into separate arrays")
	}
	if sharesPorts(4, 5) {
		t.Error("records with different ports share an array")
	}
	for _, i := range []int{2, 8, 9} {
		if got[i].Ports != nil {
			t.Errorf("record %d: empty ports list decoded as %v, want nil", i, got[i].Ports)
		}
	}
}

// TestDecodedWindowRetention keeps two records of a 100-record window and
// drops the rest. Records recordSlab apart must sit in different
// allocations — SetFinalizer only accepts the first word of one, so it
// doubles as the probe — and the slab between the two kept records must be
// collectable while they are still in use.
func TestDecodedWindowRetention(t *testing.T) {
	var window []*Record
	for i := 0; i < 100; i++ {
		window = append(window, &Record{
			ScanDate: simtime.Date(7 * i), IP: netip.AddrFrom4([4]byte{10, 0, 0, byte(i)}),
			Ports: []uint16{443}, ASN: 64512, Country: "GR",
		})
	}
	decoded, err := decodeWindow(encodeTestWindow(window, make([]uint64, len(window))), nil)
	if err != nil {
		t.Fatal(err)
	}
	freed := make(chan struct{})
	func() {
		defer func() {
			if p := recover(); p != nil {
				t.Fatalf("record %d does not start an allocation (%v): slabs are not bounded at recordSlab", recordSlab, p)
			}
		}()
		runtime.SetFinalizer(decoded[recordSlab], func(*Record) { close(freed) })
		// Only probes that record 2*recordSlab starts a third allocation.
		runtime.SetFinalizer(decoded[2*recordSlab], func(*Record) {})
		runtime.SetFinalizer(decoded[2*recordSlab], nil)
	}()
	first, third := decoded[0], decoded[2*recordSlab]
	decoded = nil
	deadline := time.After(10 * time.Second)
	for collected := false; !collected; {
		runtime.GC()
		select {
		case <-freed:
			collected = true
		case <-deadline:
			t.Fatal("the slab between two retained records was never collected")
		case <-time.After(10 * time.Millisecond):
		}
	}
	if first.ScanDate != 0 || third.ScanDate != simtime.Date(7*2*recordSlab) || third.Ports[0] != 443 {
		t.Fatalf("retained records damaged: %+v %+v", *first, *third)
	}
}

// ingestWindowCorpus loads the corpus the spilled-window tests read: 24
// domains of one to three hosts each, four weekly scans in each of the first
// three periods; with moves, a host answers on other ports from another
// country one week in five. One domain in four reports a three-letter
// country, which no static table of the decoder holds.
func ingestWindowCorpus(t *testing.T, d *Dataset, moves bool) {
	t.Helper()
	var dates []simtime.Date
	for p := simtime.Period(0); p < 3; p++ {
		dates = append(dates, simtime.ScansInPeriod(p)[:4]...)
	}
	for si, date := range dates {
		var recs []*Record
		for i := 0; i < 24; i++ {
			name := dnscore.Name(fmt.Sprintf("s%d.example", i))
			cert := mkCert(t, leKey, "Let's Encrypt", dates[0]-1, dates[len(dates)-1]+90, name)
			for h := 0; h < 1+i%3; h++ {
				rec := &Record{
					ScanDate: date, IP: netip.AddrFrom4([4]byte{10, byte(i), byte(h), 1}),
					Ports: []uint16{443}, ASN: 64512, Country: "GR", Cert: cert, Trusted: true,
				}
				if i%4 == 1 {
					rec.Country = "GRC"
				}
				if moves && (si+i)%5 == 0 {
					rec.Ports, rec.Country = []uint16{443, 8443}, "NL"
				}
				recs = append(recs, rec)
			}
		}
		if err := d.AddScan(date, recs); err != nil {
			t.Fatalf("AddScan: %v", err)
		}
	}
	d.Freeze()
}

// spilledWindowCorpus is ingestWindowCorpus with every shard on disk.
func spilledWindowCorpus(t *testing.T, shards int, moves bool) *Dataset {
	t.Helper()
	d := NewDatasetShards(shards)
	if err := d.ConfigureSpill(SpillOptions{Dir: t.TempDir(), BudgetBytes: 0}); err != nil {
		t.Fatal(err)
	}
	ingestWindowCorpus(t, d, moves)
	if d.SpilledShards() != shards {
		t.Fatalf("%d of %d shards spilled", d.SpilledShards(), shards)
	}
	return d
}

// TestSpilledWindowsSharedReadOnly reads the windows of one spilled shard
// from six goroutines at once — two through Dataset.DomainRecords, two
// through a ShardView and two through a cursor each — and requires every
// window to equal the resident dataset's. Under -race it is also the proof
// that nothing writes a decoded record, or the Ports array it shares with
// its neighbours, after the decoder returned it, and that a cursor writes
// nothing but its own slab.
func TestSpilledWindowsSharedReadOnly(t *testing.T) {
	resident := NewDatasetShards(1)
	ingestWindowCorpus(t, resident, true)
	domains := resident.Domains() // one shard: a domain's index is its rank
	want := map[dnscore.Name][]string{}
	for _, domain := range domains {
		for _, r := range resident.DomainRecords(domain, 0, 0) {
			want[domain] = append(want[domain], recordRow(r))
		}
	}

	spilled := spilledWindowCorpus(t, 1, true)
	view := spilled.ShardView(0)
	readers := []func(*WindowCursor, int) []*Record{
		func(_ *WindowCursor, i int) []*Record { return spilled.DomainRecords(domains[i], 0, 0) },
		func(_ *WindowCursor, i int) []*Record { return view.DomainRecords(domains[i], 0, 0) },
		func(cur *WindowCursor, i int) []*Record { cur.Seek(i); return cur.Records(0, 0) },
	}
	var wg sync.WaitGroup
	for g := 0; g < 2*len(readers); g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cur := view.Cursor()
			for pass := 0; pass < 20; pass++ {
				for k := range domains {
					i := (k + g*7) % len(domains)
					var got []string
					for _, r := range readers[g%len(readers)](cur, i) {
						got = append(got, recordRow(r))
					}
					if !slices.Equal(got, want[domains[i]]) {
						t.Errorf("reader %d: %s diverged from the resident window\n got %v\nwant %v", g, domains[i], got, want[domains[i]])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
