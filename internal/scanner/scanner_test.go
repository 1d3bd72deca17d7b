package scanner

import (
	"bytes"
	"errors"
	"fmt"
	"net/netip"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"retrodns/internal/ctlog"
	"retrodns/internal/dnscore"
	"retrodns/internal/ipmeta"
	"retrodns/internal/netsim"
	"retrodns/internal/simtime"
	"retrodns/internal/x509lite"
)

var (
	leKey   = x509lite.NewSigningKey("le", 1)
	corpKey = x509lite.NewSigningKey("corp", 2)
)

func mkCert(t *testing.T, key *x509lite.SigningKey, issuer string, from, to simtime.Date, sans ...dnscore.Name) *x509lite.Certificate {
	t.Helper()
	c := &x509lite.Certificate{
		Serial: uint64(from)*1000 + uint64(len(sans)), Subject: sans[0], SANs: sans,
		Issuer: issuer, NotBefore: from, NotAfter: to, Method: x509lite.ValidationDNS01,
	}
	key.Sign(c)
	return c
}

type fixture struct {
	scanner  *Scanner
	internet *netsim.Internet
	log      *ctlog.Log
	legit    *x509lite.Certificate
	evil     *x509lite.Certificate
	internal *x509lite.Certificate
}

var (
	legitIP = netip.MustParseAddr("84.205.248.69")
	evilIP  = netip.MustParseAddr("95.179.131.225")
)

func setup(t *testing.T) *fixture {
	t.Helper()
	internet := netsim.NewInternet()
	meta := ipmeta.NewDirectory()
	meta.Prefixes.MustAnnounce("84.205.0.0/16", 35506)
	meta.Prefixes.MustAnnounce("95.179.128.0/18", 20473)
	meta.Geo.MustAddPrefix("84.205.0.0/16", "GR")
	meta.Geo.MustAddPrefix("95.179.128.0/18", "NL")

	trust := x509lite.NewTrustStore()
	trust.Include(leKey, x509lite.ProgramApple, x509lite.ProgramMozilla)
	trust.Include(corpKey) // internal CA: registered, not browser-trusted

	log := ctlog.NewLog("sim", 1245068498)

	f := &fixture{internet: internet, log: log}
	f.legit = mkCert(t, leKey, "DigiCert Inc", 0, 400, "mail.kyvernisi.gr")
	f.evil = mkCert(t, leKey, "Let's Encrypt", 800, 890, "mail.kyvernisi.gr")
	f.internal = mkCert(t, corpKey, "Corp CA", 0, 2000, "intranet.kyvernisi.gr")
	for _, c := range []*x509lite.Certificate{f.legit, f.evil} {
		if _, err := log.Submit(c, c.NotBefore); err != nil {
			t.Fatal(err)
		}
	}

	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, port := range []uint16{443, 993, 995} {
		must(internet.Provision(netsim.Endpoint{Addr: legitIP, Port: port}, f.legit, 0, 400))
	}
	must(internet.Provision(netsim.Endpoint{Addr: evilIP, Port: 993}, f.evil, 805, 820))
	must(internet.Provision(netsim.Endpoint{Addr: legitIP, Port: 587}, f.internal, 0, 400))

	f.scanner = New(internet, meta, trust, log)
	return f
}

func TestScanWeekAnnotations(t *testing.T) {
	f := setup(t)
	records := f.scanner.ScanWeek(7)
	if len(records) != 2 {
		t.Fatalf("got %d records, want 2 (legit cert + internal cert)", len(records))
	}
	var legitRec, internalRec *Record
	for _, r := range records {
		switch r.Cert {
		case f.legit:
			legitRec = r
		case f.internal:
			internalRec = r
		}
	}
	if legitRec == nil || internalRec == nil {
		t.Fatal("expected records missing")
	}
	if got := legitRec.Ports; len(got) != 3 || got[0] != 443 || got[2] != 995 {
		t.Errorf("ports = %v", got)
	}
	if legitRec.ASN != 35506 || legitRec.Country != "GR" {
		t.Errorf("annotation = %v %v", legitRec.ASN, legitRec.Country)
	}
	if !legitRec.Trusted {
		t.Error("LE-signed record not trusted")
	}
	if legitRec.CrtShID != 1245068498 {
		t.Errorf("CrtShID = %d", legitRec.CrtShID)
	}
	if !legitRec.Sensitive {
		t.Error("mail.* not flagged sensitive")
	}
	if internalRec.Trusted {
		t.Error("internal CA record trusted")
	}
	if internalRec.CrtShID != 0 {
		t.Error("unlogged cert has a crt.sh ID")
	}
	if !internalRec.Sensitive {
		t.Error("intranet.* not flagged sensitive")
	}
}

func TestScanSeesTransientOnlyInWindow(t *testing.T) {
	f := setup(t)
	if recs := f.scanner.ScanWeek(805); len(recs) == 0 {
		t.Fatal("no records at 805")
	}
	found := func(date simtime.Date) bool {
		for _, r := range f.scanner.ScanWeek(date) {
			if r.Cert == f.evil {
				return true
			}
		}
		return false
	}
	// 805 is not a scan date necessarily; scan dates are multiples of 7.
	// The window [805,820) contains scans 805? 805%7=0 → yes 805 = 115*7.
	if !found(805) {
		t.Error("transient invisible during window")
	}
	if found(798) || found(826) {
		t.Error("transient visible outside window")
	}
}

func TestRunStudyDataset(t *testing.T) {
	f := setup(t)
	ds := f.scanner.RunStudy(0, 100)
	domains, records := ds.Size()
	if domains != 1 {
		t.Fatalf("domains = %d", domains)
	}
	if records == 0 {
		t.Fatal("no records")
	}
	if got := ds.Domains(); len(got) != 1 || got[0] != "kyvernisi.gr" {
		t.Fatalf("Domains = %v", got)
	}
	recs := ds.DomainRecords("kyvernisi.gr", 0, 100)
	if len(recs) == 0 {
		t.Fatal("no domain records")
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].ScanDate < recs[i-1].ScanDate {
			t.Fatal("records out of order")
		}
	}
	// Window filtering.
	if got := ds.DomainRecords("kyvernisi.gr", 50, 60); len(got) != 2 {
		t.Fatalf("windowed records = %d, want 2 (legit + internal on scan 56)", len(got))
	}
	if got := ds.ScanDates(0, 100); len(got) != len(simtime.ScanDates(0, 100)) {
		t.Fatalf("ScanDates = %d", len(got))
	}
	if got := ds.ScanDates(50, 60); len(got) != 1 {
		t.Fatalf("windowed ScanDates = %d", len(got))
	}
}

// TestFreezeIndexEquivalence ingests scans out of order and requires the
// frozen binary-search read paths to return exactly what the unfrozen
// filter+sort paths returned.
func TestFreezeIndexEquivalence(t *testing.T) {
	f := setup(t)
	ds := NewDataset()
	// Out-of-order ingest exercises the freeze-time sort.
	var dates []simtime.Date
	for d := simtime.Date(0); d < 100; d += 7 {
		dates = append(dates, d)
	}
	for i := len(dates) - 1; i >= 0; i-- {
		ds.AddScan(dates[i], f.scanner.ScanWeek(dates[i]))
	}

	type snapshot struct {
		domains []dnscore.Name
		periods []simtime.Period
		recs    [][]*Record
		scans   [][]simtime.Date
	}
	windows := []struct{ from, to simtime.Date }{
		{0, 0}, {0, 100}, {50, 60}, {56, 57}, {99, 0}, {200, 300},
	}
	capture := func() snapshot {
		s := snapshot{domains: append([]dnscore.Name(nil), ds.Domains()...)}
		s.periods = append([]simtime.Period(nil), ds.Periods()...)
		for _, d := range s.domains {
			for _, w := range windows {
				s.recs = append(s.recs, append([]*Record(nil), ds.DomainRecords(d, w.from, w.to)...))
			}
		}
		for _, w := range windows {
			s.scans = append(s.scans, append([]simtime.Date(nil), ds.ScanDates(w.from, w.to)...))
		}
		return s
	}

	before := capture()
	if ds.Frozen() {
		t.Fatal("dataset frozen before Freeze")
	}
	ds.Freeze()
	ds.Freeze() // idempotent
	if !ds.Frozen() {
		t.Fatal("dataset not frozen after Freeze")
	}
	after := capture()

	if !reflect.DeepEqual(before.domains, after.domains) {
		t.Errorf("Domains changed: %v vs %v", before.domains, after.domains)
	}
	if !reflect.DeepEqual(before.periods, after.periods) {
		t.Errorf("Periods changed: %v vs %v", before.periods, after.periods)
	}
	for i := range before.recs {
		if len(before.recs[i]) != len(after.recs[i]) {
			t.Fatalf("record window %d: %d vs %d records", i, len(before.recs[i]), len(after.recs[i]))
		}
		for j := range before.recs[i] {
			if before.recs[i][j] != after.recs[i][j] {
				t.Fatalf("record window %d entry %d differs", i, j)
			}
		}
	}
	for i := range before.scans {
		// Unfrozen ScanDates preserves (here: reversed) ingest order;
		// frozen returns sorted — compare as sets of equal length.
		sort.Slice(before.scans[i], func(a, b int) bool { return before.scans[i][a] < before.scans[i][b] })
		if !reflect.DeepEqual(before.scans[i], after.scans[i]) {
			t.Errorf("scan window %d: %v vs %v", i, before.scans[i], after.scans[i])
		}
	}
}

func TestFrozenAddScanPanics(t *testing.T) {
	f := setup(t)
	ds := f.scanner.RunStudy(0, 30)
	ds.Freeze()
	defer func() {
		if recover() == nil {
			t.Error("AddScan on frozen dataset did not panic")
		}
	}()
	ds.AddScan(1000, nil)
}

// TestDatasetConcurrentReads hammers every frozen read path from many
// goroutines; run under -race by the ci target.
func TestDatasetConcurrentReads(t *testing.T) {
	f := setup(t)
	ds := f.scanner.RunStudy(0, 200)
	ds.Freeze()
	domains := ds.Domains()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				d := domains[(g+i)%len(domains)]
				from := simtime.Date(i % 150)
				recs := ds.DomainRecords(d, from, from+50)
				for k := 1; k < len(recs); k++ {
					if recs[k].ScanDate < recs[k-1].ScanDate {
						t.Error("records out of order")
						return
					}
				}
				_ = ds.ScanDates(from, from+50)
				_ = ds.Domains()
				_ = ds.Periods()
				if n, _ := ds.Size(); n == 0 {
					t.Error("empty size")
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestAppendEquivalence requires Append-fed datasets to index records
// exactly like bulk AddScan + Freeze, in forward and reverse ingest order.
func TestAppendEquivalence(t *testing.T) {
	f := setup(t)
	var dates []simtime.Date
	for d := simtime.Date(0); d < 200; d += 7 {
		dates = append(dates, d)
	}
	scans := make(map[simtime.Date][]*Record, len(dates))
	for _, d := range dates {
		scans[d] = f.scanner.ScanWeek(d)
	}

	bulk := NewDataset()
	for _, d := range dates {
		bulk.AddScan(d, scans[d])
	}
	bulk.Freeze()

	// Half bulk-ingested, half appended.
	half := NewDataset()
	mid := len(dates) / 2
	for _, d := range dates[:mid] {
		half.AddScan(d, scans[d])
	}
	for _, d := range dates[mid:] {
		half.Append(d, scans[d])
	}

	// Fully appended, newest scan first: every merge is out of order.
	reverse := NewDataset()
	for i := len(dates) - 1; i >= 0; i-- {
		reverse.Append(dates[i], scans[dates[i]])
	}

	// Appended in order, each batch's barrier failing once first: the failed
	// attempt must move nothing a reader can observe, and leave a dataset that
	// takes the same batch again as if it had never been offered.
	clean, retried := NewDataset(), NewDataset()
	clean.Freeze()
	retried.Freeze()
	errBarrier := errors.New("log device gone")
	for _, d := range dates {
		if err := clean.Append(d, scans[d]); err != nil {
			t.Fatal(err)
		}
		before := datasetFingerprint(t, retried)
		calls := 0
		err := retried.AppendAfter(d, scans[d], func() error { calls++; return errBarrier })
		if !errors.Is(err, errBarrier) || calls != 1 {
			t.Fatalf("AppendAfter(%s) = %v after %d barrier calls, want the barrier's error after 1", d, err, calls)
		}
		if after := datasetFingerprint(t, retried); !reflect.DeepEqual(before, after) {
			t.Fatalf("failed barrier at %s moved observable state:\nbefore %v\nafter  %v", d, before, after)
		}
		if err := retried.Append(d, scans[d]); err != nil {
			t.Fatal(err)
		}
	}
	var cleanSnap, retriedSnap bytes.Buffer
	if err := errors.Join(clean.EncodeSnapshot(&cleanSnap), retried.EncodeSnapshot(&retriedSnap)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cleanSnap.Bytes(), retriedSnap.Bytes()) {
		t.Error("snapshot after failed barriers differs from one that never saw a failure")
	}

	for name, ds := range map[string]*Dataset{"half-appended": half, "reverse-appended": reverse, "barrier-retried": retried} {
		if !ds.Frozen() {
			t.Fatalf("%s: not frozen after Append", name)
		}
		if !reflect.DeepEqual(ds.Domains(), bulk.Domains()) {
			t.Errorf("%s: Domains = %v, want %v", name, ds.Domains(), bulk.Domains())
		}
		if !reflect.DeepEqual(ds.Periods(), bulk.Periods()) {
			t.Errorf("%s: Periods = %v, want %v", name, ds.Periods(), bulk.Periods())
		}
		if !reflect.DeepEqual(ds.ScanDates(0, 0), bulk.ScanDates(0, 0)) {
			t.Errorf("%s: ScanDates differ", name)
		}
		gd, gr := ds.Size()
		wd, wr := bulk.Size()
		if gd != wd || gr != wr {
			t.Errorf("%s: Size = (%d,%d), want (%d,%d)", name, gd, gr, wd, wr)
		}
		for _, domain := range bulk.Domains() {
			for _, w := range []struct{ from, to simtime.Date }{{0, 0}, {0, 100}, {50, 60}, {100, 0}} {
				got := ds.DomainRecords(domain, w.from, w.to)
				want := bulk.DomainRecords(domain, w.from, w.to)
				if len(got) != len(want) {
					t.Fatalf("%s: %s window [%d,%d): %d records, want %d", name, domain, w.from, w.to, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s: %s window [%d,%d) entry %d differs", name, domain, w.from, w.to, i)
					}
				}
			}
		}
	}
}

// TestAppendDirtyTracking pins the generation counter and the DirtySince
// journal semantics the incremental pipeline relies on.
func TestAppendDirtyTracking(t *testing.T) {
	f := setup(t)
	ds := NewDataset()
	if ds.Generation() != 0 {
		t.Fatalf("unfrozen generation = %d", ds.Generation())
	}
	ds.AddScan(0, f.scanner.ScanWeek(0))
	ds.Freeze()
	if ds.Generation() != 1 {
		t.Fatalf("frozen generation = %d", ds.Generation())
	}
	cells, periods := ds.DirtySince(0)
	if len(cells) != 0 || len(periods) != 0 {
		t.Fatalf("freeze journaled dirt: cells=%v periods=%v", cells, periods)
	}

	ds.Append(7, f.scanner.ScanWeek(7))
	if ds.Generation() != 2 {
		t.Fatalf("generation after Append = %d", ds.Generation())
	}
	cells, periods = ds.DirtySince(1)
	if len(cells) != 1 || cells[0] != (DirtyCell{Domain: "kyvernisi.gr", Period: 0}) {
		t.Fatalf("dirty cells = %v", cells)
	}
	if len(periods) != 1 || periods[0] != 0 {
		t.Fatalf("dirty periods = %v", periods)
	}

	// An empty scan dirties the period's roster but no cell.
	ds.Append(14, nil)
	cells, periods = ds.DirtySince(2)
	if len(cells) != 0 {
		t.Fatalf("empty append dirtied cells: %v", cells)
	}
	if len(periods) != 1 || periods[0] != 0 {
		t.Fatalf("empty append dirty periods = %v", periods)
	}

	// The journal accumulates across generations and filters by gen.
	cells, _ = ds.DirtySince(1)
	if len(cells) != 1 {
		t.Fatalf("DirtySince(1) cells = %v", cells)
	}
	if cells, periods = ds.DirtySince(ds.Generation()); len(cells) != 0 || len(periods) != 0 {
		t.Fatalf("DirtySince(current) = %v, %v", cells, periods)
	}

	// DirtySince is derived from the shard indexes; it must list what the
	// journal it replaced listed, cell for cell and in the same order, over
	// several shards, new domains, out-of-order scans, refused records and a
	// failed barrier.
	multi := NewDatasetShards(3)
	if err := multi.AddScan(7, bigBatch(t, 7, 300)); err != nil {
		t.Fatal(err)
	}
	multi.Freeze()
	ref := cellJournal{}
	requireJournal := func(step string) {
		t.Helper()
		for gen := uint64(0); gen <= multi.Generation(); gen++ {
			got, _ := multi.DirtySince(gen)
			if want := ref.since(gen); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: DirtySince(%d) lists %d cells, the map journal %d:\n got %v\nwant %v", step, gen, len(got), len(want), got, want)
			}
		}
	}
	requireJournal("after freeze")
	_, refused := badBatch(14)
	late := bigBatch(t, simtime.DaysPerPeriod+7, 400) // period 1; domains big00151.. are new
	early := bigBatch(t, 0, 120)                      // sorts before everything ingested
	for _, b := range []struct {
		date    simtime.Date
		records []*Record
		fail    bool
	}{
		{14, refused, false}, {simtime.DaysPerPeriod + 7, late, false}, {21, nil, false},
		{0, early, true}, {0, early, false}, {28, bigBatch(t, 28, 40), false},
	} {
		step := fmt.Sprintf("append %s (fail=%v)", b.date, b.fail)
		if b.fail {
			if err := multi.AppendAfter(b.date, b.records, func() error { return errors.New("no") }); err == nil {
				t.Fatalf("%s: failed barrier returned nil", step)
			}
		} else {
			if err := multi.Append(b.date, b.records); err != nil {
				t.Fatalf("%s: %v", step, err)
			}
			ref.append(multi.Generation(), b.records)
		}
		requireJournal(step)
	}
	if cells, _ := multi.DirtySince(0); len(cells) < 250 {
		t.Fatalf("journal holds %d cells: the comparison covered too little", len(cells))
	}
}

// cellJournal is the dirty journal the way it was kept before the shard
// indexes carried it: one map entry per cell, written for every routed
// record, listed by collecting and sorting.
type cellJournal map[DirtyCell]uint64

func (j cellJournal) append(gen uint64, records []*Record) {
	for _, r := range records {
		if _, _, ok := validateRecord(r); !ok {
			continue
		}
		for _, san := range r.Cert.SANs {
			if apex := san.RegisteredDomain(); apex != "" {
				j[DirtyCell{apex, simtime.PeriodOf(r.ScanDate)}] = gen
			}
		}
	}
}

func (j cellJournal) since(gen uint64) []DirtyCell {
	var cells []DirtyCell
	for c, g := range j {
		if g > gen {
			cells = append(cells, c)
		}
	}
	sort.Slice(cells, func(a, b int) bool {
		if cells[a].Domain != cells[b].Domain {
			return cells[a].Domain < cells[b].Domain
		}
		return cells[a].Period < cells[b].Period
	})
	return cells
}

// TestAppendConcurrentReads interleaves Append with readers hammering the
// lock-free read paths; run under -race by the ci target. Readers must
// always observe a consistent snapshot: sorted windows, sizes that never
// shrink.
func TestAppendConcurrentReads(t *testing.T) {
	f := setup(t)
	ds := NewDataset()
	ds.Append(0, f.scanner.ScanWeek(0))
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			prevRecords := 0
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				recs := ds.DomainRecords("kyvernisi.gr", 0, 0)
				for k := 1; k < len(recs); k++ {
					if recs[k].ScanDate < recs[k-1].ScanDate {
						t.Error("records out of order")
						return
					}
				}
				dates := ds.ScanDates(0, 0)
				for k := 1; k < len(dates); k++ {
					if dates[k] < dates[k-1] {
						t.Error("scan dates out of order")
						return
					}
				}
				_ = ds.Domains()
				_ = ds.Periods()
				_, nr := ds.Size()
				if nr < prevRecords {
					t.Errorf("record count shrank: %d -> %d", prevRecords, nr)
					return
				}
				prevRecords = nr
			}
		}(g)
	}
	for d := simtime.Date(7); d < 400; d += 7 {
		ds.Append(d, f.scanner.ScanWeek(d))
	}
	close(stop)
	wg.Wait()

	// A blocked barrier. While AppendAfter waits in it the batch is staged but
	// must be invisible: every reader that does see it — lock-free, through a
	// view taken meanwhile, or through the locked DirtySince — must find the
	// barrier already released, and a view pinned beforehand never sees it.
	const domain = "kyvernisi.gr"
	batch := f.scanner.ScanWeek(812) // the transient, in a period of its own
	if len(batch) == 0 {
		t.Fatal("empty batch")
	}
	gen := ds.Generation()
	pinned := ds.ShardViewFor(domain)
	rank := sort.Search(len(pinned.Domains()), func(i int) bool { return pinned.Domains()[i] >= domain })
	oldWindow := len(pinned.DomainRecords(domain, 0, 0))
	entered, release := make(chan struct{}), make(chan struct{})
	var released atomic.Bool
	appended := make(chan error, 1)
	go func() {
		appended <- ds.AppendAfter(812, batch, func() error {
			close(entered)
			<-release
			released.Store(true)
			return nil
		})
	}()
	<-entered
	// sawBatch reports what one read saw; the flag is loaded after the read, so
	// a read that saw the batch before the release is caught.
	check := func(what string, sawBatch bool) {
		if sawBatch && !released.Load() {
			t.Errorf("%s showed the batch while its barrier was blocked", what)
		}
	}
	var reads atomic.Int64
	stop = make(chan struct{})
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				check("Generation", ds.Generation() != gen)
				check("DomainRecords", len(ds.DomainRecords(domain, 0, 0)) != oldWindow)
				v := ds.ShardViewFor(domain)
				check("a fresh ShardView", len(v.DomainRecords(domain, 0, 0)) != oldWindow || v.DirtyMask(rank, gen) != 0)
				check("ScanDates", len(ds.ScanDates(812, 813)) != 0)
				if len(pinned.DomainRecords(domain, 0, 0)) != oldWindow || pinned.DirtyMask(rank, gen) != 0 {
					t.Error("a pinned ShardView moved")
				}
				reads.Add(1)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Blocks on the dataset lock for as long as the barrier does.
		cells, periods := ds.DirtySince(gen)
		check("DirtySince", len(cells) != 0 || len(periods) != 0)
	}()
	for reads.Load() < 200 {
		runtime.Gosched()
	}
	close(release)
	if err := <-appended; err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	cells, periods := ds.DirtySince(gen)
	if ds.Generation() != gen+1 || len(ds.DomainRecords(domain, 0, 0)) != oldWindow+len(batch) ||
		len(cells) != 1 || len(periods) != 1 || ds.ShardViewFor(domain).DirtyMask(rank, gen) == 0 {
		t.Fatalf("released batch not published: gen %d (was %d), window %d (was %d), dirty %v %v",
			ds.Generation(), gen, len(ds.DomainRecords(domain, 0, 0)), oldWindow, cells, periods)
	}
	if len(pinned.DomainRecords(domain, 0, 0)) != oldWindow || pinned.DirtyMask(rank, gen) != 0 {
		t.Error("the pinned ShardView sees the published batch")
	}
}

func TestIsSensitiveName(t *testing.T) {
	cases := []struct {
		name dnscore.Name
		want bool
	}{
		{"mail.mfa.gov.kg", true},
		{"advpn.adpolice.gov.ae", true},
		{"dnsnodeapi.netnod.se", true}, // "api" substring
		{"www.example.com", false},
		{"example.com", false},
		{"webmail.gov.cy", true}, // suffix-child domain, sensitive label
		{"kyvernisi.gr", false},  // registered domain, benign label
		{"mail2010.kotc.com.kw", true},
		{"memail.mea.com.lb", true},
		{"personal.govcloud.gov.cy", true}, // "cloud" in the domain part? No: sub is "personal.", apex govcloud.gov.cy
		{"com", false},
	}
	for _, c := range cases {
		if got := IsSensitiveName(c.name); got != c.want {
			t.Errorf("IsSensitiveName(%s) = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestRecordString(t *testing.T) {
	f := setup(t)
	records := f.scanner.ScanWeek(7)
	s := records[0].String()
	for _, want := range []string{"84.205.248.69", "35506", "GR"} {
		if !strings.Contains(s, want) {
			t.Errorf("record string missing %q: %s", want, s)
		}
	}
	if len(records[0].Names()) == 0 {
		t.Error("Names empty")
	}
}
