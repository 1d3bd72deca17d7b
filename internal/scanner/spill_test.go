package scanner

import (
	"bytes"
	"errors"
	"fmt"
	"net/netip"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"retrodns/internal/dnscore"
	"retrodns/internal/obsv"
	"retrodns/internal/segment"
	"retrodns/internal/simtime"
	"retrodns/internal/wire"
)

// tightBudget picks a budget that forces roughly half the spillable
// payload (record structs + index slots; pools and domain entries stay
// resident by design) out of memory — a guaranteed partial spill.
func tightBudget(d *Dataset) int64 {
	_, records := d.Size()
	return d.EstimatedBytes() - int64(records)*estSpilledPerAttach/2
}

// TestSpillInvarianceScanner proves the core contract at the dataset
// level: every public read — windows, journals, sizes — is identical for
// any mix of resident and spilled shards, across ingest orders.
func TestSpillInvarianceScanner(t *testing.T) {
	for _, shards := range []int{1, 8} {
		want := datasetFingerprint(t, persistCorpus(t, shards))
		for _, mode := range []segment.Mode{segment.ModeAuto, segment.ModeStream} {
			for _, budget := range []int64{-1, 0, 1} {
				d := NewDatasetShards(shards)
				if err := d.ConfigureSpill(SpillOptions{Dir: t.TempDir(), BudgetBytes: budget, Mode: mode}); err != nil {
					t.Fatalf("ConfigureSpill: %v", err)
				}
				ingestPersistCorpus(t, d)
				if budget >= 0 && d.SpilledShards() == 0 {
					t.Fatalf("shards=%d budget=%d: nothing spilled", shards, budget)
				}
				if budget < 0 && d.SpilledShards() != 0 {
					t.Fatalf("shards=%d unlimited budget spilled %d shards", shards, d.SpilledShards())
				}
				have := datasetFingerprint(t, d)
				if !reflect.DeepEqual(want, have) {
					t.Fatalf("shards=%d budget=%d mode=%v diverged:\nwant %v\nhave %v",
						shards, budget, mode, want, have)
				}
			}
		}
	}
}

// TestSpillAfterFreeze spills an already-built corpus (the ConfigureSpill-
// on-frozen path) and checks the budget arithmetic: a half-estimate budget
// must spill some but not all shards, and the resident estimate must land
// at or under it.
func TestSpillAfterFreeze(t *testing.T) {
	d := persistCorpus(t, 8)
	want := datasetFingerprint(t, d)
	budget := tightBudget(d)
	if err := d.ConfigureSpill(SpillOptions{Dir: t.TempDir(), BudgetBytes: budget}); err != nil {
		t.Fatalf("ConfigureSpill: %v", err)
	}
	n := d.SpilledShards()
	if n == 0 || n >= d.Shards() {
		t.Fatalf("half-budget spilled %d of %d shards", n, d.Shards())
	}
	resident, spilled := d.SpillStats()
	if resident > budget {
		t.Fatalf("resident estimate %d over budget %d", resident, budget)
	}
	if spilled <= 0 {
		t.Fatalf("spilled estimate %d", spilled)
	}
	if have := datasetFingerprint(t, d); !reflect.DeepEqual(want, have) {
		t.Fatalf("partial spill diverged:\nwant %v\nhave %v", want, have)
	}
}

// TestSpillUnspillOnAppend checks the write path: appending into a spilled
// shard replays it back to memory first, the new records land, and the
// budget re-spills afterwards.
func TestSpillUnspillOnAppend(t *testing.T) {
	reg := obsv.NewRegistry()
	d := NewDatasetShards(8)
	d.SetMetrics(reg)
	if err := d.ConfigureSpill(SpillOptions{Dir: t.TempDir(), BudgetBytes: 0}); err != nil {
		t.Fatal(err)
	}
	ingestPersistCorpus(t, d)
	before := d.SpilledShards()
	if before == 0 {
		t.Fatal("zero budget spilled nothing")
	}

	next := simtime.ScanDates(0, 60)[3]
	cert := mkCert(t, leKey, "Let's Encrypt", next-1, next+90, "d0.example")
	rec := &Record{
		ScanDate: next, IP: netip.MustParseAddr("10.9.9.9"), Ports: []uint16{443},
		ASN: 64512, Country: "GR", Cert: cert, Trusted: true,
	}
	if err := d.Append(next, []*Record{rec}); err != nil {
		t.Fatalf("Append into spilled shard: %v", err)
	}
	if d.SpilledShards() != before {
		t.Fatalf("zero budget left %d shards spilled, want %d", d.SpilledShards(), before)
	}
	window := d.DomainRecords("d0.example", 0, 0)
	if len(window) == 0 || window[len(window)-1].ScanDate != next {
		t.Fatalf("appended record not served from re-spilled shard: %v", window)
	}
	metrics := map[string]int64{}
	for _, s := range reg.Snapshot() {
		metrics[s.Name] = metrics[s.Name] + s.Value
	}
	if metrics[MetricSegmentUnspills] == 0 {
		t.Fatal("no unspill counted")
	}
	if metrics[MetricSegmentReads] == 0 {
		t.Fatal("no segment reads counted")
	}
	if metrics[MetricCorpusSpilledBytes] == 0 || metrics[MetricCorpusSpilledShards] != int64(before) {
		t.Fatalf("residency gauges: %v", metrics)
	}
	if metrics[MetricCorpusResidentBytes]+metrics[MetricCorpusSpilledBytes] != metrics[MetricCorpusBytes] {
		t.Fatalf("resident+spilled != total: %v", metrics)
	}
}

// TestSpillSnapshotV2 round-trips an out-of-core dataset through a
// snapshot: spilled shards serialize as segment references and decode
// still spilled, with every read identical. A decoder without a segment
// store must refuse the references with a typed error, and a fully
// resident dataset must emit the same bytes, one inline segment image per
// shard, whether or not an idle spill is configured.
func TestSpillSnapshotV2(t *testing.T) {
	dir := t.TempDir()
	d := NewDatasetShards(8)
	if err := d.ConfigureSpill(SpillOptions{Dir: dir, BudgetBytes: 0}); err != nil {
		t.Fatal(err)
	}
	ingestPersistCorpus(t, d)
	want := datasetFingerprint(t, d)

	var buf bytes.Buffer
	if err := d.EncodeSnapshot(&buf); err != nil {
		t.Fatalf("encode: %v", err)
	}
	if bytes.Contains(buf.Bytes(), []byte("RDSG")) {
		t.Fatal("spilled snapshot holds an inline shard image")
	}
	if _, err := DecodeSnapshot(buf.Bytes()); err == nil {
		t.Fatal("decode of segment references without a store succeeded")
	} else if !errors.Is(err, ErrSnapshotState) {
		t.Fatalf("untyped refusal of segment references: %v", err)
	}
	got, err := DecodeSnapshotSpill(buf.Bytes(), SpillOptions{Dir: dir, BudgetBytes: 0})
	if err != nil {
		t.Fatalf("DecodeSnapshotSpill: %v", err)
	}
	if got.SpilledShards() != d.SpilledShards() {
		t.Fatalf("restored %d spilled shards, want %d", got.SpilledShards(), d.SpilledShards())
	}
	if have := datasetFingerprint(t, got); !reflect.DeepEqual(want, have) {
		t.Fatalf("spilled round trip diverged:\nwant %v\nhave %v", want, have)
	}
	// Restored datasets keep ingesting under the same budget.
	next := simtime.ScanDates(0, 60)[3]
	cert := mkCert(t, leKey, "Let's Encrypt", next-1, next+90, "fresh.example")
	if err := got.Append(next, []*Record{{
		ScanDate: next, IP: netip.MustParseAddr("10.9.9.9"), Ports: []uint16{443},
		ASN: 64512, Country: "GR", Cert: cert, Trusted: true,
	}}); err != nil {
		t.Fatalf("Append on restored: %v", err)
	}
	if len(got.DomainRecords("fresh.example", 0, 0)) != 1 {
		t.Fatal("appended record not indexed")
	}

	// Resident corpus + spill configured (unlimited): the same bytes.
	plain := persistCorpus(t, 8)
	var resident bytes.Buffer
	if err := plain.EncodeSnapshot(&resident); err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(resident.Bytes(), []byte("RDSG")); n != 8 {
		t.Fatalf("resident snapshot holds %d inline shard images, want 8", n)
	}
	idle := NewDatasetShards(8)
	if err := idle.ConfigureSpill(SpillOptions{Dir: t.TempDir(), BudgetBytes: -1}); err != nil {
		t.Fatal(err)
	}
	ingestPersistCorpus(t, idle)
	var idleBuf bytes.Buffer
	if err := idle.EncodeSnapshot(&idleBuf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resident.Bytes(), idleBuf.Bytes()) {
		t.Fatal("resident dataset with idle spill did not emit the resident bytes")
	}
}

// TestSpillV1SnapshotUnderBudget decodes a snapshot of a resident dataset,
// every shard an inline image, through DecodeSnapshotSpill with a zero
// budget: the corpus must come back fully spilled and identical, and each
// segment file the budget sealed must hold the very bytes of the image the
// snapshot carried inline for that shard.
func TestSpillV1SnapshotUnderBudget(t *testing.T) {
	d := persistCorpus(t, 8)
	want := datasetFingerprint(t, d)
	var buf bytes.Buffer
	if err := d.EncodeSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	got, err := DecodeSnapshotSpill(buf.Bytes(), SpillOptions{Dir: dir, BudgetBytes: 0})
	if err != nil {
		t.Fatalf("DecodeSnapshotSpill(resident): %v", err)
	}
	if got.SpilledShards() == 0 {
		t.Fatal("zero budget left everything resident")
	}
	if have := datasetFingerprint(t, got); !reflect.DeepEqual(want, have) {
		t.Fatalf("resident-under-budget diverged:\nwant %v\nhave %v", want, have)
	}
	for sid, s := range d.shards {
		idx := s.idx.Load()
		if len(idx.domains) == 0 {
			continue
		}
		var b imageBuffers
		shardSegment(&b, sid, d.Generation(), idx)
		image, err := b.seg.AppendTo(nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Contains(buf.Bytes(), image) {
			t.Fatalf("shard %d: snapshot does not carry its segment image inline", sid)
		}
		sealed, err := os.ReadFile(filepath.Join(dir, segment.SegName(sid, d.Generation())))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(sealed, image) {
			t.Fatalf("shard %d: sealed segment (%d bytes) differs from the inline image (%d bytes)", sid, len(sealed), len(image))
		}
	}
}

// TestSpillSegmentLossSurfacesTyped deletes a sealed segment file out from
// under a snapshot reference: decode must refuse with ErrSpill, not panic.
func TestSpillSegmentLossSurfacesTyped(t *testing.T) {
	dir := t.TempDir()
	d := NewDatasetShards(4)
	if err := d.ConfigureSpill(SpillOptions{Dir: dir, BudgetBytes: 0}); err != nil {
		t.Fatal(err)
	}
	ingestPersistCorpus(t, d)
	var buf bytes.Buffer
	if err := d.EncodeSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeSnapshotSpill(buf.Bytes(), SpillOptions{Dir: t.TempDir(), BudgetBytes: 0}); !errors.Is(err, ErrSpill) {
		t.Fatalf("decode against empty store = %v, want ErrSpill", err)
	}
}

// pinnedViewFixture is the zero-budget persist corpus in one read mode, the
// shard view owning d0.example pinned, and what that view reads.
type pinnedViewFixture struct {
	d    *Dataset
	reg  *obsv.Registry
	dir  string
	view ShardView
	want map[dnscore.Name][]string
}

func newPinnedViewFixture(t *testing.T, mode segment.Mode) *pinnedViewFixture {
	t.Helper()
	fx := &pinnedViewFixture{d: NewDatasetShards(8), reg: obsv.NewRegistry(), dir: t.TempDir()}
	fx.d.SetMetrics(fx.reg)
	if err := fx.d.ConfigureSpill(SpillOptions{Dir: fx.dir, BudgetBytes: 0, Mode: mode}); err != nil {
		t.Fatal(err)
	}
	ingestPersistCorpus(t, fx.d)
	fx.view = fx.d.ShardViewFor("d0.example")
	fx.want = viewWindows(fx.view)
	if len(fx.want) < 2 || len(fx.want["d0.example"]) != 3 {
		t.Fatalf("pinned view holds %v; want d0.example and a neighbour, three records each", fx.want)
	}
	return fx
}

// viewWindows reads every window of the view's shard.
func viewWindows(v ShardView) map[dnscore.Name][]string {
	out := map[dnscore.Name][]string{}
	for _, domain := range v.Domains() {
		for _, r := range v.DomainRecords(domain, 0, 0) {
			out[domain] = append(out[domain], recordRow(r))
		}
	}
	return out
}

// appendToD0 appends one record for d0.example at the i-th scan date past
// the corpus: under the zero budget that unspills d0's shard and reseals it.
func (fx *pinnedViewFixture) appendToD0(t *testing.T, i int) {
	t.Helper()
	date := simtime.ScanDates(0, 120)[3+i]
	cert := mkCert(t, leKey, "Let's Encrypt", date-1, date+90, "d0.example")
	if err := fx.d.Append(date, []*Record{{
		ScanDate: date, IP: netip.MustParseAddr("10.9.9.9"), Ports: []uint16{443},
		ASN: 64512, Country: "GR", Cert: cert, Trusted: true,
	}}); err != nil {
		t.Fatalf("Append: %v", err)
	}
}

func (fx *pinnedViewFixture) readErrors() int64 {
	var n int64
	for _, s := range fx.reg.Snapshot() {
		if s.Name == MetricSegmentReadErrors {
			n += s.Value
		}
	}
	return n
}

// TestPinnedViewSurvivesUnspill holds ShardView to its contract across the
// one event that used to break it: an Append that unspills the view's shard
// closed the segment reader the pinned index still read through, and every
// domain but the memoized one came back empty with a read error counted.
func TestPinnedViewSurvivesUnspill(t *testing.T) {
	for _, mode := range []segment.Mode{segment.ModeAuto, segment.ModeStream} {
		t.Run(mode.String(), func(t *testing.T) {
			fx := newPinnedViewFixture(t, mode)
			fx.appendToD0(t, 0)
			if got := viewWindows(fx.view); !reflect.DeepEqual(got, fx.want) {
				t.Fatalf("pinned view changed under an unspilling Append:\n got %v\nwant %v", got, fx.want)
			}
			if n := fx.readErrors(); n != 0 {
				t.Fatalf("%s = %d", MetricSegmentReadErrors, n)
			}
			if got := len(fx.d.DomainRecords("d0.example", 0, 0)); got != 4 {
				t.Fatalf("live dataset serves %d records for d0.example, want 4", got)
			}
		})
	}
}

// cursorWindows is viewWindows through a cursor of the caller's own.
func cursorWindows(v ShardView) map[dnscore.Name][]string {
	out := map[dnscore.Name][]string{}
	cur := v.Cursor()
	for i, domain := range v.Domains() {
		cur.Seek(i)
		for _, r := range cur.Records(0, 0) {
			out[domain] = append(out[domain], recordRow(r))
		}
	}
	return out
}

// TestPinnedViewReadsDuringUnspill is the same contract with the readers in
// flight: one goroutine loops over the pinned view through DomainRecords and
// four more through a cursor each, while the shard is unspilled and resealed
// five times under them.
func TestPinnedViewReadsDuringUnspill(t *testing.T) {
	for _, mode := range []segment.Mode{segment.ModeAuto, segment.ModeStream} {
		t.Run(mode.String(), func(t *testing.T) {
			fx := newPinnedViewFixture(t, mode)
			readers := []func(ShardView) map[dnscore.Name][]string{viewWindows, cursorWindows, cursorWindows, cursorWindows, cursorWindows}
			stop := make(chan struct{})
			done := make(chan error, len(readers))
			var started sync.WaitGroup
			started.Add(len(readers))
			for g, read := range readers {
				go func() {
					for reads := 0; ; reads++ {
						select {
						case <-stop:
							done <- nil
							return
						default:
						}
						got := read(fx.view)
						if reads == 0 {
							started.Done()
						}
						if !reflect.DeepEqual(got, fx.want) {
							done <- fmt.Errorf("reader %d, read %d through the pinned view:\n got %v\nwant %v", g, reads, got, fx.want)
							return
						}
					}
				}()
			}
			// Every reader is past its first pass before the shard moves.
			started.Wait()
			for i := 0; i < 5; i++ {
				fx.appendToD0(t, i)
			}
			close(stop)
			for range readers {
				if err := <-done; err != nil {
					t.Error(err)
				}
			}
			if n := fx.readErrors(); n != 0 {
				t.Fatalf("%s = %d", MetricSegmentReadErrors, n)
			}
		})
	}
}

// TestUnspilledSegmentReleasedWithLastView checks the other half of the
// reader's lifetime: what unspill no longer closes is closed once no index
// snapshot references it. Descriptors are counted the Linux way.
func TestUnspilledSegmentReleasedWithLastView(t *testing.T) {
	openSegments := func(dir string) int {
		entries, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skipf("no /proc/self/fd: %v", err)
		}
		n := 0
		for _, e := range entries {
			if target, err := os.Readlink("/proc/self/fd/" + e.Name()); err == nil && strings.HasPrefix(target, dir) {
				n++
			}
		}
		return n
	}
	// settles collects until exactly want segments are open, or gives up.
	settles := func(dir string, want, tries int) bool {
		for try := 0; try < tries; try++ {
			runtime.GC()
			if openSegments(dir) == want {
				return true
			}
			time.Sleep(5 * time.Millisecond)
		}
		return false
	}
	for _, mode := range []segment.Mode{segment.ModeAuto, segment.ModeStream} {
		t.Run(mode.String(), func(t *testing.T) {
			fx := newPinnedViewFixture(t, mode)
			live := fx.d.SpilledShards()
			// The corpus's own two Appends each unspilled and resealed shards.
			if !settles(fx.dir, live, 400) {
				t.Fatalf("%d segments open for %d spilled shards", openSegments(fx.dir), live)
			}
			fx.appendToD0(t, 0)
			if settles(fx.dir, live, 10) {
				t.Fatal("the segment a pinned view reads through was released")
			}
			if got := openSegments(fx.dir); got != live+1 {
				t.Fatalf("%d segments open with one unspilled segment pinned, want %d", got, live+1)
			}
			if got := viewWindows(fx.view); !reflect.DeepEqual(got, fx.want) {
				t.Fatalf("pinned view changed:\n got %v\nwant %v", got, fx.want)
			}
			fx.view = ShardView{}
			if !settles(fx.dir, live, 400) {
				t.Fatalf("%d segments still open after the last view let go, want %d", openSegments(fx.dir), live)
			}
		})
	}
}

// TestSpilledRosterRefusesDuplicate crafts a CRC-valid snapshot whose
// spilled shard lists its first domain twice over a two-entry segment: the
// roster [a, a] hides b. The spilled decoder must refuse it as the resident
// one refuses a domain listed twice, not restore a shard that answers for a
// twice and for b never.
func TestSpilledRosterRefusesDuplicate(t *testing.T) {
	dir := t.TempDir()
	d := NewDatasetShards(1)
	if err := d.ConfigureSpill(SpillOptions{Dir: dir, BudgetBytes: 0}); err != nil {
		t.Fatal(err)
	}
	date := simtime.ScanDates(0, 60)[0]
	var records []*Record
	for i, name := range []dnscore.Name{"aa.example", "bb.example"} {
		records = append(records, &Record{
			ScanDate: date, IP: netip.AddrFrom4([4]byte{10, 0, 0, byte(i + 1)}), Ports: []uint16{443},
			ASN: 64512, Country: "GR", Cert: mkCert(t, leKey, "Let's Encrypt", date-1, date+90, name), Trusted: true,
		})
	}
	if err := d.AddScan(date, records); err != nil {
		t.Fatal(err)
	}
	d.Freeze()
	if d.SpilledShards() != 1 {
		t.Fatalf("%d shards spilled, want 1", d.SpilledShards())
	}
	var buf bytes.Buffer
	if err := d.EncodeSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	opts := SpillOptions{Dir: dir, BudgetBytes: 0}
	if _, err := DecodeSnapshotSpill(buf.Bytes(), opts); err != nil {
		t.Fatalf("the untouched snapshot does not decode: %v", err)
	}
	// The shard's roster closes the payload: ... "aa.example" "bb.example".
	payload := buf.Bytes()
	if !bytes.HasSuffix(payload, []byte("bb.example")) {
		t.Fatal("the payload does not end with the roster")
	}
	copy(payload[len(payload)-len("bb.example"):], "aa.example")
	if got, err := DecodeSnapshotSpill(payload, opts); !errors.Is(err, ErrSnapshotState) {
		n := -1
		if got != nil {
			n = len(got.Domains())
		}
		t.Fatalf("roster [a, a] over segment [a, b]: err %v (%d domains), want ErrSnapshotState", err, n)
	}
}

// TestUnsortedSegmentWindowRefused serves a spilled shard off a CRC-valid
// segment whose one window holds its records out of date order.
// DomainRecords binary-searches a window by date, so such a window would
// serve the wrong records. The read path must count a read error and serve
// no window, and the unspill an Append forces must refuse with ErrSpill.
func TestUnsortedSegmentWindowRefused(t *testing.T) {
	reg := obsv.NewRegistry()
	d := NewDatasetShards(1)
	d.SetMetrics(reg)
	if err := d.ConfigureSpill(SpillOptions{Dir: t.TempDir(), BudgetBytes: 0}); err != nil {
		t.Fatal(err)
	}
	const domain = dnscore.Name("aa.example")
	dates := simtime.ScanDates(0, 60)
	scan := func(i int) []*Record {
		return []*Record{{
			ScanDate: dates[i], IP: netip.AddrFrom4([4]byte{10, 0, 0, byte(i + 1)}), Ports: []uint16{443},
			ASN: 64512, Country: "GR", Cert: mkCert(t, leKey, "Let's Encrypt", dates[i]-1, dates[i]+90, domain), Trusted: true,
		}}
	}
	if err := d.AddScan(dates[0], scan(0)); err != nil {
		t.Fatal(err)
	}
	d.Freeze()
	for i := 1; i < 3; i++ {
		if err := d.Append(dates[i], scan(i)); err != nil {
			t.Fatal(err)
		}
	}
	window := d.DomainRecords(domain, 0, 0)
	if len(window) != 3 || d.SpilledShards() != 1 {
		t.Fatalf("%d records, %d shards spilled; want 3 and 1", len(window), d.SpilledShards())
	}

	// The same shard, its window written newest first.
	slices.Reverse(window)
	table := newCertTable(0)
	w := segment.NewWriter(0, d.Generation()+1)
	if err := w.Add(string(domain), encodeWindow(nil, window, table)); err != nil {
		t.Fatal(err)
	}
	var cw wire.Writer
	table.encode(&cw)
	w.SetCommon(cw.Bytes())
	data, err := w.AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	seg, err := segment.Open(data)
	if err != nil {
		t.Fatalf("the crafted segment does not verify: %v", err)
	}
	s := d.shards[0]
	idx := s.idx.Load()
	s.idx.Store(&shardIndex{domains: idx.domains, dirty: idx.dirty, attach: idx.attach,
		spill: newSpillReader(seg, "crafted", table.certs, &d.segmet)})

	readErrors := func() int64 {
		var n int64
		for _, s := range reg.Snapshot() {
			if s.Name == MetricSegmentReadErrors {
				n += s.Value
			}
		}
		return n
	}
	if got := d.DomainRecords(domain, 0, 0); got != nil || readErrors() != 1 {
		t.Fatalf("unsorted window read as %d records with %d read errors; want none and 1", len(got), readErrors())
	}
	if err := d.Append(dates[3], scan(3)); !errors.Is(err, ErrSpill) {
		t.Fatalf("Append unspilling the unsorted window: %v, want ErrSpill", err)
	}
}

// TestSpillFlags holds the CLIs' spill flag parsing: a bad read mode is
// refused whether or not -spill-dir is set, and a budget needs a dir.
func TestSpillFlags(t *testing.T) {
	for _, tc := range []struct {
		name     string
		dir      string
		budgetMB int
		mode     string
		want     *SpillOptions
		err      string
	}{
		{"off", "", -1, "auto", nil, ""},
		{"off default mode", "", -1, "", nil, ""},
		{"off bad mode", "", -1, "bogus", nil, "unknown read mode"},
		{"budget without dir", "", 0, "auto", nil, "requires -spill-dir"},
		{"dir unlimited", "seg", -5, "stream", &SpillOptions{Dir: "seg", BudgetBytes: -1, Mode: segment.ModeStream}, ""},
		{"dir zero budget", "seg", 0, "auto", &SpillOptions{Dir: "seg", BudgetBytes: 0, Mode: segment.ModeAuto}, ""},
		{"dir ceiling", "seg", 3, "auto", &SpillOptions{Dir: "seg", BudgetBytes: 3 << 20, Mode: segment.ModeAuto}, ""},
		{"dir bad mode", "seg", 0, "bogus", nil, "unknown read mode"},
	} {
		got, err := SpillFlags(tc.dir, tc.budgetMB, tc.mode)
		if tc.err != "" {
			if err == nil || !strings.Contains(err.Error(), tc.err) {
				t.Errorf("%s: err = %v, want one containing %q", tc.name, err, tc.err)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: got %+v, want %+v", tc.name, got, tc.want)
		}
	}
}
