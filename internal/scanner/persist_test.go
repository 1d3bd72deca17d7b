package scanner

import (
	"bytes"
	"errors"
	"net/netip"
	"reflect"
	"strconv"
	"testing"

	"retrodns/internal/dnscore"
	"retrodns/internal/simtime"
	"retrodns/internal/wire"
)

// persistCorpus builds a small multi-scan, multi-shard dataset with some
// quarantined records so every serialized journal is non-trivial.
func persistCorpus(t *testing.T, shards int) *Dataset {
	t.Helper()
	d := NewDatasetShards(shards)
	ingestPersistCorpus(t, d)
	return d
}

// ingestPersistCorpus runs persistCorpus's deterministic ingest into an
// existing dataset (which may carry a spill configuration).
func ingestPersistCorpus(t *testing.T, d *Dataset) {
	t.Helper()
	ingestCorpusN(t, d, 12)
}

// ingestCorpusN is ingestPersistCorpus over n domains.
func ingestCorpusN(t *testing.T, d *Dataset, n int) {
	t.Helper()
	dates := simtime.ScanDates(0, 40)
	if len(dates) < 3 {
		t.Fatalf("want >= 3 scan dates, got %d", len(dates))
	}
	for si, date := range dates[:3] {
		var recs []*Record
		for i := 0; i < n; i++ {
			name := dnscore.Name("d" + strconv.Itoa(i) + ".example")
			cert := mkCert(t, leKey, "Let's Encrypt", date-1, date+90, name)
			ip := netip.AddrFrom4([4]byte{10, byte(si), byte(i), 1})
			recs = append(recs, &Record{
				ScanDate: date, IP: ip, Ports: []uint16{443},
				ASN: 64512, Country: "GR", Cert: cert,
				CrtShID: int64(si*100 + i), Trusted: true,
			})
		}
		// One refusal per scan so quarantine journals round-trip.
		recs = append(recs, &Record{ScanDate: date, IP: netip.Addr{}, Cert: recs[0].Cert})
		if si == 0 {
			if err := d.AddScan(date, recs); err != nil {
				t.Fatalf("AddScan: %v", err)
			}
			d.Freeze()
		} else if err := d.Append(date, recs); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
}

func datasetFingerprint(t *testing.T, d *Dataset) map[string]any {
	t.Helper()
	fp := map[string]any{
		"gen":    d.Generation(),
		"dates":  append([]simtime.Date(nil), d.ScanDates(0, 0)...),
		"quar":   d.Quarantine(),
		"shards": d.Shards(),
	}
	domains, records := d.Size()
	fp["domains"], fp["records"] = domains, records
	wins := map[dnscore.Name][]string{}
	for _, domain := range d.Domains() {
		var rows []string
		for _, r := range d.DomainRecords(domain, 0, 0) {
			rows = append(rows, r.ScanDate.String()+"|"+r.IP.String()+"|"+
				strconv.FormatUint(uint64(r.Cert.Fingerprint()[0]), 10)+"|"+
				strconv.FormatInt(r.CrtShID, 10))
		}
		wins[domain] = rows
	}
	fp["windows"] = wins
	cells, periods := d.DirtySince(0)
	fp["dirtyCells"], fp["dirtyPeriods"] = cells, periods
	return fp
}

// TestSnapshotRoundTrip restores a snapshot to the dataset it was taken
// of, and re-encodes it to the same bytes. The 800-domain corpus is past
// parallelIngestThreshold, so its shards decode on parallel workers.
func TestSnapshotRoundTrip(t *testing.T) {
	for _, tc := range []struct{ shards, domains int }{{1, 12}, {8, 12}, {8, 800}} {
		shards := tc.shards
		d := NewDatasetShards(shards)
		ingestCorpusN(t, d, tc.domains)
		var buf bytes.Buffer
		if err := d.EncodeSnapshot(&buf); err != nil {
			t.Fatalf("shards=%d encode: %v", shards, err)
		}
		got, err := DecodeSnapshot(buf.Bytes())
		if err != nil {
			t.Fatalf("shards=%d decode: %v", shards, err)
		}
		want := datasetFingerprint(t, d)
		have := datasetFingerprint(t, got)
		if !reflect.DeepEqual(want, have) {
			t.Fatalf("shards=%d round trip diverged:\nwant %v\nhave %v", shards, want, have)
		}
		// Pool gauges must match a live ingest of the same corpus.
		if w, h := d.Pool().Stats(), got.Pool().Stats(); w.Certs != h.Certs {
			t.Fatalf("shards=%d pool stats: want %+v, got %+v", shards, w, h)
		}
		// Re-encoding the restored dataset must be byte-identical.
		var buf2 bytes.Buffer
		if err := got.EncodeSnapshot(&buf2); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
			t.Fatalf("shards=%d snapshot encoding not stable under round trip", shards)
		}
	}
}

func TestSnapshotRestoredDatasetAppends(t *testing.T) {
	d := persistCorpus(t, 8)
	var buf bytes.Buffer
	if err := d.EncodeSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSnapshot(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	dates := simtime.ScanDates(0, 60)
	next := dates[3]
	cert := mkCert(t, leKey, "Let's Encrypt", next-1, next+90, "fresh.example")
	rec := &Record{
		ScanDate: next, IP: netip.MustParseAddr("10.9.9.9"), Ports: []uint16{443},
		ASN: 64512, Country: "GR", Cert: cert, Trusted: true,
	}
	gen := got.Generation()
	if err := got.Append(next, []*Record{rec}); err != nil {
		t.Fatalf("Append on restored dataset: %v", err)
	}
	if got.Generation() != gen+1 {
		t.Fatalf("generation: want %d, got %d", gen+1, got.Generation())
	}
	if len(got.DomainRecords("fresh.example", 0, 0)) != 1 {
		t.Fatal("appended record not indexed")
	}
}

func TestDecodeSnapshotRejectsGarbage(t *testing.T) {
	d := persistCorpus(t, 4)
	var buf bytes.Buffer
	if err := d.EncodeSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	for _, tc := range [][]byte{
		nil,
		[]byte("not a snapshot"),
		valid[:len(valid)/2],
	} {
		if _, err := DecodeSnapshot(tc); err == nil {
			t.Fatalf("decode of %d-byte garbage succeeded", len(tc))
		} else if !errors.Is(err, wire.ErrMalformed) && !errors.Is(err, ErrSnapshotState) {
			t.Fatalf("untyped decode error: %v", err)
		}
	}
}

func TestEncodeSnapshotRequiresFrozen(t *testing.T) {
	d := NewDataset()
	var buf bytes.Buffer
	if err := d.EncodeSnapshot(&buf); !errors.Is(err, ErrNotFrozen) {
		t.Fatalf("want ErrNotFrozen, got %v", err)
	}
}
