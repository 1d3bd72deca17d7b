package wal

import (
	"path/filepath"
	"reflect"
	"strconv"
	"testing"

	"retrodns/internal/scanner"
)

// publicFingerprint reads a dataset purely through its public API, so
// resident and out-of-core datasets can be compared even though their
// snapshot encodings differ (v1 vs v2).
func publicFingerprint(t *testing.T, ds *scanner.Dataset) map[string]any {
	t.Helper()
	fp := map[string]any{
		"gen":   ds.Generation(),
		"quar":  ds.Quarantine(),
		"dates": ds.ScanDates(0, 0),
	}
	domains, records := ds.Size()
	fp["domains"], fp["records"] = domains, records
	wins := map[string][]string{}
	for _, domain := range ds.Domains() {
		var rows []string
		for _, r := range ds.DomainRecords(domain, 0, 0) {
			row := r.ScanDate.String() + "|" + r.IP.String()
			if r.Cert != nil {
				row += "|" + strconv.FormatUint(uint64(r.Cert.Fingerprint()[0]), 10)
			}
			rows = append(rows, row)
		}
		wins[string(domain)] = rows
	}
	fp["windows"] = wins
	return fp
}

// TestStoreSpillRoundTrip runs the full durability loop out of core: a
// zero-budget store ingests, snapshots (v2, segment references), crashes,
// and recovers still spilled — with every read identical to a fully
// resident uninterrupted ingest.
func TestStoreSpillRoundTrip(t *testing.T) {
	dir := t.TempDir()
	spill := &scanner.SpillOptions{Dir: filepath.Join(dir, "segments"), BudgetBytes: 0}
	g := testGen(t)
	dates := g.ScanDates()

	open := func(t *testing.T) (*Store, *Recovery) {
		t.Helper()
		s, rec, err := Open(Options{Dir: dir, Shards: 4, SnapshotEvery: 1000, Spill: spill})
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		t.Cleanup(func() { s.Close() })
		return s, rec
	}

	s, _ := open(t)
	for _, date := range dates[:2] {
		if err := s.Append(date, g.Scan(date)); err != nil {
			t.Fatal(err)
		}
	}
	if s.ds.SpilledShards() == 0 {
		t.Fatal("zero budget spilled nothing during ingest")
	}
	if err := s.Snapshot(); err != nil {
		t.Fatalf("Snapshot of spilled dataset: %v", err)
	}
	for _, date := range dates[2:] {
		if err := s.Append(date, g.Scan(date)); err != nil {
			t.Fatal(err)
		}
	}
	wantGen := s.Generation()

	// Crash + reopen: snapshot (v2) and WAL tail both decode out of core.
	_, rec := open(t)
	if !rec.Warm || rec.FromSnapshot == "" {
		t.Fatalf("spill recovery ignored the snapshot: %+v", rec)
	}
	if rec.Generation != wantGen || rec.ReplayedBatches != len(dates)-2 {
		t.Fatalf("spill recovery: %+v (want gen %d, %d batches)", rec, wantGen, len(dates)-2)
	}
	if rec.Dataset.SpilledShards() == 0 {
		t.Fatal("recovered dataset fully resident despite zero budget")
	}
	want := publicFingerprint(t, reference(t, g, 4))
	have := publicFingerprint(t, rec.Dataset)
	if !reflect.DeepEqual(want, have) {
		t.Fatalf("out-of-core recovery diverged:\nwant %v\nhave %v", want, have)
	}
}
