package wal

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"retrodns/internal/core"
	"retrodns/internal/obsv"
	"retrodns/internal/report"
	"retrodns/internal/scanner"
	"retrodns/internal/segment"
	"retrodns/internal/simtime"
	"retrodns/internal/synth"
)

// TestSnapshotTrailingBytesRefused crafts a snapshot file whose payload
// carries a byte after its two sections, under a valid checksum. Recovery
// must refuse it as a bad snapshot, count it once, and fall back to the
// next older snapshot.
func TestSnapshotTrailingBytesRefused(t *testing.T) {
	dir := t.TempDir()
	g := testGen(t)
	s, _ := openStore(t, dir, 1000)
	for _, date := range g.ScanDates()[:2] {
		if err := s.Append(date, g.Scan(date)); err != nil {
			t.Fatal(err)
		}
		if err := s.Snapshot(); err != nil {
			t.Fatal(err)
		}
	}
	names := listSnapshots(dir)
	if len(names) != 2 {
		t.Fatalf("snapshots %v, want two", names)
	}
	newest := filepath.Join(dir, names[0])
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := segment.Unframe(snapMagic, data)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(newest, segment.Frame(snapMagic, append(slices.Clone(payload), 0)), 0o644); err != nil {
		t.Fatal(err)
	}
	_, rec := openStore(t, dir, 1000)
	if rec.FromSnapshot != names[1] || fmt.Sprint(rec.Faults) != fmt.Sprint(map[string]int64{FaultBadSnapshot: 1}) {
		t.Fatalf("recovered from %q with faults %v; want %q and one %s", rec.FromSnapshot, rec.Faults, names[1], FaultBadSnapshot)
	}
}

// rcc1Feed is the scans.csv behind testdata/rcc1.
func rcc1Feed() []byte {
	g := synth.New(synth.Config{Domains: 80, Seed: 5, Scans: 5, CadenceDays: 100, TransientPerMille: 40})
	var csv bytes.Buffer
	for _, date := range g.ScanDates() {
		for _, r := range g.Scan(date) {
			csv.WriteString(strings.Join(scanner.FormatScanRow(r), ","))
			csv.WriteByte('\n')
		}
	}
	return csv.Bytes()
}

// followReport runs one Follow lifetime over feed to the end. It returns
// the canonical run report, the recovery and the warm boot's analysis.
func followReport(t *testing.T, opts Options, feed []byte) (string, *Recovery, *core.Result) {
	t.Helper()
	reg := obsv.NewRegistry()
	opts.Metrics = reg
	fl, err := OpenFollow(opts, false, core.DefaultParams(), 2)
	if err != nil {
		t.Fatal(err)
	}
	warm := fl.Result
	if err := fl.Run(context.Background(), bytes.NewReader(feed), false, 0, func(simtime.Date, *core.Result) {}); err != nil {
		t.Fatal(err)
	}
	if err := fl.Close(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := report.BuildRunReport(fl.Result, fl.Dataset.Quarantine(), reg).Canonical().Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String(), fl.Recovery, warm
}

// TestRCC1CacheSectionRestoresCold opens a data dir written while the
// cache section was still rcc1, which stored every deployment as record
// indexes: a Follow over rcc1Feed with a snapshot every two scans, killed
// after three, so snap-00000003.bin carries an rcc1 cache and the log one
// frame past it. The dataset section has not changed and restores warm.
// The cache section is refused, counted once as a bad snapshot, and the
// cache starts cold. Finishing the feed gives the uninterrupted run's
// canonical report.
func TestRCC1CacheSectionRestoresCold(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"snap-00000003.bin", LogName} {
		data, err := os.ReadFile(filepath.Join("testdata", "rcc1", name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	feed := rcc1Feed()
	got, rec, warm := followReport(t, Options{Dir: dir, Shards: 4, SnapshotEvery: 2}, feed)
	if !rec.Warm || rec.FromSnapshot != "snap-00000003.bin" || rec.Generation != 4 || rec.ReplayedBatches != 1 {
		t.Fatalf("recovery %+v; want warm from snap-00000003.bin, one frame replayed to generation 4", rec)
	}
	if fmt.Sprint(rec.Faults) != fmt.Sprint(map[string]int64{FaultBadSnapshot: 1}) {
		t.Fatalf("faults %v, want one %s", rec.Faults, FaultBadSnapshot)
	}
	if st := warm.Stats; st.CacheHits != 0 || st.CacheMisses == 0 {
		t.Fatalf("warm boot's first run: %d hits, %d misses; want a cold cache", st.CacheHits, st.CacheMisses)
	}
	want, _, _ := followReport(t, Options{Dir: t.TempDir(), Shards: 4, SnapshotEvery: 2}, feed)
	if got != want {
		t.Fatal("canonical run report after the rcc1 restore differs from the uninterrupted run's")
	}
}

// TestRestoreSpans: a warm Open observes each restore step once, and the
// series are on the registry that /metrics and the run report read.
func TestRestoreSpans(t *testing.T) {
	dir := t.TempDir()
	g := testGen(t)
	s, _ := openStore(t, dir, 1000)
	appendAll(t, s, g)
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	reg := obsv.NewRegistry()
	s2, rec, err := Open(Options{Dir: dir, Shards: 4, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if !rec.Warm {
		t.Fatal("recovery not warm")
	}
	counts := map[string]int64{}
	for _, smp := range reg.Snapshot() {
		if smp.Name == MetricWALRestoreSec {
			counts[smp.Labels["step"]] = smp.Count
		}
	}
	if fmt.Sprint(counts) != fmt.Sprint(map[string]int64{"cache": 1, "dataset": 1, "replay": 1}) {
		t.Fatalf("%s counts %v, want one observation per step", MetricWALRestoreSec, counts)
	}
	var prom bytes.Buffer
	if err := reg.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	for _, step := range restoreSteps {
		if line := fmt.Sprintf("%s_count{step=%q} 1", MetricWALRestoreSec, step); !strings.Contains(prom.String(), line) {
			t.Errorf("/metrics lacks %s", line)
		}
	}
	if !strings.Contains(prom.String(), "# HELP "+MetricWALRestoreSec+" ") {
		t.Errorf("/metrics has no help text for %s", MetricWALRestoreSec)
	}
}
