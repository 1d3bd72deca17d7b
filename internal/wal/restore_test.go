package wal

import (
	"bytes"
	"context"
	"errors"
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
	"retrodns/internal/wire"
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
	fl, err := OpenFollow(opts, false, core.DefaultParams(), 2, core.Sources{})
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

// TestOldSnapshotFormatRestoresCold opens a data dir an older build wrote:
// a Follow over rcc1Feed with a snapshot every two scans, killed after
// three, so snap-00000003.bin holds the dataset in the layout before
// shards were segments (and an rcc1 cache), and the log one frame past it.
// The snapshot is refused as ErrSnapshotFormat and counted once as a bad
// snapshot; recovery is cold, so the log's one frame is out of order on an
// empty dataset and counted once too. Follow reads the feed from the top,
// and finishing it gives the uninterrupted run's canonical report.
func TestOldSnapshotFormatRestoresCold(t *testing.T) {
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
	if _, _, err := loadSnapshotFile(filepath.Join(dir, "snap-00000003.bin"), nil); !errors.Is(err, ErrBadSnapshot) || !errors.Is(err, scanner.ErrSnapshotFormat) {
		t.Fatalf("old snapshot: %v, want ErrBadSnapshot wrapping scanner.ErrSnapshotFormat", err)
	}
	feed := rcc1Feed()
	got, rec, warm := followReport(t, Options{Dir: dir, Shards: 4, SnapshotEvery: 2}, feed)
	if rec.Warm || rec.FromSnapshot != "" || rec.Generation != 0 || rec.ReplayedBatches != 0 || warm != nil {
		t.Fatalf("recovery %+v (warm analysis %v); want a cold boot", rec, warm != nil)
	}
	want := map[string]int64{FaultBadSnapshot: 1, FaultOutOfOrder: 1}
	if fmt.Sprint(rec.Faults) != fmt.Sprint(want) {
		t.Fatalf("faults %v, want %v", rec.Faults, want)
	}
	wantReport, _, _ := followReport(t, Options{Dir: t.TempDir(), Shards: 4, SnapshotEvery: 2}, feed)
	if got != wantReport {
		t.Fatal("canonical run report after the cold restore differs from the uninterrupted run's")
	}
}

// datasetShards splits a snapshot's dataset section into its header and
// its per-shard sections (scanner/persist.go's layout).
func datasetShards(t testing.TB, ds []byte) ([]byte, [][]byte) {
	t.Helper()
	r := wire.NewReader(ds)
	r.Blob() // magic
	n := r.Count()
	r.Uvarint() // generation
	r.Uvarint() // records
	r.Uvarint() // domains
	for i, k := 0, r.Count(); i < k; i++ {
		r.Int() // scan date
	}
	for i, k := 0, r.Count(); i < k; i++ {
		r.Int()     // period
		r.Uvarint() // generation
	}
	r.Uvarint() // quarantine seq
	for i, k := 0, r.Count(); i < k; i++ {
		r.Uvarint() // per-reason count
	}
	r.Uvarint() // total
	for i, k := 0, r.Count(); i < k; i++ {
		r.Uvarint() // reason
		r.Int()     // date
		r.Blob()    // detail
		r.Uvarint() // seq
	}
	head := ds[:r.Offset()]
	shards := make([][]byte, n)
	for i := range shards {
		shards[i] = r.Section()
	}
	if err := r.Finish(); err != nil {
		t.Fatal(err)
	}
	return head, shards
}

// joinDataset is datasetShards' inverse.
func joinDataset(head []byte, shards [][]byte) []byte {
	w := wire.NewWriter(slices.Clone(head))
	for _, sec := range shards {
		w.Blob(sec)
	}
	return w.Bytes()
}

// withImage returns a resident shard's section with its inline segment
// image replaced by edit's result.
func withImage(t testing.TB, sec []byte, edit func([]byte) []byte) []byte {
	t.Helper()
	r := wire.NewReader(sec)
	if r.Bool() {
		t.Fatal("shard is spilled, not inline")
	}
	image := r.Section()
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	var w wire.Writer
	w.Bool(false)
	w.Blob(edit(slices.Clone(image)))
	return append(w.Bytes(), sec[r.Offset():]...)
}

// reseal rebuilds a segment image as shard sid holding the entries edit
// returns for its own, with the image's generation and certificate table.
func reseal(t *testing.T, image []byte, sid int, edit func(keys []string, values [][]byte) ([]string, [][]byte)) []byte {
	t.Helper()
	seg, err := segment.Open(image)
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	var values [][]byte
	if err := seg.Walk(func(k, v []byte) error {
		keys, values = append(keys, string(k)), append(values, slices.Clone(v))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	keys, values = edit(keys, values)
	w := segment.NewWriter(sid, seg.Gen())
	w.SetCommon(seg.Common())
	for i, k := range keys {
		if err := w.Add(k, values[i]); err != nil {
			t.Fatal(err)
		}
	}
	out, err := w.AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestHostileInlineImages writes a snapshot, then a newer one whose dataset
// section is damaged under a valid file checksum: a shard image that
// disagrees with its shard or its roster, an image whose own checksum
// fails, or a section in an older layout. Each must be refused with a
// typed error, counted as exactly one bad snapshot, and recovery must fall
// back to the older snapshot.
func TestHostileInlineImages(t *testing.T) {
	base := t.TempDir()
	g := testGen(t)
	s, _ := openStore(t, base, 1000)
	for _, date := range g.ScanDates()[:2] {
		if err := s.Append(date, g.Scan(date)); err != nil {
			t.Fatal(err)
		}
		if err := s.Snapshot(); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	names := listSnapshots(base)
	if len(names) != 2 {
		t.Fatalf("snapshots %v, want two", names)
	}
	newest, err := os.ReadFile(filepath.Join(base, names[0]))
	if err != nil {
		t.Fatal(err)
	}
	ds := datasetSection(t, newest)
	head, shards := datasetShards(t, ds)
	const sid = 1
	// damageShard is the dataset section with shard sid's image edited.
	damageShard := func(edit func([]byte) []byte) []byte {
		out := slices.Clone(shards)
		out[sid] = withImage(t, shards[sid], edit)
		return joinDataset(head, out)
	}
	oldSection := func(dir string) []byte {
		data, err := os.ReadFile(filepath.Join("testdata", dir, "snap-00000003.bin"))
		if err != nil {
			t.Fatal(err)
		}
		return datasetSection(t, data)
	}
	for _, tc := range []struct {
		name    string
		dataset []byte
		want    error
	}{
		{"another shard's image", damageShard(func(img []byte) []byte {
			return reseal(t, img, sid+1, func(k []string, v [][]byte) ([]string, [][]byte) { return k, v })
		}), scanner.ErrSnapshotState},
		{"entry count not the roster's", damageShard(func(img []byte) []byte {
			return reseal(t, img, sid, func(k []string, v [][]byte) ([]string, [][]byte) { return k[:len(k)-1], v[:len(v)-1] })
		}), scanner.ErrSnapshotState},
		{"segment key not the roster name", damageShard(func(img []byte) []byte {
			return reseal(t, img, sid, func(k []string, v [][]byte) ([]string, [][]byte) {
				k[len(k)-1] += "x"
				return k, v
			})
		}), scanner.ErrSnapshotState},
		{"flipped byte inside an image", damageShard(func(img []byte) []byte {
			img[len(img)/2] ^= 0x41
			return img
		}), segment.ErrBadFrame},
		{"pre-segment layout", oldSection("rcc1"), scanner.ErrSnapshotFormat},
		{"spilled-only layout", oldSection("spilled"), scanner.ErrSnapshotFormat},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			for _, name := range names {
				data, err := os.ReadFile(filepath.Join(base, name))
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			var w wire.Writer
			w.Blob(tc.dataset)
			w.Blob(nil)
			path := filepath.Join(dir, names[0])
			if err := os.WriteFile(path, segment.Frame(snapMagic, w.Bytes()), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, _, err := loadSnapshotFile(path, nil); !errors.Is(err, ErrBadSnapshot) || !errors.Is(err, tc.want) {
				t.Fatalf("load: %v, want ErrBadSnapshot wrapping %v", err, tc.want)
			}
			_, rec := openStore(t, dir, 1000)
			if rec.FromSnapshot != names[1] || fmt.Sprint(rec.Faults) != fmt.Sprint(map[string]int64{FaultBadSnapshot: 1}) {
				t.Fatalf("recovered from %q with faults %v; want %q and one %s", rec.FromSnapshot, rec.Faults, names[1], FaultBadSnapshot)
			}
		})
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
