package wal

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"retrodns/internal/core"
	"retrodns/internal/pdns"
	"retrodns/internal/scanner"
	"retrodns/internal/segment"
	"retrodns/internal/simtime"
	"retrodns/internal/synth"
	"retrodns/internal/wire"
)

func testGen(t *testing.T) *synth.Generator {
	t.Helper()
	return synth.New(synth.Config{Domains: 40, Seed: 7, Scans: 4})
}

// appendAll feeds every synth scan through the store.
func appendAll(t *testing.T, s *Store, g *synth.Generator) {
	t.Helper()
	for _, date := range g.ScanDates() {
		if err := s.Append(date, g.Scan(date)); err != nil {
			t.Fatalf("Append %s: %v", date, err)
		}
	}
}

// reference builds the uninterrupted-ingest dataset the recovered one must
// match.
func reference(t *testing.T, g *synth.Generator, shards int) *scanner.Dataset {
	t.Helper()
	ds := scanner.NewDatasetShards(shards)
	for _, date := range g.ScanDates() {
		if err := ds.Append(date, g.Scan(date)); err != nil {
			t.Fatal(err)
		}
	}
	return ds
}

func snapshotBytes(t *testing.T, ds *scanner.Dataset) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := ds.EncodeSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func openStore(t *testing.T, dir string, every int) (*Store, *Recovery) {
	t.Helper()
	s, rec, err := Open(Options{Dir: dir, Shards: 4, SnapshotEvery: every})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s, rec
}

// TestStoreRecoverFromWAL crashes (no Close, no snapshot) and recovers
// purely from the log.
func TestStoreRecoverFromWAL(t *testing.T) {
	dir := t.TempDir()
	g := testGen(t)
	s, rec := openStore(t, dir, 1000) // never snapshots
	if rec.Warm {
		t.Fatal("fresh dir reported warm")
	}
	appendAll(t, s, g)
	wantGen := s.Generation()
	// Simulated crash: no Close. Reopen.
	_, rec2 := openStore(t, dir, 1000)
	if !rec2.Warm || rec2.Generation != wantGen || rec2.ReplayedBatches != len(g.ScanDates()) {
		t.Fatalf("recovery: %+v (want gen %d, %d batches)", rec2, wantGen, len(g.ScanDates()))
	}
	if want, got := snapshotBytes(t, reference(t, g, 4)), snapshotBytes(t, rec2.Dataset); !bytes.Equal(want, got) {
		t.Fatal("WAL-recovered dataset not byte-identical to uninterrupted ingest")
	}
	if len(rec2.Faults) != 0 {
		t.Fatalf("clean log produced faults: %v", rec2.Faults)
	}
}

// TestStoreRecoverFromSnapshotAndTail snapshots mid-stream, appends more,
// crashes, and recovers snapshot + WAL tail.
func TestStoreRecoverFromSnapshotAndTail(t *testing.T) {
	dir := t.TempDir()
	g := testGen(t)
	dates := g.ScanDates()
	s, _ := openStore(t, dir, 1000)
	for _, date := range dates[:2] {
		if err := s.Append(date, g.Scan(date)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	for _, date := range dates[2:] {
		if err := s.Append(date, g.Scan(date)); err != nil {
			t.Fatal(err)
		}
	}
	_, rec := openStore(t, dir, 1000)
	if rec.FromSnapshot == "" {
		t.Fatal("recovery ignored the snapshot")
	}
	if rec.ReplayedBatches != len(dates)-2 {
		t.Fatalf("replayed %d batches, want %d", rec.ReplayedBatches, len(dates)-2)
	}
	if want, got := snapshotBytes(t, reference(t, g, 4)), snapshotBytes(t, rec.Dataset); !bytes.Equal(want, got) {
		t.Fatal("snapshot+tail recovery not byte-identical")
	}
}

// TestStoreFaultClasses holds the fault class the data-dir rows of
// internal/faults cannot make from outside the package, a generation gap,
// to typed quarantine accounting, no panic, and recovered state equal to
// the prefix before the gap.
func TestStoreFaultClasses(t *testing.T) {
	g := testGen(t)
	dates := g.ScanDates()

	t.Run("out of order generation", func(t *testing.T) {
		dir := t.TempDir()
		// Hand-build a log with a generation gap: 2 then 4.
		frames := append(appendFrame(nil, 2, dates[0], g.Scan(dates[0])),
			appendFrame(nil, 4, dates[2], g.Scan(dates[2]))...)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, LogName), frames, 0o644); err != nil {
			t.Fatal(err)
		}
		_, rec := openStore(t, dir, 1000)
		if rec.Faults[FaultOutOfOrder] != 1 {
			t.Fatalf("faults: %v", rec.Faults)
		}
		if rec.Generation != 2 || rec.ReplayedBatches != 1 {
			t.Fatalf("recovered gen %d batches %d, want 2/1", rec.Generation, rec.ReplayedBatches)
		}

		// The same walk by hand on a cold store: the gap stops it with the
		// exported sentinel, past the first frame only, counted once.
		cold, _ := openStore(t, t.TempDir(), 1000)
		walk := &Recovery{Faults: make(map[string]int64)}
		good, err := Replay(frames, cold.applyFrame(walk))
		if !errors.Is(err, ErrOutOfOrderGeneration) {
			t.Fatalf("replay stopped with %v, want ErrOutOfOrderGeneration", err)
		}
		if first := len(appendFrame(nil, 2, dates[0], g.Scan(dates[0]))); good != first {
			t.Fatalf("replay accepted %d bytes, want the first frame's %d", good, first)
		}
		if walk.Faults[FaultOutOfOrder] != 1 || walk.ReplayedBatches != 1 {
			t.Fatalf("walk faults %v batches %d, want one out-of-order stop after one batch", walk.Faults, walk.ReplayedBatches)
		}
	})
}

// TestStoreRefusesClockSkew: an out-of-window date never reaches the WAL
// or the dataset.
func TestStoreRefusesClockSkew(t *testing.T) {
	dir := t.TempDir()
	g := testGen(t)
	s, _ := openStore(t, dir, 1000)
	appendAll(t, s, g)
	gen := s.Generation()
	skewed := simtime.StudyEnd + 30
	if err := s.Append(skewed, g.Scan(g.ScanDates()[0])); !errors.Is(err, ErrClockSkew) {
		t.Fatalf("want ErrClockSkew, got %v", err)
	}
	if s.Generation() != gen {
		t.Fatal("skewed append advanced the generation")
	}
	_, rec := openStore(t, dir, 1000)
	if rec.Generation != gen {
		t.Fatal("skewed append left durable residue")
	}
}

// TestStrictRefusalLeavesNoFrame: a strict dataset refuses a batch before
// the barrier, while the writer goroutine already has the frame. The store
// waits for the writer and cuts the frame away, so the log, the next
// append and a later recovery are those of a run never offered the batch.
func TestStrictRefusalLeavesNoFrame(t *testing.T) {
	dir := t.TempDir()
	g := testGen(t)
	dates := g.ScanDates()
	s, rec := openStore(t, dir, 1000)
	rec.Dataset.SetStrict(true)
	if err := s.Append(dates[0], g.Scan(dates[0])); err != nil {
		t.Fatal(err)
	}
	size := func() int64 {
		fi, err := os.Stat(s.walPath())
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	gen, logSize := s.Generation(), size()
	bad := append(g.Scan(dates[1]), &scanner.Record{ScanDate: dates[1]})
	if err := s.Append(dates[1], bad); !errors.Is(err, scanner.ErrQuarantined) {
		t.Fatalf("Append of a malformed record to a strict dataset = %v, want ErrQuarantined", err)
	}
	if s.Generation() != gen || size() != logSize {
		t.Fatalf("refused batch left generation %d (was %d), log %d bytes (was %d)", s.Generation(), gen, size(), logSize)
	}
	for _, date := range dates[1:] {
		if err := s.Append(date, g.Scan(date)); err != nil {
			t.Fatalf("Append after the refusal: %v", err)
		}
	}
	_, rec2 := openStore(t, dir, 1000)
	if len(rec2.Faults) != 0 || !bytes.Equal(snapshotBytes(t, reference(t, g, 4)), snapshotBytes(t, rec2.Dataset)) {
		t.Fatalf("recovery after a refused batch: %+v, want the uninterrupted state", rec2)
	}
}

// TestAppendFailureIsSticky closes the log's descriptor under the store, so
// the next frame cannot be written: that Append returns the error with the
// dataset exactly where it was, every later Append returns the same error
// without touching the file, reopening the directory recovers the state a
// clean run of the surviving appends reaches, and on the live store a
// successful Snapshot — which rewrites the state and empties the log — is
// what lifts the refusal.
func TestAppendFailureIsSticky(t *testing.T) {
	dir := t.TempDir()
	g := testGen(t)
	dates := g.ScanDates()
	s, rec := openStore(t, dir, 1000)
	for _, date := range dates[:2] {
		if err := s.Append(date, g.Scan(date)); err != nil {
			t.Fatal(err)
		}
	}
	gen, before := s.Generation(), snapshotBytes(t, rec.Dataset)
	if err := s.wal.Close(); err != nil {
		t.Fatal(err)
	}
	first := s.Append(dates[2], g.Scan(dates[2]))
	if first == nil {
		t.Fatal("Append on a closed log succeeded")
	}
	if s.Generation() != gen || !bytes.Equal(before, snapshotBytes(t, rec.Dataset)) {
		t.Fatal("failed Append moved the dataset")
	}
	for _, date := range dates[2:] {
		if err := s.Append(date, g.Scan(date)); err != first {
			t.Fatalf("Append after a failed write = %v, want the first failure %v", err, first)
		}
	}
	if s.Generation() != gen {
		t.Fatal("refused Append moved the dataset")
	}

	_, rec2 := openStore(t, dir, 1000)
	prefix := scanner.NewDatasetShards(4)
	for _, date := range dates[:2] {
		if err := prefix.Append(date, g.Scan(date)); err != nil {
			t.Fatal(err)
		}
	}
	if rec2.Generation != gen || len(rec2.Faults) != 0 || !bytes.Equal(snapshotBytes(t, prefix), snapshotBytes(t, rec2.Dataset)) {
		t.Fatalf("recovery after a failed write: %+v, want the two-append state at generation %d", rec2, gen)
	}

	// Back on the first store: a snapshot fails while the log is unusable and
	// leaves the refusal in place; given a working descriptor it clears it.
	if err := s.Snapshot(); err == nil {
		t.Fatal("Snapshot truncated a closed log")
	}
	if err := s.Append(dates[2], g.Scan(dates[2])); err != first {
		t.Fatalf("Append after a failed snapshot = %v, want %v", err, first)
	}
	var err error
	if s.wal, err = os.OpenFile(s.walPath(), os.O_WRONLY|os.O_APPEND, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := s.Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	for _, date := range dates[2:] {
		if err := s.Append(date, g.Scan(date)); err != nil {
			t.Fatalf("Append after the clearing snapshot: %v", err)
		}
	}
	_, rec3 := openStore(t, dir, 1000)
	if want, got := snapshotBytes(t, reference(t, g, 4)), snapshotBytes(t, rec3.Dataset); !bytes.Equal(want, got) {
		t.Fatal("state after the cleared failure diverged from uninterrupted ingest")
	}
}

// TestDiskBytesPinned holds the three durable encodings to recorded
// sha256s: the log after three appends, the snapshot file of the resulting
// state, and the classify cache's state. The log was re-recorded when its
// second and third frames began continuing the first one's certificate
// dictionary (146 009 -> 67 165 bytes; the first frame did not move), and
// the cache state is the rcc2 bytes (classify's decisions only). The snapshot's dataset section, and with it
// the whole file, were re-recorded when resident shards moved into it as
// inline segment images, the bytes a spilled shard seals to a file.
func TestDiskBytesPinned(t *testing.T) {
	const (
		wantLog   = "086f0d52e3768c404322c530026bc9035cbdb8461e539f9b1ff9cd986736feb1"
		wantSnap  = "b90228cb7220ece2206f2039c0a1a3d163875024bc442e996071b1f347a5a7d6"
		wantCache = "a77b4e4cfb9c7b0bdb20da8707eb8f1a6d27bd547e00e8c9ccb1340f29fbaa82"
		// The snapshot file's dataset section alone, which a cache-format
		// change leaves where it was.
		wantSnapDataset = "18747c17c399d2a4d355f08fbce6e51fca4008bb48bdcd9c5e575a695c1e2ca1"
	)
	dir := t.TempDir()
	// Three scans over two periods, with enough transients to give the cache
	// deployment maps worth encoding.
	g := synth.New(synth.Config{Domains: 300, Seed: 11, Scans: 3, CadenceDays: 100, TransientPerMille: 40})
	s, rec, err := Open(Options{Dir: dir, Shards: 4, SnapshotEvery: 1000})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	pipe := &core.Pipeline{
		Params: core.DefaultParams(), Dataset: rec.Dataset, PDNS: pdns.NewDB(), Workers: 2, Cache: rec.Cache,
	}
	for _, date := range g.ScanDates() {
		if err := s.Append(date, g.Scan(date)); err != nil {
			t.Fatal(err)
		}
		pipe.Run()
	}
	sum := func(b []byte) string { return fmt.Sprintf("%x", sha256.Sum256(b)) }
	log, err := os.ReadFile(filepath.Join(dir, LogName))
	if err != nil {
		t.Fatal(err)
	}
	if got := sum(log); got != wantLog {
		t.Errorf("wal.log (%d bytes) sha256 %s, want %s", len(log), got, wantLog)
	}
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	snap, err := os.ReadFile(filepath.Join(dir, snapName(rec.Dataset.Generation())))
	if err != nil {
		t.Fatal(err)
	}
	if got := sum(snap); got != wantSnap {
		t.Errorf("%s (%d bytes) sha256 %s, want %s", snapName(rec.Dataset.Generation()), len(snap), got, wantSnap)
	}
	if got := sum(datasetSection(t, snap)); got != wantSnapDataset {
		t.Errorf("dataset section sha256 %s, want %s", got, wantSnapDataset)
	}
	cache, err := rec.Cache.EncodeState(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := sum(cache); got != wantCache {
		t.Errorf("cache state (%d bytes) sha256 %s, want %s", len(cache), got, wantCache)
	}
}

// datasetSection returns the dataset section of a snapshot file: the
// EncodeSnapshot bytes, without the cache section after them.
func datasetSection(t testing.TB, snap []byte) []byte {
	t.Helper()
	payload, err := segment.Unframe(snapMagic, snap)
	if err != nil {
		t.Fatal(err)
	}
	r := wire.NewReader(payload)
	ds := r.Section()
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	return ds
}

// TestSpilledDiskBytesPinned extends TestDiskBytesPinned to the out-of-core
// formats: the sealed RDSG segment files of a zero-budget store and the
// snapshot file whose every shard is a reference to one of them. The
// segments' sha256 was recorded before the storage codecs moved onto
// internal/wire and has held since; the file's moved when its (empty)
// cache section became rcc2 and again when the dataset section took one
// layout for resident and spilled shards. A sibling fixture, not a new
// input, so the two tests move together if a format ever changes on
// purpose.
func TestSpilledDiskBytesPinned(t *testing.T) {
	const (
		wantSegs = "cfd017414e45aaf7fb712b016cf4ab6c5fde1d6fa734ec4a22545159a5c8dd7d"
		wantSnap = "ece01e551cdd55834439570b8f4ff6d9a435c1c7fa27bc35b7206552eb1d632c"
		// The dataset section alone (see TestDiskBytesPinned).
		wantSnapDataset = "35b7acda0ac85d67ac92f3d87bddc30cd3fcc236c298041c1644abc474fbec74"
	)
	dir := t.TempDir()
	segDir := filepath.Join(dir, "segments")
	g := synth.New(synth.Config{Domains: 300, Seed: 11, Scans: 3, CadenceDays: 100, TransientPerMille: 40})
	s, rec, err := Open(Options{Dir: dir, Shards: 4, SnapshotEvery: 1000,
		Spill: &scanner.SpillOptions{Dir: segDir, BudgetBytes: 0}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, date := range g.ScanDates() {
		if err := s.Append(date, g.Scan(date)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	snap, err := os.ReadFile(filepath.Join(dir, snapName(rec.Dataset.Generation())))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(datasetSection(t, snap), []byte("RDSG")) {
		t.Fatal("zero-budget snapshot holds an inline shard image")
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(snap)); got != wantSnap {
		t.Errorf("%s (%d bytes) sha256 %s, want %s", snapName(rec.Dataset.Generation()), len(snap), got, wantSnap)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(datasetSection(t, snap))); got != wantSnapDataset {
		t.Errorf("dataset section sha256 %s, want %s", got, wantSnapDataset)
	}
	// Every segment file the run sealed, by name then bytes, in name order.
	names, err := filepath.Glob(filepath.Join(segDir, "seg-*.bin"))
	if err != nil || len(names) == 0 {
		t.Fatalf("no sealed segments (%v)", err)
	}
	h := sha256.New()
	for _, name := range names {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%s %d\n", filepath.Base(name), len(data))
		h.Write(data)
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != wantSegs {
		t.Errorf("%d segment files sha256 %s, want %s", len(names), got, wantSegs)
	}
}

// TestSnapshotRotatesWAL: after a snapshot the log is empty, recovery uses
// the snapshot, and old snapshots are pruned.
func TestSnapshotRotatesWAL(t *testing.T) {
	dir := t.TempDir()
	g := testGen(t)
	s, _ := openStore(t, dir, 1) // snapshot on every append via MaybeSnapshot
	for _, date := range g.ScanDates() {
		if err := s.Append(date, g.Scan(date)); err != nil {
			t.Fatal(err)
		}
		if took, err := s.MaybeSnapshot(); err != nil || !took {
			t.Fatalf("MaybeSnapshot: took=%v err=%v", took, err)
		}
	}
	if fi, err := os.Stat(filepath.Join(dir, LogName)); err != nil || fi.Size() != 0 {
		t.Fatalf("wal not rotated: %v / %d bytes", err, fi.Size())
	}
	entries, _ := os.ReadDir(dir)
	snaps := 0
	for _, e := range entries {
		if _, ok := snapGen(e.Name()); ok {
			snaps++
		}
	}
	if snaps > keepSnapshots {
		t.Fatalf("%d snapshots retained, want <= %d", snaps, keepSnapshots)
	}
	_, rec := openStore(t, dir, 1)
	if rec.FromSnapshot == "" || rec.ReplayedBatches != 0 {
		t.Fatalf("recovery: %+v", rec)
	}
	if want, got := snapshotBytes(t, reference(t, g, 4)), snapshotBytes(t, rec.Dataset); !bytes.Equal(want, got) {
		t.Fatal("snapshot-only recovery diverged")
	}
}

// TestFeederGates drives the CSV feeder over a stream containing every
// gated shape and checks batch/row accounting plus dataset purity.
func TestFeederGates(t *testing.T) {
	g := testGen(t)
	dates := g.ScanDates()
	row := func(csv *bytes.Buffer, r *scanner.Record) {
		for i, f := range scanner.FormatScanRow(r) {
			if i > 0 {
				csv.WriteByte(',')
			}
			csv.WriteString(f)
		}
		csv.WriteByte('\n')
	}
	var clean bytes.Buffer
	for _, date := range dates {
		for _, r := range g.Scan(date) {
			row(&clean, r)
		}
	}
	dirty := bytes.NewBufferString(clean.String())
	// A clock-skewed trailer batch, a duplicated scan, a torn final line.
	skewed := g.Scan(dates[0])[0]
	skewed.ScanDate = simtime.StudyEnd + 10
	row(dirty, skewed)
	row(dirty, g.Scan(dates[0])[0])
	dirty.WriteString("2017-03-05,10.0.0.1,443,64512,GR,9")

	drain := func(t *testing.T, f *Feeder) int {
		t.Helper()
		appended := 0
		for {
			_, ok, err := f.Tick()
			if err != nil {
				t.Fatalf("Tick: %v", err)
			}
			if !ok {
				break
			}
			appended++
		}
		f.Finish()
		return appended
	}
	want := scanner.NewDatasetShards(4)
	drain(t, NewFeeder(bytes.NewReader(clean.Bytes()), want, nil, nil))

	ds := scanner.NewDatasetShards(4)
	if appended := drain(t, NewFeeder(bytes.NewReader(dirty.Bytes()), ds, nil, nil)); appended != len(dates) {
		t.Fatalf("appended %d batches, want %d", appended, len(dates))
	}
	if !bytes.Equal(snapshotBytes(t, want), snapshotBytes(t, ds)) {
		t.Fatal("gated feed dataset diverged from clean ingest")
	}
	if ds.Quarantine().Total != 0 {
		t.Fatalf("gated garbage reached the dataset journal: %+v", ds.Quarantine())
	}
}

// appendFrame appends the frame a store with an empty certificate
// dictionary writes for the batch: a starting frame.
func appendFrame(dst []byte, gen uint64, date simtime.Date, records []*scanner.Record) []byte {
	return encodeFrame(dst, new(scanner.CertDict), gen, date, records, scanner.AppendCerts(nil, records))
}

// storeLog is the log a store writes for g's scans with snapshots off: one
// frame that starts the certificate dictionary, the rest continuing it.
func storeLog(tb testing.TB, g *synth.Generator) []byte {
	tb.Helper()
	dir := tb.TempDir()
	s, _, err := Open(Options{Dir: dir, Shards: 2, SnapshotEvery: 1000})
	if err != nil {
		tb.Fatal(err)
	}
	for _, date := range g.ScanDates() {
		if err := s.Append(date, g.Scan(date)); err != nil {
			tb.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		tb.Fatal(err)
	}
	log, err := os.ReadFile(filepath.Join(dir, LogName))
	if err != nil {
		tb.Fatal(err)
	}
	return log
}

// splitFrames cuts a clean log into its frames.
func splitFrames(tb testing.TB, log []byte) [][]byte {
	tb.Helper()
	var frames [][]byte
	for len(log) > 0 {
		n := frameHeader + int(binary.LittleEndian.Uint32(log[4:]))
		frames = append(frames, log[:n])
		log = log[n:]
	}
	return frames
}

// withBase returns a copy of the continuing frame claiming base as the
// dictionary length it was encoded against, its checksum made to match.
func withBase(tb testing.TB, frame []byte, base uint64) []byte {
	tb.Helper()
	if binary.LittleEndian.Uint32(frame) != frameMagicCont {
		tb.Fatal("not a continuing frame")
	}
	r := wire.NewReader(frame[frameHeader:])
	gen := r.Uvarint()
	r.Uvarint()
	if r.Err() != nil {
		tb.Fatal(r.Err())
	}
	w := wire.NewWriter(make([]byte, frameHeader))
	w.Uvarint(gen)
	w.Uvarint(base)
	out := append(w.Bytes(), frame[frameHeader+r.Offset():]...)
	binary.LittleEndian.PutUint32(out, frameMagicCont)
	binary.LittleEndian.PutUint32(out[4:], uint32(len(out)-frameHeader))
	binary.LittleEndian.PutUint32(out[8:], wire.Checksum(out[frameHeader:]))
	return out
}

// baseOf is the dictionary length a continuing frame was encoded against.
func baseOf(frame []byte) uint64 {
	r := wire.NewReader(frame[frameHeader:])
	r.Uvarint()
	return r.Uvarint()
}

// TestReplayRefusesForeignDictionary holds the log-scoped certificate
// dictionary to its replay rule: a continuing frame that names another base
// than the dictionary's length, that comes first in the log, or whose
// records index past the dictionary and its own table is a bad frame,
// counted once by Open, and recovery keeps the frames before it.
func TestReplayRefusesForeignDictionary(t *testing.T) {
	g := synth.New(synth.Config{Domains: 40, Seed: 7, Scans: 3})
	dates := g.ScanDates()
	frames := splitFrames(t, storeLog(t, g))
	if len(frames) != 3 || binary.LittleEndian.Uint32(frames[0]) != frameMagic ||
		binary.LittleEndian.Uint32(frames[1]) != frameMagicCont || binary.LittleEndian.Uint32(frames[2]) != frameMagicCont {
		t.Fatal("a store's log is not one starting frame and two continuing ones")
	}
	b2, b3 := baseOf(frames[1]), baseOf(frames[2])
	if b2 < 2 || b3 < b2 {
		t.Fatalf("bases %d, %d: the corpus introduces too few certificates", b2, b3)
	}
	// A starting frame of one certified record, then frame 2 claiming that
	// one-certificate dictionary as its base: its records still index the
	// first frame's, past 1 + its own table.
	i := slices.IndexFunc(g.Scan(dates[0]), func(r *scanner.Record) bool { return r.Cert != nil })
	small := appendFrame(nil, 2, dates[0], g.Scan(dates[0])[i:i+1])

	cases := []struct {
		name string
		log  [][]byte
		gen  uint64 // recovered generation
		why  string // in Replay's error
	}{
		{"base too high", [][]byte{frames[0], withBase(t, frames[1], b2+1)}, 2, "continues a dictionary"},
		{"base too low", [][]byte{frames[0], frames[1], withBase(t, frames[2], b3-1)}, 3, "continues a dictionary"},
		{"cert index past the table", [][]byte{small, withBase(t, frames[1], 1)}, 2, "cert index"},
		{"continuing frame first", [][]byte{frames[1]}, 0, "continues a dictionary"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			log := bytes.Join(c.log, nil)
			_, err := Replay(log, func(uint64, simtime.Date, []*scanner.Record) error { return nil })
			if !errors.Is(err, ErrBadFrame) || !strings.Contains(err.Error(), c.why) {
				t.Fatalf("Replay = %v, want ErrBadFrame for %q", err, c.why)
			}
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, LogName), log, 0o644); err != nil {
				t.Fatal(err)
			}
			_, rec := openStore(t, dir, 1000)
			if fmt.Sprint(rec.Faults) != fmt.Sprint(map[string]int64{FaultBadFrame: 1}) || rec.Generation != c.gen {
				t.Fatalf("recovery faults %v at generation %d, want one bad_frame at %d", rec.Faults, rec.Generation, c.gen)
			}
		})
	}
}

// TestAppendEncodesBesideStaging appends scans whose records carry fresh
// instances of certificates the dataset has already pooled, so staging's
// route rewrites each record's Cert while the writer goroutine encodes the
// frame (run under -race). A snapshot in the middle cuts the log, and the
// frames after it start a fresh dictionary; the reopened directory must
// hold the uninterrupted ingest's state.
func TestAppendEncodesBesideStaging(t *testing.T) {
	g := synth.New(synth.Config{Domains: 60, Seed: 5, Scans: 6})
	dates := g.ScanDates()
	dir := t.TempDir()
	s, _ := openStore(t, dir, 1000)
	rewritten := 0
	for i, date := range dates {
		_, records, err := scanner.DecodeBatch(scanner.EncodeBatch(date, g.Scan(date)))
		if err != nil {
			t.Fatal(err)
		}
		fresh := scanner.AppendCerts(nil, records)
		if err := s.Append(date, records); err != nil {
			t.Fatal(err)
		}
		for j, rec := range records {
			if rec.Cert != fresh[j] {
				rewritten++
			}
		}
		if i == 2 {
			if err := s.Snapshot(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if rewritten == 0 {
		t.Fatal("staging rewrote no record's certificate")
	}
	_, rec := openStore(t, dir, 1000)
	if rec.FromSnapshot == "" || rec.ReplayedBatches != len(dates)-3 || len(rec.Faults) != 0 {
		t.Fatalf("recovery: %+v, want the snapshot and %d frames", rec, len(dates)-3)
	}
	if want, got := snapshotBytes(t, reference(t, g, 4)), snapshotBytes(t, rec.Dataset); !bytes.Equal(want, got) {
		t.Fatal("recovered dataset not byte-identical to uninterrupted ingest")
	}
}

// BenchmarkWALAppend encodes one 2 500-record synth scan's frame and writes
// it to a file (no fsync): as the first frame after a rotation, when the
// whole certificate table goes into it, and in the steady state, against a
// dictionary that holds the scan before's certificates.
func BenchmarkWALAppend(b *testing.B) {
	g := synth.New(synth.Config{Domains: 2500, Seed: 1, Scans: 2})
	dates := g.ScanDates()
	prev, scan := g.Scan(dates[0]), g.Scan(dates[1])
	prevCerts, certs := scanner.AppendCerts(nil, prev), scanner.AppendCerts(nil, scan)
	f, err := os.Create(filepath.Join(b.TempDir(), LogName))
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	for _, steady := range []bool{false, true} {
		name := "first"
		if steady {
			name = "steady"
		}
		b.Run(name, func(b *testing.B) {
			var dict scanner.CertDict
			var frame []byte
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				dict.Reset()
				if steady {
					frame = encodeFrame(frame[:0], &dict, 2, dates[0], prev, prevCerts)
				}
				b.StartTimer()
				frame = encodeFrame(frame[:0], &dict, 3, dates[1], scan, certs)
				if _, err := f.WriteAt(frame, 0); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(frame)), "frame-B")
			b.ReportMetric(float64(len(scan)), "records")
		})
	}
}
