package wal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"retrodns/internal/core"
	"retrodns/internal/obsv"
	"retrodns/internal/pdns"
	"retrodns/internal/synth"
)

// TestSnapshotSpans: every snapshot write observes each of its steps once
// and counts the file's bytes, on the registry that /metrics and the run
// report read; a Snapshot with nothing new to capture writes nothing and
// observes nothing.
func TestSnapshotSpans(t *testing.T) {
	reg := obsv.NewRegistry()
	s, _, err := Open(Options{Dir: t.TempDir(), Shards: 4, SnapshotEvery: 1000, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	g := testGen(t)
	dates := g.ScanDates()
	var files int64
	for i, date := range dates[:2] {
		if err := s.Append(date, g.Scan(date)); err != nil {
			t.Fatal(err)
		}
		for range 2 { // the second call finds nothing new
			if err := s.Snapshot(); err != nil {
				t.Fatal(err)
			}
		}
		fi, err := os.Stat(filepath.Join(s.dir, snapName(s.Generation())))
		if err != nil {
			t.Fatalf("snapshot %d: %v", i, err)
		}
		files += fi.Size()
	}
	counts := map[string]int64{}
	var written int64
	for _, smp := range reg.Snapshot() {
		switch smp.Name {
		case MetricWALSnapshotSec:
			counts[smp.Labels["step"]] = smp.Count
		case MetricWALSnapshotByte:
			written = smp.Value
		}
	}
	if fmt.Sprint(counts) != fmt.Sprint(map[string]int64{"encode": 2, "write": 2}) {
		t.Fatalf("%s counts %v, want two observations per step", MetricWALSnapshotSec, counts)
	}
	if written != files {
		t.Fatalf("%s = %d, want the %d bytes of the two files", MetricWALSnapshotByte, written, files)
	}
	var prom bytes.Buffer
	if err := reg.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{
		fmt.Sprintf("%s_count{step=%q} 2", MetricWALSnapshotSec, "encode"),
		fmt.Sprintf("%s_count{step=%q} 2", MetricWALSnapshotSec, "write"),
		fmt.Sprintf("%s %d", MetricWALSnapshotByte, files),
		"# HELP " + MetricWALSnapshotSec + " ",
		"# HELP " + MetricWALSnapshotByte + " ",
	} {
		if !strings.Contains(prom.String(), line) {
			t.Errorf("/metrics lacks %q", line)
		}
	}
}

// TestSnapshotWriteAllocation writes one dataset's snapshot (classify
// cache included) twice and holds each write to at most 3x the file's size
// in allocated bytes: each section is encoded once into a buffer sized from
// the dataset's counts for the first write and from the first write for
// the second, each resident shard's segment image is rendered in buffers
// reused from shard to shard, and the file goes to disk as its parts.
// Copying the sections into a frame, each image through a fresh buffer per
// shard, or growing the first write's buffer by doubling costs over that.
func TestSnapshotWriteAllocation(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 1500-domain corpus")
	}
	g := synth.New(synth.Config{Domains: 1500, Seed: 3, Scans: 24})
	s, rec := openStore(t, t.TempDir(), 1000)
	pipe := &core.Pipeline{
		Params: core.DefaultParams(), Dataset: rec.Dataset, PDNS: pdns.NewDB(), Workers: 2, Cache: rec.Cache,
	}
	appendAll(t, s, g)
	pipe.Run()
	gen := s.ds.Generation()
	for _, write := range []string{"first", "second"} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		n, err := s.writeSnapshotFile(gen)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if fi, err := os.Stat(filepath.Join(s.dir, snapName(gen))); err != nil || fi.Size() != n {
			t.Fatalf("snapshot file: %v, size %d, want %d", err, fi.Size(), n)
		}
		alloc := after.TotalAlloc - before.TotalAlloc
		t.Logf("snapshot %d bytes, %s write allocated %d bytes (%.2fx)", n, write, alloc, float64(alloc)/float64(n))
		if alloc > 3*uint64(n) {
			t.Fatalf("%s snapshot write allocated %d bytes, %.2fx its %d-byte file; want <= 3x", write, alloc, float64(alloc)/float64(n), n)
		}
	}
}
