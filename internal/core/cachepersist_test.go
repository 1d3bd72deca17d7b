package core

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"retrodns/internal/dnscore"
	"retrodns/internal/scanner"
)

// restorePipeline serializes pipe's dataset and cache, decodes both into
// fresh instances, and returns a pipeline over the restored pair.
func restorePipeline(t *testing.T, pipe *Pipeline) *Pipeline {
	t.Helper()
	var dsBuf bytes.Buffer
	if err := pipe.Dataset.EncodeSnapshot(&dsBuf); err != nil {
		t.Fatalf("dataset encode: %v", err)
	}
	ds, err := scanner.DecodeSnapshot(dsBuf.Bytes())
	if err != nil {
		t.Fatalf("dataset decode: %v", err)
	}
	var ccBuf bytes.Buffer
	if err := pipe.Cache.EncodeState(&ccBuf); err != nil {
		t.Fatalf("cache encode: %v", err)
	}
	cache := NewClassifyCache()
	if err := cache.DecodeState(ccBuf.Bytes(), ds); err != nil {
		t.Fatalf("cache decode: %v", err)
	}
	return &Pipeline{
		Params: pipe.Params, Dataset: ds, Meta: pipe.Meta,
		PDNS: pipe.PDNS, CT: pipe.CT, DNSSEC: pipe.DNSSEC,
		Workers: pipe.Workers, Cache: cache,
	}
}

// resultDigest renders a Result's behavioral content to comparable values.
// Findings and candidates hold rebuilt record/cert pointers after a
// restore, so pointer-graph DeepEqual would diverge on identity alone
// (certificate fingerprint memos are atomics); the digest renders them
// instead. Byte-level identity is asserted end-to-end at the report layer
// (TestWarmRestartBytesIdentical).
type resultDigest struct {
	Funnel     FunnelStats
	History    map[dnscore.Name]PeriodCategories
	Hijacked   []string
	Targeted   []string
	Candidates []string
}

func digestResult(r *Result) resultDigest {
	d := resultDigest{Funnel: r.Funnel, History: r.History}
	for _, f := range r.Hijacked {
		d.Hijacked = append(d.Hijacked, fmt.Sprintf("%+v", *f))
	}
	for _, f := range r.Targeted {
		d.Targeted = append(d.Targeted, fmt.Sprintf("%+v", *f))
	}
	for _, c := range r.Candidates {
		d.Candidates = append(d.Candidates, c.String())
	}
	return d
}

// TestCacheStateRoundTrip runs the study through a cached pipeline, round
// trips dataset + cache through their snapshot encodings, re-runs over the
// restored pair, and requires (a) an identical Result and (b) zero cache
// misses — the warm-restart contract: clean cells replay verbatim.
func TestCacheStateRoundTrip(t *testing.T) {
	scans, pipe := incrementalWorld(t, 4, false)
	for _, s := range scans {
		pipe.Dataset.Append(s.date, s.recs)
	}
	base := pipe.Run()

	warm := restorePipeline(t, pipe)
	got := warm.Run()
	if !reflect.DeepEqual(digestResult(base), digestResult(got)) {
		t.Fatal("restored pipeline Result diverged from original")
	}
	if got.Stats.CacheMisses != 0 {
		t.Fatalf("warm run recomputed %d cells, want 0 (hits=%d)",
			got.Stats.CacheMisses, got.Stats.CacheHits)
	}
	if got.Stats.CacheHits == 0 {
		t.Fatal("warm run hit no cells — cache restore was vacuous")
	}
}

// TestCacheStateRoundTripSpilled encodes the cache of a dataset whose
// shards all live on disk. A spilled shard decodes a fresh window on every
// read, so the cached records are copies of the window's, never the same
// pointers: the encoding must match them by content, and the restored
// cache must replay every cell.
func TestCacheStateRoundTripSpilled(t *testing.T) {
	scans, pipe := incrementalWorld(t, 4, false)
	if err := pipe.Dataset.ConfigureSpill(scanner.SpillOptions{Dir: t.TempDir(), BudgetBytes: 0}); err != nil {
		t.Fatal(err)
	}
	for _, s := range scans {
		pipe.Dataset.Append(s.date, s.recs)
	}
	base := pipe.Run()
	if pipe.Dataset.SpilledShards() == 0 {
		t.Fatal("nothing spilled")
	}
	var ccBuf bytes.Buffer
	if err := pipe.Cache.EncodeState(&ccBuf); err != nil {
		t.Fatalf("cache encode over spilled shards: %v", err)
	}
	cache := NewClassifyCache()
	if err := cache.DecodeState(ccBuf.Bytes(), pipe.Dataset); err != nil {
		t.Fatalf("cache decode: %v", err)
	}
	pipe.Cache = cache
	got := pipe.Run()
	if !reflect.DeepEqual(digestResult(base), digestResult(got)) {
		t.Fatal("restored pipeline Result diverged from original")
	}
	if got.Stats.CacheMisses != 0 || got.Stats.CacheHits == 0 {
		t.Fatalf("restored run: %d misses, %d hits; want every cell a hit", got.Stats.CacheMisses, got.Stats.CacheHits)
	}
}

// TestCacheStateRestoreThenAppend restores mid-study and replays the rest
// through Append — the snapshot + WAL-replay shape. Every post-restore
// Result must match the uninterrupted pipeline's.
func TestCacheStateRestoreThenAppend(t *testing.T) {
	scans, pipe := incrementalWorld(t, 4, false)
	half := len(scans) / 2
	for _, s := range scans[:half] {
		pipe.Dataset.Append(s.date, s.recs)
	}
	pipe.Run()

	warm := restorePipeline(t, pipe)
	for i := half; i < len(scans); i++ {
		if err := pipe.Dataset.Append(scans[i].date, scans[i].recs); err != nil {
			t.Fatal(err)
		}
		if err := warm.Dataset.Append(scans[i].date, scans[i].recs); err != nil {
			t.Fatal(err)
		}
		want := pipe.Run()
		got := warm.Run()
		if !reflect.DeepEqual(digestResult(want), digestResult(got)) {
			t.Fatalf("scan %d: restored pipeline diverged after Append", i)
		}
	}
}

// TestCacheStateRestoreAfterReplay restores a cache taken at generation G
// against a dataset that has replayed appends past G (windows grew beyond
// each cell's recCount) — extendCell must absorb the delta, not rebuild
// everything.
func TestCacheStateRestoreAfterReplay(t *testing.T) {
	scans, pipe := incrementalWorld(t, 4, false)
	half := len(scans) / 2
	for _, s := range scans[:half] {
		pipe.Dataset.Append(s.date, s.recs)
	}
	pipe.Run()
	var ccBuf bytes.Buffer
	if err := pipe.Cache.EncodeState(&ccBuf); err != nil {
		t.Fatal(err)
	}
	// The dataset moves on (the WAL-replay analogue)...
	for _, s := range scans[half:] {
		pipe.Dataset.Append(s.date, s.recs)
	}
	var dsBuf bytes.Buffer
	if err := pipe.Dataset.EncodeSnapshot(&dsBuf); err != nil {
		t.Fatal(err)
	}
	ds, err := scanner.DecodeSnapshot(dsBuf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	// ...and the stale cache restores against it.
	cache := NewClassifyCache()
	if err := cache.DecodeState(ccBuf.Bytes(), ds); err != nil {
		t.Fatalf("stale cache decode: %v", err)
	}
	warm := &Pipeline{
		Params: pipe.Params, Dataset: ds, Meta: pipe.Meta,
		PDNS: pipe.PDNS, CT: pipe.CT, DNSSEC: pipe.DNSSEC,
		Workers: pipe.Workers, Cache: cache,
	}
	want := pipe.Run()
	got := warm.Run()
	if !reflect.DeepEqual(digestResult(want), digestResult(got)) {
		t.Fatal("stale-cache restore + replayed dataset diverged from uninterrupted run")
	}
}

func TestCacheStateDecodeRejectsGarbage(t *testing.T) {
	scans, pipe := incrementalWorld(t, 2, false)
	for _, s := range scans {
		pipe.Dataset.Append(s.date, s.recs)
	}
	pipe.Run()
	var ccBuf bytes.Buffer
	if err := pipe.Cache.EncodeState(&ccBuf); err != nil {
		t.Fatal(err)
	}
	valid := ccBuf.Bytes()
	for _, tc := range [][]byte{nil, []byte("junk"), valid[:len(valid)/3]} {
		cache := NewClassifyCache()
		if err := cache.DecodeState(tc, pipe.Dataset); err == nil {
			t.Fatalf("decode of %d-byte garbage succeeded", len(tc))
		} else if !errors.Is(err, ErrCacheState) && !errors.Is(err, scanner.ErrCodec) {
			t.Fatalf("untyped decode error: %v", err)
		}
	}
	// A valid payload against the wrong dataset must fail, not poison.
	cache := NewClassifyCache()
	if err := cache.DecodeState(valid, scanner.NewDataset()); err == nil {
		t.Fatal("decode against mismatched dataset succeeded")
	}
}
