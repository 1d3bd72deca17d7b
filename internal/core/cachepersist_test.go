package core

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"retrodns/internal/dnscore"
	"retrodns/internal/pdns"
	"retrodns/internal/scanner"
	"retrodns/internal/synth"
	"retrodns/internal/wire"
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
	ccBuf, err := pipe.Cache.EncodeState(nil)
	if err != nil {
		t.Fatalf("cache encode: %v", err)
	}
	cache := NewClassifyCache()
	if err := cache.DecodeState(ccBuf, ds); err != nil {
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
// pointers: the restored cache rebuilds its maps from the windows it reads
// and must replay every cell.
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
	ccBuf, err := pipe.Cache.EncodeState(nil)
	if err != nil {
		t.Fatalf("cache encode over spilled shards: %v", err)
	}
	cache := NewClassifyCache()
	if err := cache.DecodeState(ccBuf, pipe.Dataset); err != nil {
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
	ccBuf, err := pipe.Cache.EncodeState(nil)
	if err != nil {
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
	if err := cache.DecodeState(ccBuf, ds); err != nil {
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
	ccBuf, err := pipe.Cache.EncodeState(nil)
	if err != nil {
		t.Fatal(err)
	}
	valid := ccBuf
	for _, tc := range [][]byte{nil, []byte("junk"), valid[:len(valid)/3]} {
		cache := NewClassifyCache()
		if err := cache.DecodeState(tc, pipe.Dataset); err == nil {
			t.Fatalf("decode of %d-byte garbage succeeded", len(tc))
		} else if !errors.Is(err, ErrCacheState) && !errors.Is(err, wire.ErrMalformed) {
			t.Fatalf("untyped decode error: %v", err)
		}
	}
	// A valid payload against the wrong dataset must fail, not poison.
	cache := NewClassifyCache()
	if err := cache.DecodeState(valid, scanner.NewDataset()); err == nil {
		t.Fatal("decode against mismatched dataset succeeded")
	}
}

// FuzzDecodeState holds DecodeState to its refusal contract over arbitrary
// payloads against a small fixed dataset: a typed error or a restored
// cache, never a panic. A restored cache re-encodes to a payload that
// restores and re-encodes to the very same bytes, and a payload EncodeState
// wrote re-encodes to itself (wire accepts a varint longer than it needs
// to be, so an arbitrary accepted payload can differ from its re-encoding
// in that alone).
func FuzzDecodeState(f *testing.F) {
	g := synth.New(synth.Config{Domains: 30, Seed: 3, Scans: 3, CadenceDays: 100, TransientPerMille: 60})
	ds := scanner.NewDataset()
	for _, date := range g.ScanDates() {
		if err := ds.Append(date, g.Scan(date)); err != nil {
			f.Fatal(err)
		}
	}
	pipe := &Pipeline{Params: DefaultParams(), Dataset: ds, PDNS: pdns.NewDB(), Workers: 1, Cache: NewClassifyCache()}
	pipe.Run()
	encode := func(c *ClassifyCache) []byte {
		buf, err := c.EncodeState(nil)
		if err != nil {
			f.Fatalf("EncodeState of a restored cache: %v", err)
		}
		return buf
	}
	valid := encode(pipe.Cache)
	restored := NewClassifyCache()
	if err := restored.DecodeState(valid, ds); err != nil {
		f.Fatal(err)
	}
	if !bytes.Equal(encode(restored), valid) {
		f.Fatal("a payload EncodeState wrote does not re-encode to itself")
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(encode(NewClassifyCache()))
	f.Add([]byte("\x04rcc1"))

	f.Fuzz(func(t *testing.T, data []byte) {
		c := NewClassifyCache()
		if err := c.DecodeState(data, ds); err != nil {
			if !errors.Is(err, ErrCacheState) && !errors.Is(err, wire.ErrMalformed) {
				t.Fatalf("untyped refusal: %v", err)
			}
			return
		}
		again := encode(c)
		c2 := NewClassifyCache()
		if err := c2.DecodeState(again, ds); err != nil {
			t.Fatalf("re-encoded payload refused: %v", err)
		}
		if !bytes.Equal(encode(c2), again) {
			t.Fatal("re-encoding is not a fixed point")
		}
	})
}

// TestCacheStateRefusesDomainNotHeld: a payload naming a domain the dataset
// does not hold, with a cell over records, is a typed refusal. The build
// walks the dataset's rosters, so it never reaches such a domain and must
// catch it as parsed but unvisited — whether the name sorts before, among
// or after the owning shard's roster. A domain whose cells hold no records
// has nothing to build, and restores as it always has.
func TestCacheStateRefusesDomainNotHeld(t *testing.T) {
	scans, pipe := incrementalWorld(t, 2, false)
	for _, s := range scans {
		pipe.Dataset.Append(s.date, s.recs)
	}
	pipe.Run()
	ds, cache := pipe.Dataset, pipe.Cache
	var held *domainCells
	for _, cells := range cache.byShard {
		for _, dc := range cells {
			if dc.cells[0].class != nil {
				held = dc
			}
		}
	}
	if held == nil {
		t.Fatal("no cached domain has a map in period 0")
	}
	encodeWith := func(name dnscore.Name, dc *domainCells) []byte {
		t.Helper()
		cells := cache.byShard[ds.ShardOf(name)]
		cells[name] = dc
		defer delete(cells, name)
		payload, err := cache.EncodeState(nil)
		if err != nil {
			t.Fatal(err)
		}
		return payload
	}
	for _, name := range []dnscore.Name{"0-not-held.example", "m-not-held.example", "zz-not-held.example"} {
		err := NewClassifyCache().DecodeState(encodeWith(name, held), ds)
		if !errors.Is(err, ErrCacheState) || !strings.Contains(err.Error(), string(name)) {
			t.Errorf("%s with a map cell: DecodeState = %v, want an ErrCacheState naming it", name, err)
		}
	}
	empty := &domainCells{}
	empty.cells[0].built = true
	payload := encodeWith("m-not-held.example", empty)
	restored := NewClassifyCache()
	if err := restored.DecodeState(payload, ds); err != nil {
		t.Fatalf("a domain with only empty cells: %v", err)
	}
	if again, err := restored.EncodeState(nil); err != nil || !bytes.Equal(again, payload) {
		t.Fatalf("restored cache re-encodes differently (err %v)", err)
	}
}

// TestCacheStateKeysOnRoster restores a cache with a domain of map cells
// and a domain whose only cell is empty, which the build walk skips, and
// requires every restored key to be the dataset roster's own string, not
// a copy parsed out of the payload.
func TestCacheStateKeysOnRoster(t *testing.T) {
	scans, pipe := incrementalWorld(t, 2, false)
	for _, s := range scans {
		pipe.Dataset.Append(s.date, s.recs)
	}
	pipe.Run()
	ds, cache := pipe.Dataset, pipe.Cache
	var bare dnscore.Name
	for _, domain := range ds.Domains() {
		if dc := cache.byShard[ds.ShardOf(domain)][domain]; dc != nil && dc.cells[0].class != nil {
			bare = domain
			break
		}
	}
	if bare == "" {
		t.Fatal("no cached domain has a map in period 0")
	}
	empty := &domainCells{}
	empty.cells[0].built = true
	cells := cache.byShard[ds.ShardOf(bare)]
	cells[bare] = empty
	payload, err := cache.EncodeState(nil)
	if err != nil {
		t.Fatal(err)
	}
	restored := NewClassifyCache()
	if err := restored.DecodeState(payload, ds); err != nil {
		t.Fatal(err)
	}
	keys := 0
	for sid, cells := range restored.byShard {
		roster := ds.ShardDomains(sid)
		for key := range cells {
			j, ok := slices.BinarySearch(roster, key)
			if !ok || unsafe.StringData(string(roster[j])) != unsafe.StringData(string(key)) {
				t.Fatalf("shard %d: key %q is not the roster's string", sid, key)
			}
			keys++
		}
	}
	if restored.byShard[ds.ShardOf(bare)][bare] == nil || keys < 2 {
		t.Fatalf("restored %d keys, the bare domain %s among them: %v", keys, bare, restored.byShard[ds.ShardOf(bare)][bare] != nil)
	}
}

// TestCacheStateRestoreOnTwoWorkers restores the cache of a 600-domain,
// eight-shard corpus with GOMAXPROCS at 2, so the build walks two shards
// at once (make race runs it under the race detector), and holds the
// restored cache to the original: the same payload back, and a run that
// replays every cell to the same Result.
func TestCacheStateRestoreOnTwoWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	g := synth.New(synth.Config{Domains: 600, Seed: 11, Scans: 12, TransientPerMille: 40})
	ds := scanner.NewDatasetShards(8)
	for _, date := range g.ScanDates() {
		if err := ds.Append(date, g.Scan(date)); err != nil {
			t.Fatal(err)
		}
	}
	pipe := &Pipeline{Params: DefaultParams(), Dataset: ds, PDNS: pdns.NewDB(), Workers: 2, Cache: NewClassifyCache()}
	base := pipe.Run()
	payload, err := pipe.Cache.EncodeState(nil)
	if err != nil {
		t.Fatal(err)
	}
	cache := NewClassifyCache()
	if err := cache.DecodeState(payload, ds); err != nil {
		t.Fatal(err)
	}
	if again, err := cache.EncodeState(nil); err != nil || !bytes.Equal(again, payload) {
		t.Fatalf("restored cache re-encodes differently (err %v)", err)
	}
	warm := &Pipeline{Params: pipe.Params, Dataset: ds, PDNS: pipe.PDNS, Workers: 2, Cache: cache}
	got := warm.Run()
	if !reflect.DeepEqual(digestResult(base), digestResult(got)) {
		t.Fatal("restored pipeline Result diverged from original")
	}
	if got.Stats.CacheMisses != 0 || got.Stats.CacheHits != base.Funnel.Maps {
		t.Fatalf("restored run: %d misses, %d hits; want all %d maps hits", got.Stats.CacheMisses, got.Stats.CacheHits, base.Funnel.Maps)
	}
}
