package scanner

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"retrodns/internal/dnscore"
	"retrodns/internal/simtime"
)

// bigBatch builds a scan large enough to cross parallelIngestThreshold,
// spread over many registered domains so every shard sees work.
func bigBatch(t *testing.T, date simtime.Date, n int) []*Record {
	t.Helper()
	out := make([]*Record, 0, n)
	for i := 0; i < n; i++ {
		apex := dnscore.Name(fmt.Sprintf("big%05d.example", i%(n/2+1)))
		c := quarCert(uint64(i)+1, apex, "www."+apex)
		out = append(out, quarRec(date, fmt.Sprintf("84.205.%d.%d", (i/250)%250+1, i%250+1), c))
	}
	return out
}

// TestShardCountInvariance ingests the same scans into datasets sharded
// 1, 3, and 8 ways — bulk scans consumed by parallel shard workers, small
// ones serially — and requires every public read to be identical.
func TestShardCountInvariance(t *testing.T) {
	big := bigBatch(t, 7, 3000)
	small, smallBatch := badBatch(14)
	_ = small
	capture := func(ds *Dataset) map[string]any {
		doms := ds.Domains()
		recs := make(map[dnscore.Name][]*Record)
		for _, d := range doms {
			recs[d] = ds.DomainRecords(d, 0, 0)
		}
		cells, periods := ds.DirtySince(0)
		nd, nr := ds.Size()
		return map[string]any{
			"domains": doms, "records": recs, "dates": ds.ScanDates(0, 0),
			"periods": ds.Periods(), "cells": cells, "dirtyPeriods": periods,
			"quar": ds.Quarantine(), "gen": ds.Generation(), "nd": nd, "nr": nr,
		}
	}
	var want map[string]any
	for _, shards := range []int{1, 3, 8} {
		ds := NewDatasetShards(shards)
		if ds.Shards() != shards {
			t.Fatalf("Shards() = %d, want %d", ds.Shards(), shards)
		}
		if err := ds.AddScan(7, big); err != nil {
			t.Fatal(err)
		}
		ds.Freeze()
		if err := ds.Append(14, smallBatch); err != nil {
			t.Fatal(err)
		}
		got := capture(ds)
		if want == nil {
			want = got
			continue
		}
		for key := range want {
			if !reflect.DeepEqual(want[key], got[key]) {
				t.Errorf("shards=%d: %s differs from shards=1", shards, key)
			}
		}
	}
}

// TestParallelIngestMatchesSerial pins the routed path to identical
// results whether the shard buckets are consumed one after another (scans
// under the threshold) or by parallel workers, on the same large scan.
func TestParallelIngestMatchesSerial(t *testing.T) {
	big := bigBatch(t, 7, int(parallelIngestThreshold)+500)
	serial := NewDatasetShards(4)
	// Split into sub-threshold chunks: one worker throughout.
	for lo := 0; lo < len(big); lo += 500 {
		hi := lo + 500
		if hi > len(big) {
			hi = len(big)
		}
		if err := serial.AddScan(7, big[lo:hi]); err != nil {
			t.Fatal(err)
		}
	}
	serial.Freeze()
	parallel := NewDatasetShards(4)
	if err := parallel.AddScan(7, big); err != nil {
		t.Fatal(err)
	}
	parallel.Freeze()
	if !reflect.DeepEqual(serial.Domains(), parallel.Domains()) {
		t.Fatal("domain lists differ between serial and parallel ingest")
	}
	sd, sr := serial.Size()
	pd, pr := parallel.Size()
	if sd != pd || sr != pr {
		t.Fatalf("sizes differ: serial (%d,%d) parallel (%d,%d)", sd, sr, pd, pr)
	}
	for _, d := range serial.Domains() {
		a, b := serial.DomainRecords(d, 0, 0), parallel.DomainRecords(d, 0, 0)
		if len(a) != len(b) {
			t.Fatalf("%s: %d vs %d records", d, len(a), len(b))
		}
		for i := range a {
			if a[i].IP != b[i].IP || a[i].ScanDate != b[i].ScanDate {
				t.Fatalf("%s record %d differs", d, i)
			}
		}
	}
}

// TestConcurrentAppendAcrossShardsDuringReads hammers lock-free readers
// while a writer Appends bulk (parallel-path) scans; run under -race by
// the ci target. Readers must always observe internally consistent
// snapshots regardless of which shards have republished.
func TestConcurrentAppendAcrossShardsDuringReads(t *testing.T) {
	ds := NewDatasetShards(8)
	if err := ds.Append(7, bigBatch(t, 7, 3000)); err != nil {
		t.Fatal(err)
	}
	domains := ds.Domains()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			prev := 0
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				d := domains[(g*31+i)%len(domains)]
				recs := ds.DomainRecords(d, 0, 0)
				for k := 1; k < len(recs); k++ {
					if recs[k].ScanDate < recs[k-1].ScanDate {
						t.Error("records out of order")
						return
					}
				}
				_, nr := ds.Size()
				if nr < prev {
					t.Errorf("record count shrank: %d -> %d", prev, nr)
					return
				}
				prev = nr
				_ = ds.Domains()
				_, _ = ds.DirtySince(1)
				_ = ds.Quarantine()
			}
		}(g)
	}
	for week := 1; week <= 6; week++ {
		date := simtime.Date(7 + 7*week)
		if err := ds.Append(date, bigBatch(t, date, 3000)); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

// TestInternDedupsCertsAndNames pins the certificate pool: identical
// certificates arriving as distinct objects collapse to one pooled
// instance, the first one ingest was handed.
func TestInternDedupsCertsAndNames(t *testing.T) {
	mk := func() *Record {
		return quarRec(7, "84.205.9.9", quarCert(77, "www.pooled.example", "mail.pooled.example"))
	}
	ds := NewDataset()
	first := mk()
	if err := ds.AddScan(7, []*Record{first}); err != nil {
		t.Fatal(err)
	}
	if err := ds.AddScan(14, []*Record{mk()}); err != nil {
		t.Fatal(err)
	}
	ds.Freeze()
	recs := ds.DomainRecords("pooled.example", 0, 0)
	if len(recs) != 2 {
		t.Fatalf("records = %d, want 2", len(recs))
	}
	if recs[0].Cert != recs[1].Cert {
		t.Fatal("identical certs not deduped to one instance")
	}
	if recs[0].Cert != first.Cert {
		t.Fatal("the pool holds a copy, not the first instance it was handed")
	}
	if st := ds.Pool().Stats(); st.Certs != 1 {
		t.Fatalf("cert pool size = %d, want 1", st.Certs)
	}
}

// TestReserveKeepsEntries sizes an accumulation map that already holds
// entries, beside an empty one: nothing held is dropped, and a frozen
// shard, which has no accumulation map, stays without one. (The pool's
// Reserve has TestPoolReserveKeepsEntries.)
func TestReserveKeepsEntries(t *testing.T) {
	s, empty := newShard(), newShard()
	rec := quarRec(7, "84.205.1.1", quarCert(1, "www.held.example"))
	s.stage([][]routed{{{rec, "held.example"}}}, 0, false)
	s.reserve(1 << 12)
	empty.reserve(1 << 12)
	if got := s.byDomain["held.example"]; len(got) != 1 || got[0] != rec {
		t.Fatalf("reserve dropped an accumulated window: %v", got)
	}
	if len(empty.byDomain) != 0 || empty.byDomain == nil {
		t.Fatal("a reserved empty shard should be empty and ready")
	}
	s.freeze()
	s.reserve(1 << 12)
	if s.byDomain != nil {
		t.Fatal("reserve gave a frozen shard an accumulation map")
	}
}

// TestDistinctCertsCountsInstancesOnce sizes a scan where one certificate
// sits on thousands of addresses, as a CDN's does: it counts once, with its
// SANs, and gated records not at all.
func TestDistinctCertsCountsInstancesOnce(t *testing.T) {
	cdn := quarCert(1, "a.cdn.example", "b.cdn.example", "c.cdn.example")
	own := quarCert(2, "www.own.example")
	var recs []*Record
	for i := 0; i < 3000; i++ {
		recs = append(recs, quarRec(7, fmt.Sprintf("10.0.%d.%d", i>>8, i&255), cdn))
	}
	recs = append(recs, quarRec(7, "84.205.1.1", own), &Record{ScanDate: 7})
	gates := make([]uint8, len(recs))
	gates[len(recs)-1] = 1
	if certs, names := distinctCerts(recs, gates, len(recs)-1); certs != 2 || names != 4 {
		t.Fatalf("distinctCerts = (%d certs, %d names), want (2, 4)", certs, names)
	}
}

// TestShardRouting pins the routing function's stability and bounds.
func TestShardRouting(t *testing.T) {
	if shardIndexOf("anything.example", 1) != 0 {
		t.Fatal("single shard must route everything to 0")
	}
	seen := make(map[int]bool)
	for i := 0; i < 512; i++ {
		apex := dnscore.Name(fmt.Sprintf("route%d.example", i))
		sid := shardIndexOf(apex, 8)
		if sid < 0 || sid >= 8 {
			t.Fatalf("shard %d out of range", sid)
		}
		if sid != shardIndexOf(apex, 8) {
			t.Fatal("routing not stable")
		}
		seen[sid] = true
	}
	if len(seen) != 8 {
		t.Fatalf("512 domains hit only %d of 8 shards", len(seen))
	}
}

// TestEstimatedBytesGrows sanity-checks the corpus-bytes model.
func TestEstimatedBytesGrows(t *testing.T) {
	ds := NewDataset()
	if ds.EstimatedBytes() != 0 {
		t.Fatalf("empty dataset estimate = %d", ds.EstimatedBytes())
	}
	if err := ds.AddScan(7, bigBatch(t, 7, 1000)); err != nil {
		t.Fatal(err)
	}
	small := ds.EstimatedBytes()
	if small <= 0 {
		t.Fatalf("estimate = %d after ingest", small)
	}
	if err := ds.AddScan(14, bigBatch(t, 14, 1000)); err != nil {
		t.Fatal(err)
	}
	if grown := ds.EstimatedBytes(); grown <= small {
		t.Fatalf("estimate did not grow: %d -> %d", small, grown)
	}
}

// TestMergeDomainsMatchesSort pins the k-way merge against sorting the
// union, over empty, single, lopsided and interleaved list shapes, and
// checks the result never aliases an input.
func TestMergeDomainsMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		k := 1 + rng.Intn(10)
		lists := make([][]dnscore.Name, k)
		var union []dnscore.Name
		for i, n := 0, rng.Intn(500); i < n; i++ {
			name := dnscore.Name(fmt.Sprintf("d%06d.example", rng.Intn(1e6)))
			if slices.Contains(union, name) {
				continue
			}
			union = append(union, name)
			l := rng.Intn(k)
			if trial%3 == 0 {
				l = 0 // lopsided: one long list beside short ones
			}
			lists[l] = append(lists[l], name)
		}
		for _, l := range lists {
			slices.Sort(l)
		}
		got := mergeDomains(lists[0], lists[1:]...)
		slices.Sort(union)
		if !slices.Equal(got, union) {
			t.Fatalf("trial %d: merge of %d lists = %v, want %v", trial, k, got, union)
		}
		if len(got) > 0 {
			got[0] = "mutated"
			for _, l := range lists {
				if len(l) > 0 && l[0] == "mutated" {
					t.Fatalf("trial %d: merged list aliases an input", trial)
				}
			}
		}
	}
}
