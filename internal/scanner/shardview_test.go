package scanner

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"retrodns/internal/dnscore"
	"retrodns/internal/ipmeta"
	"retrodns/internal/simtime"
)

// TestShardViewMatchesDataset proves the per-shard read path is a pure
// re-routing of the global one: the union of ShardDomains is Domains(),
// the per-shard lists are disjoint and sorted, and every windowed
// DomainRecords read through a view matches the Dataset read exactly.
func TestShardViewMatchesDataset(t *testing.T) {
	big := bigBatch(t, 7, 3000)
	ds := NewDatasetShards(8)
	if err := ds.AddScan(7, big); err != nil {
		t.Fatal(err)
	}

	// Unfrozen: views are empty, never panicking.
	if got := ds.ShardDomains(0); got != nil {
		t.Fatalf("unfrozen ShardDomains = %v, want nil", got)
	}
	if got := ds.ShardView(0).DomainRecords("big00001.example", 0, 0); got != nil {
		t.Fatalf("unfrozen view DomainRecords = %v, want nil", got)
	}

	ds.Freeze()
	var merged []dnscore.Name
	seen := make(map[dnscore.Name]bool)
	for sid := 0; sid < ds.Shards(); sid++ {
		doms := ds.ShardDomains(sid)
		if !sort.SliceIsSorted(doms, func(i, j int) bool { return doms[i] < doms[j] }) {
			t.Fatalf("shard %d domain list not sorted", sid)
		}
		v := ds.ShardView(sid)
		if !reflect.DeepEqual(v.Domains(), doms) {
			t.Fatalf("shard %d: view.Domains != ShardDomains", sid)
		}
		for _, d := range doms {
			if seen[d] {
				t.Fatalf("domain %s owned by two shards", d)
			}
			seen[d] = true
			for _, w := range [][2]simtime.Date{{0, 0}, {0, 8}, {7, 8}, {8, 0}} {
				from, to := w[0], w[1]
				got := v.DomainRecords(d, from, to)
				want := ds.DomainRecords(d, from, to)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("shard %d %s window [%d,%d): view read differs", sid, d, from, to)
				}
			}
		}
		merged = append(merged, doms...)
	}
	sort.Slice(merged, func(i, j int) bool { return merged[i] < merged[j] })
	if !reflect.DeepEqual(merged, ds.Domains()) {
		t.Fatalf("sorted union of shard domains != Domains(): %d vs %d", len(merged), len(ds.Domains()))
	}

	// ShardViewFor routes to the owning shard: same records as the view of
	// the computed shard index.
	for _, d := range ds.Domains()[:10] {
		got := ds.ShardViewFor(d).DomainRecords(d, 0, 0)
		want := ds.DomainRecords(d, 0, 0)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("ShardViewFor(%s) read differs", d)
		}
	}

	// A view taken before an Append stays pinned to its snapshot: the
	// appended domain is visible through a fresh Dataset read but absent
	// from the pre-append view.
	pinned := ds.ShardViewFor("good.com")
	if got := pinned.DomainRecords("good.com", 0, 0); got != nil {
		t.Fatalf("good.com present before append: %v", got)
	}
	_, small := badBatch(14)
	if err := ds.Append(14, small); err != nil {
		t.Fatal(err)
	}
	if got := ds.DomainRecords("good.com", 0, 0); len(got) != 1 {
		t.Fatalf("append not visible through Dataset: %v", got)
	}
	if got := pinned.DomainRecords("good.com", 0, 0); got != nil {
		t.Fatalf("pinned view saw the append: %v", got)
	}
}

// windowCorpora is the window corpus resident and spilled, three shards each.
func windowCorpora(t *testing.T) map[string]*Dataset {
	t.Helper()
	resident := NewDatasetShards(3)
	ingestWindowCorpus(t, resident, true)
	return map[string]*Dataset{"resident": resident, "spilled": spilledWindowCorpus(t, 3, true)}
}

// TestCursorMatchesDomainRecords holds a cursor to the read path it stands
// in for: every domain × period (and the unbounded window) reads what
// ShardView.DomainRecords reads, resident and spilled, whatever order the
// domains are sought in.
func TestCursorMatchesDomainRecords(t *testing.T) {
	bounds := [][2]simtime.Date{{0, 0}}
	for p := simtime.Period(0); p < 4; p++ {
		bounds = append(bounds, [2]simtime.Date{p.Start(), p.End()})
	}
	for name, ds := range windowCorpora(t) {
		read := 0
		for sid := 0; sid < ds.Shards(); sid++ {
			v := ds.ShardView(sid)
			n := len(v.Domains())
			forward := make([]int, n)
			for i := range forward {
				forward[i] = i
			}
			reverse := slices.Clone(forward)
			slices.Reverse(reverse)
			orders := map[string][]int{"forward": forward, "reverse": reverse, "shuffled": rand.New(rand.NewSource(int64(sid))).Perm(n)}
			for order, ranks := range orders {
				cur := v.Cursor()
				for _, i := range ranks {
					cur.Seek(i)
					for _, b := range bounds {
						got, want := cur.Records(b[0], b[1]), v.DomainRecords(v.Domains()[i], b[0], b[1])
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("%s shard %d %s: %s [%d,%d) read %v through the cursor, %v through the view",
								name, sid, order, v.Domains()[i], b[0], b[1], derefs(got), derefs(want))
						}
						read += len(got)
					}
				}
			}
		}
		if read == 0 {
			t.Fatalf("%s: every window empty", name)
		}
	}
}

// TestCursorKeep pins both halves of Keep. Spilled: a kept window reads the
// same after 100 further Seeks, and with the cursor's port storage zeroed,
// while the pointers the cursor handed out are by then another domain's rows
// (the slab and the ports are reused — what Keep is for). Resident: the
// records are the shard's own and Keep swaps nothing.
func TestCursorKeep(t *testing.T) {
	for name, ds := range windowCorpora(t) {
		v := ds.ShardView(0)
		cur := v.Cursor()
		for i := range v.Domains() { // the slab has grown to the longest window
			cur.Seek(i)
		}
		cur.Seek(0)
		handed := slices.Clone(cur.Records(0, 0))
		kept := slices.Clone(handed)
		want := derefs(kept)
		for i := range want { // a spilled window's ports are the cursor's storage
			want[i].Ports = slices.Clone(want[i].Ports)
		}
		cur.Keep(kept)
		for k := 1; k <= 100; k++ {
			cur.Seek(k % len(v.Domains()))
		}
		// The walk ends away from domain 0, on a window at least as long.
		if cur.Seek(1); len(cur.Records(0, 0)) < len(want) {
			t.Fatalf("%s: domain 1 has the shorter window; the fixture tests nothing", name)
		}
		if got := derefs(kept); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: kept records changed under later Seeks:\n got %v\nwant %v", name, got, want)
		}
		clear(cur.ports[:cap(cur.ports)])
		if got := derefs(kept); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: kept records' ports alias the cursor's storage:\n got %v\nwant %v", name, got, want)
		}
		switch overwritten := !reflect.DeepEqual(derefs(handed), want); {
		case name == "spilled" && (!overwritten || kept[0] == handed[0]):
			t.Errorf("spilled: the cursor did not reuse its slab, or Keep left a pointer into it")
		case name == "resident" && (overwritten || kept[0] != handed[0]):
			t.Errorf("resident: Keep copied records of a resident shard")
		}
	}
}

// TestCursorSeekSameRank: a Seek to the domain the cursor is on already
// reads nothing, so a walk that reads a domain only when it needs to can
// Seek at each read. On a spilled shard a second read would decode the
// window afresh over what Keep made of it; here the kept pointers stay.
func TestCursorSeekSameRank(t *testing.T) {
	v := spilledWindowCorpus(t, 1, false).ShardView(0)
	cur := v.Cursor()
	cur.Seek(0)
	window := cur.Records(0, 0)
	cur.Keep(window)
	kept := slices.Clone(window)
	cur.Seek(0)
	if got := cur.Records(0, 0); len(got) == 0 || !slices.Equal(got, kept) {
		t.Fatalf("a second Seek to the same domain read its window again: %d records, kept %d", len(got), len(kept))
	}
	cur.Seek(1)
	if cur.Seek(0); slices.Equal(cur.Records(0, 0), kept) {
		t.Fatal("a Seek back from another domain did not read the window again")
	}
}

// TestSpilledCursorWalkAllocs is the point of the cursor on a spilled
// shard: once a first walk has grown its slab and port storage to the
// shard's longest window, a second walk allocates nothing, whichever ports
// and two-letter countries the hosts move between. A country outside the
// decoder's table of two-letter codes costs one string a run of it, and
// nothing else does. Each Seek is the domain's segment read and
// whole-window decode, and four period reads follow it.
func TestSpilledCursorWalkAllocs(t *testing.T) {
	v := spilledWindowCorpus(t, 1, true).ShardView(0)
	cur := v.Cursor()
	n := len(v.Domains())
	runs := 0 // the runs of a country outside the table, one string each
	for i := 0; i < n; i++ {
		cur.Seek(i)
		var prev ipmeta.CountryCode
		for j, r := range cur.Records(0, 0) {
			if len(r.Country) != 2 && (j == 0 || r.Country != prev) {
				runs++
			}
			prev = r.Country
		}
	}
	if runs == 0 {
		t.Fatal("the corpus has no country outside the table")
	}
	records := 0
	walk := testing.AllocsPerRun(20, func() {
		for i := 0; i < n; i++ {
			cur.Seek(i)
			for p := simtime.Period(0); p < 4; p++ {
				records += len(cur.Records(p.Start(), p.End()))
			}
		}
	})
	if records == 0 {
		t.Fatal("no records read")
	}
	if walk != float64(runs) {
		t.Fatalf("a second walk of %d spilled domains allocates %.0f times, want %d (one a run of a three-letter country)", n, walk, runs)
	}
}
