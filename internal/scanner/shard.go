package scanner

import (
	"cmp"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"retrodns/internal/dnscore"
	"retrodns/internal/simtime"
	"retrodns/internal/x509lite"
)

// The corpus shards. A registered domain is owned by exactly one shard,
// selected by FNV-1a hash of the domain bytes — a keyless, stable hash, so
// the routing (and therefore the per-shard metric layout) is identical
// across runs and machines. Each shard carries its own lock, its own
// pre-freeze accumulation map, its own immutable sorted index snapshot,
// its own dirty-cell journal, and its own quarantine journal: parallel
// ingest workers touch disjoint shards and never contend. Reads merge
// shards deterministically (sorted merges keyed on domain, seq-ordered
// quarantine examples), so every public Dataset result is byte-identical
// for any shard count.

// shardIndex is one immutable snapshot of a frozen shard's read index.
// Append publishes a fresh snapshot through an atomic pointer per affected
// shard only, so readers holding an older snapshot keep a consistent view
// with no locks and untouched shards pay nothing. Per-domain record slices
// may share backing arrays across generations: Append only ever grows a
// slice in place when the new record sorts last, and a reader never
// indexes beyond its own snapshot's length, so the sharing is race-free
// under the single-writer dataset mutex.
type shardIndex struct {
	// domains is this shard's sorted domain list; windows and dirty are
	// indexed by a domain's rank in it. Always resident, spilled or not.
	domains []dnscore.Name
	// pos maps a domain to its rank. Snapshots share one map until a domain
	// is added. nil when the shard is spilled.
	pos map[dnscore.Name]int32
	// windows[i] holds every record whose certificate secures a name under
	// domains[i], sorted by scan date (stable, preserving ingest order
	// within a date). nil when the shard is spilled — the payloads then
	// live in spill's segment.
	windows [][]*Record
	// dirty[i][p] is the dataset generation at which domains[i] last gained
	// a record in period p, zero for never: the shard's dirty journal. nil
	// until the first Append into the shard; resident even when spilled.
	dirty []periodGens
	// attach counts record attachments (a record indexed under two apexes
	// counts twice).
	attach int
	// spill serves record windows off the shard's sealed segment when the
	// payloads are not resident (see spill.go); nil for a resident shard.
	spill *spillReader
}

// periodGens is one row of the dirty journal: per study period, the
// dataset generation at which it last gained something, zero for never.
type periodGens [simtime.NumPeriods]uint64

// since reports the periods journaled after gen, bit p for period p.
func (g *periodGens) since(gen uint64) (mask uint16) {
	for p, at := range g {
		if at > gen {
			mask |= 1 << uint(p)
		}
	}
	return mask
}

// records returns the full date-sorted record window for domain, from
// memory or off the shard's segment.
func (idx *shardIndex) records(domain dnscore.Name) []*Record {
	if idx.spill != nil {
		return idx.spill.records(domain)
	}
	if i, ok := idx.pos[domain]; ok {
		return idx.windows[i]
	}
	return nil
}

// eachDirty calls fn for every cell journaled after gen, with the generation
// it last was, in domain then period order: the one order DirtySince lists
// and the snapshot stores.
func (idx *shardIndex) eachDirty(gen uint64, fn func(cell DirtyCell, at uint64)) {
	for i := range idx.dirty {
		for p, at := range idx.dirty[i] {
			if at > gen {
				fn(DirtyCell{idx.domains[i], simtime.Period(p)}, at)
			}
		}
	}
}

// rankDomains maps each name of a sorted domain list to its rank.
func rankDomains(domains []dnscore.Name) map[dnscore.Name]int32 {
	pos := make(map[dnscore.Name]int32, len(domains))
	for i, n := range domains {
		pos[n] = int32(i)
	}
	return pos
}

// successor starts the copy-on-write successor of a resident index for an
// Append that adds the given domains (distinct, none present yet): rows
// are copied and, when domains are added, moved to their new ranks. The
// record slices themselves stay shared until modified.
func (idx *shardIndex) successor(added []dnscore.Name) *shardIndex {
	n := len(idx.domains) + len(added)
	next := &shardIndex{
		domains: idx.domains,
		pos:     idx.pos,
		windows: make([][]*Record, n),
		dirty:   make([]periodGens, n),
		attach:  idx.attach,
	}
	if len(added) == 0 {
		copy(next.windows, idx.windows)
		copy(next.dirty, idx.dirty)
		return next
	}
	next.domains = mergeDomains(idx.domains, added)
	next.pos = rankDomains(next.domains)
	for i, domain := range idx.domains {
		j := next.pos[domain]
		next.windows[j] = idx.windows[i]
		if idx.dirty != nil {
			next.dirty[j] = idx.dirty[i]
		}
	}
	return next
}

// shard is one slice of the corpus.
type shard struct {
	mu sync.RWMutex
	// byDomain and attach accumulate ingest-order records before Freeze;
	// freeze moves them into the first index snapshot.
	byDomain map[dnscore.Name][]*Record
	attach   int
	// idx holds the shard's current immutable index snapshot, nil until
	// the dataset freezes.
	idx atomic.Pointer[shardIndex]
	// quar journals record-level rejections routed to this shard.
	quar quarantine
}

func newShard() *shard {
	return &shard{byDomain: make(map[dnscore.Name][]*Record)}
}

// reserve sizes the accumulation map for about n domains while it is
// empty. A frozen shard has none.
func (s *shard) reserve(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.byDomain != nil && len(s.byDomain) == 0 {
		s.byDomain = make(map[dnscore.Name][]*Record, n)
	}
}

// counts returns the shard's (domains, record attachments), from the index
// snapshot when frozen. Safe under d.mu (read or write).
func (s *shard) counts() (int, int) {
	if idx := s.idx.Load(); idx != nil {
		return len(idx.domains), idx.attach
	}
	return len(s.byDomain), s.attach
}

// freeze builds and publishes the shard's generation-1 index, taking
// ownership of the accumulation map. Runs once per shard, possibly on a
// worker goroutine; the dataset mutex serializes it against ingest.
func (s *shard) freeze() {
	s.mu.Lock()
	defer s.mu.Unlock()
	idx := &shardIndex{attach: s.attach}
	idx.domains = make([]dnscore.Name, 0, len(s.byDomain))
	for n := range s.byDomain {
		idx.domains = append(idx.domains, n)
	}
	slices.Sort(idx.domains)
	idx.pos = rankDomains(idx.domains)
	idx.windows = make([][]*Record, len(idx.domains))
	for i, n := range idx.domains {
		// A bulk load adds its scans in date order, so most windows are
		// sorted already.
		recs := s.byDomain[n]
		if !slices.IsSortedFunc(recs, byScanDate) {
			slices.SortStableFunc(recs, byScanDate)
		}
		idx.windows[i] = recs
	}
	s.byDomain = nil
	s.idx.Store(idx)
}

func byScanDate(a, b *Record) int { return cmp.Compare(a.ScanDate, b.ScanDate) }

// routed is one record attachment on its way into a shard: the record and
// the registered domain, owned by that shard, it indexes under.
type routed struct {
	rec  *Record
	apex dnscore.Name
}

// certRoute is where one certificate's records go: its distinct registered
// domains in SAN order, each with its owning shard.
type certRoute []shardApex

type shardApex struct {
	apex dnscore.Name
	sid  int
}

// resolveRoute computes c's route.
func (d *Dataset) resolveRoute(c *x509lite.Certificate) certRoute {
	var route certRoute
	for _, san := range c.SANs {
		apex := san.RegisteredDomain()
		if apex == "" {
			continue
		}
		dup := false
		for _, t := range route {
			dup = dup || t.apex == apex
		}
		if !dup {
			route = append(route, shardApex{apex, shardIndexOf(apex, len(d.shards))})
		}
	}
	return route
}

// freshRoute is a route a scan's routing pass resolved, for the memo.
type freshRoute struct {
	cert  *x509lite.Certificate
	route certRoute
}

// routeLocked is the one pass over a scan that decides where everything
// goes, run in parallel over contiguous runs of the records. Each accepted
// record's certificate is swapped for the pool's canonical instance when
// interning (a first-seen certificate is copied in, its SAN strings
// canonicalized through the string pool), so shards only ever index pooled
// certificates; its route is resolved; and its attachments land in its
// run's bucket for each owning shard. buckets[sid] holds one bucket per
// run, and taken in run order they are the shard's share of the scan in
// feed order.
//
// Pooled certificates are immutable and the shard count is fixed, so their
// routes are memoized for the life of the dataset (bounded by the pool,
// which never evicts either): a certificate seen in every weekly scan has
// its SANs reduced to apexes and hashed once. The runs only read the memo;
// the routes they resolve are memoized once they join. Caller holds d.mu;
// the records are not yet visible to any reader.
func (d *Dataset) routeLocked(records []*Record, gates []uint8, accepted int) (buckets [][][]routed) {
	workers := ingestWorkers(len(records))
	buckets = make([][][]routed, len(d.shards))
	for sid := range buckets {
		buckets[sid] = make([][]routed, workers)
	}
	fresh := make([][]freshRoute, workers)
	// An even spread plus a quarter covers the hash's skew and the odd
	// multi-domain certificate without a regrow.
	even := accepted / workers / len(d.shards)
	forChunks(len(records), workers, func(run, lo, hi int) {
		own := make([][]routed, len(d.shards))
		for sid := range own {
			own[sid] = make([]routed, 0, even+even/4+8)
		}
		for i := lo; i < hi; i++ {
			if gates[i] != 0 {
				continue
			}
			r := records[i]
			if d.intern {
				if c := d.pool.Cert(r.Cert); c != r.Cert {
					r.Cert = c
				}
			}
			route, ok := d.routes[r.Cert]
			if !ok {
				route = d.resolveRoute(r.Cert)
				if d.intern {
					fresh[run] = append(fresh[run], freshRoute{r.Cert, route})
				}
			}
			for _, t := range route {
				own[t.sid] = append(own[t.sid], routed{r, t.apex})
			}
		}
		for sid := range own {
			buckets[sid][run] = own[sid]
		}
	})
	for _, f := range fresh {
		for _, fr := range f {
			d.routes[fr.cert] = fr.route
		}
	}
	return buckets
}

// stage takes this shard's buckets of one scan, in feed order. Shards
// share nothing, so buckets are staged in parallel. Before Freeze the
// records simply accumulate. On a frozen shard nothing is published here:
// the returned successor index carries the merged windows and the (domain,
// period) cells journaled under gen, for ingestLocked to store once the
// batch may be seen, along with the newly seen domains for the
// dataset-level merge.
func (s *shard) stage(buckets [][]routed, gen uint64, frozen bool) (*shardIndex, []dnscore.Name) {
	n := 0
	for _, b := range buckets {
		n += len(b)
	}
	if n == 0 {
		return nil, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !frozen {
		for _, b := range buckets {
			for _, e := range b {
				s.byDomain[e.apex] = append(s.byDomain[e.apex], e.rec)
			}
		}
		s.attach += n
		return nil, nil
	}
	old := s.idx.Load()
	// A record's rank in the old index serves in the successor too, unless
	// the batch brings a domain the shard has not seen yet.
	rank := make([]int32, 0, n)
	var added []dnscore.Name
	for _, b := range buckets {
		for _, e := range b {
			i, ok := old.pos[e.apex]
			if !ok {
				added = append(added, e.apex)
			}
			rank = append(rank, i)
		}
	}
	slices.Sort(added)
	added = slices.Compact(added)
	next := old.successor(added)
	k := 0
	for _, b := range buckets {
		for _, e := range b {
			i := rank[k]
			k++
			if len(added) > 0 {
				i = next.pos[e.apex]
			}
			next.windows[i] = insertRecord(next.windows[i], e.rec)
			if e.rec.ScanDate.InStudy() {
				next.dirty[i][simtime.PeriodOf(e.rec.ScanDate)] = gen
			}
		}
	}
	next.attach += n
	return next, added
}

// mergeDomains returns the sorted union of a sorted domain list and the
// disjoint sorted batches of newly seen domains, always copying so prior
// snapshots never observe the mutation. The lists are already sorted, so
// this is a k-way merge over a heap of list heads: n names from k lists
// cost about n·log2(k) comparisons, not the n·log2(n) of sorting the union.
func mergeDomains(sorted []dnscore.Name, added ...[]dnscore.Name) []dnscore.Name {
	h := make([][]dnscore.Name, 0, 1+len(added))
	n := 0
	for _, l := range append([][]dnscore.Name{sorted}, added...) {
		if len(l) > 0 {
			h = append(h, l)
			n += len(l)
		}
	}
	down := func(i int) {
		for {
			c := 2*i + 1
			if c >= len(h) {
				return
			}
			if c+1 < len(h) && h[c+1][0] < h[c][0] {
				c++
			}
			if h[i][0] < h[c][0] {
				return
			}
			h[i], h[c] = h[c], h[i]
			i = c
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		down(i)
	}
	merged := make([]dnscore.Name, 0, n)
	for len(h) > 1 {
		merged = append(merged, h[0][0])
		if h[0] = h[0][1:]; len(h[0]) == 0 {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		down(0)
	}
	if len(h) == 1 {
		merged = append(merged, h[0]...)
	}
	return merged
}

// FNV-1a 64-bit, hand-rolled so routing a name allocates nothing.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnvString(s string) uint64 { return fnvAdd(fnvOffset64, s) }

// fnvAdd folds s into the running hash h.
func fnvAdd(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}

// shardIndexOf routes a registered domain to a shard in [0, n).
func shardIndexOf(domain dnscore.Name, n int) int {
	if n <= 1 {
		return 0
	}
	return int(fnvString(string(domain)) % uint64(n))
}

// parallelIngestThreshold is the record count below which ingest stays
// serial: goroutine fan-out only pays for itself on bulk scans. Weekly incremental scans of the toy world are two
// orders of magnitude under it.
const parallelIngestThreshold = 2048

// maxWorkers caps a record-parallel phase: validation, interning and
// parsing stop scaling past the memory bus.
const maxWorkers = 16

// ingestWorkers sizes the worker pool for a record-parallel phase:
// 1 below the threshold, else GOMAXPROCS up to maxWorkers.
func ingestWorkers(n int) int {
	if n < parallelIngestThreshold {
		return 1
	}
	return min(runtime.GOMAXPROCS(0), maxWorkers)
}

// shardWorkers sizes the worker pool for the shard fan-out phase: never
// more workers than shards.
func shardWorkers(n, nshards int) int {
	w := ingestWorkers(n)
	if w > nshards {
		w = nshards
	}
	return w
}

// forShards runs fn(0..n-1) across the given number of workers, handing
// out shard ids from an atomic counter. Serial when workers <= 1. The
// WaitGroup join gives the caller a happens-before on every worker's
// writes.
func forShards(n, workers int, fn func(sid int)) {
	if workers <= 1 || n <= 1 {
		for sid := 0; sid < n; sid++ {
			fn(sid)
		}
		return
	}
	var nextID atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				sid := int(nextID.Add(1)) - 1
				if sid >= n {
					return
				}
				fn(sid)
			}
		}()
	}
	wg.Wait()
}

// forChunks splits [0, n) into at most workers contiguous chunks and runs
// fn(chunk, lo, hi) concurrently, chunk counting from 0 in order. Serial
// when workers <= 1. Chunk boundaries are a pure function of (n, workers);
// workers write only their own chunk's slots, so results are
// deterministic.
func forChunks(n, workers int, fn func(chunk, lo, hi int)) {
	if workers <= 1 || n <= 1 {
		if n > 0 {
			fn(0, 0, n)
		}
		return
	}
	if workers > n {
		workers = n
	}
	size := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for chunk, lo := 0, 0; lo < n; chunk, lo = chunk+1, lo+size {
		hi := min(lo+size, n)
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(chunk, lo, hi)
		}()
	}
	wg.Wait()
}
