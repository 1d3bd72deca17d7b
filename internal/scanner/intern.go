package scanner

import (
	"sync"
	"sync/atomic"

	"retrodns/internal/x509lite"
)

// The certificate pool. Four years of weekly scans observe the same
// certificate tens of thousands of times — once per (IP, scan) — and a feed
// that parses its input hands ingest a fresh Certificate for each reading
// of it. The pool collapses them: keyed on the memoized Fingerprint, it
// keeps the first instance it is handed and gives that one back for every
// later sighting, so the corpus stores each distinct certificate once and
// pointer comparisons on certs are identity comparisons. Two certificates
// pool together iff they are byte-identical: a re-issued certificate with
// a fresh signature stays distinct, as the detection method needs.
//
// The pool entry also holds where the certificate's records go (its route,
// see routeLocked), resolved once per certificate, so a certificate seen in
// every weekly scan has its SANs reduced to apexes and hashed once. The
// pool lives as long as its dataset and never evicts: its size is bounded
// by the number of distinct certificates in the feed, not by the number of
// observations.

// poolStripes spreads the pool over independent locks so parallel ingest
// workers do not serialize on one mutex. Must be a power of two.
const poolStripes = 32

type poolStripe struct {
	mu sync.RWMutex
	m  map[x509lite.Fingerprint]*poolEntry
	_  [64 - 32]byte // a cache line of its own: parallel workers lock neighbours
}

// poolEntry is one pooled certificate: the instance the pool was first
// handed, and its route once resolved. The route is written once, under
// the stripe lock, before routed is set; a reader that sees routed set
// reads it without the lock.
type poolEntry struct {
	cert   *x509lite.Certificate
	routed atomic.Bool
	route  certRoute
	// one backs route for a certificate of a single registered domain, the
	// common case, so the entry is its route's only allocation.
	one [1]shardApex
}

// Pool is a dataset's certificate dedup pool. All methods are safe for
// concurrent use and nil-tolerant (a nil pool passes certificates
// through). A pooled certificate is only ever read, so a feed may hand one
// instance to several pools at once.
type Pool struct {
	stripes   [poolStripes]poolStripe
	size      atomic.Int64
	nameBytes atomic.Int64 // SAN bytes of the pooled certificates
}

// NewPool returns an empty certificate pool.
func NewPool() *Pool {
	p := &Pool{}
	for i := range p.stripes {
		p.stripes[i].m = make(map[x509lite.Fingerprint]*poolEntry)
	}
	return p
}

// Reserve sizes the pool for about n distinct certificates at once, so a
// bulk load's first wide scan or a restore does not grow the stripes by
// doubling. A stripe that already holds certificates is left as it is.
func (p *Pool) Reserve(n int) {
	if p == nil {
		return
	}
	for i := range p.stripes {
		st := &p.stripes[i]
		st.mu.Lock()
		if len(st.m) == 0 {
			st.m = make(map[x509lite.Fingerprint]*poolEntry, n/poolStripes)
		}
		st.mu.Unlock()
	}
}

// Cert returns the pooled instance of c's fingerprint, pooling c itself on
// first sight. A nil certificate passes through.
func (p *Pool) Cert(c *x509lite.Certificate) *x509lite.Certificate {
	if p == nil || c == nil {
		return c
	}
	return p.entry(c, -1).cert
}

// entry looks c's fingerprint up, inserting c on a miss, and resolves the
// entry's route over nshards shards unless nshards is negative: on c's
// first sight, or on the first routing of a certificate a restore pooled.
func (p *Pool) entry(c *x509lite.Certificate, nshards int) *poolEntry {
	fp := c.Fingerprint()
	st := &p.stripes[fp[0]&(poolStripes-1)]
	st.mu.RLock()
	e := st.m[fp]
	st.mu.RUnlock()
	if e != nil && (nshards < 0 || e.routed.Load()) {
		return e
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if e = st.m[fp]; e == nil {
		e = &poolEntry{cert: c}
		st.m[fp] = e
		p.size.Add(1)
		var n int
		for _, san := range c.SANs {
			n += len(san)
		}
		p.nameBytes.Add(int64(n))
	}
	if nshards >= 0 && !e.routed.Load() {
		e.route = resolveRoute(e.cert, nshards, e.one[:0])
		e.routed.Store(true)
	}
	return e
}

// PoolStats is a point-in-time size accounting of the pool.
type PoolStats struct {
	// NameBytes sums the SAN bytes of the pooled certificates: each
	// certificate holds its own SAN strings.
	NameBytes int64
	// Names, IPStrings and IPBytes are always 0: the pool keeps no strings
	// of its own. The benchmark harness still reads them.
	Names     int
	IPStrings int
	IPBytes   int64
	// Certs counts distinct certificates in the pool.
	Certs int64
}

// Stats reports the pool's current sizes. A nil pool reports zeros.
func (p *Pool) Stats() PoolStats {
	if p == nil {
		return PoolStats{}
	}
	return PoolStats{NameBytes: p.nameBytes.Load(), Certs: p.size.Load()}
}
