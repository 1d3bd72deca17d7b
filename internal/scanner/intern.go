package scanner

import (
	"strings"
	"sync"

	"retrodns/internal/dnscore"
	"retrodns/internal/x509lite"
)

// The interning layer. At paper scale the corpus sees the same handful of
// bytes millions of times: a popular deployment's SANs recur in every
// weekly scan for four years, and a long-lived certificate is observed
// once per (IP, scan). Without interning each observation drags its own
// string and certificate allocations through ingest and keeps them live in
// the indexes. The Pool collapses them: names intern through a striped
// string pool (one canonical backing array per distinct string), and
// certificates dedup through the fingerprint-keyed x509lite.Pool, with
// first-seen certificates' SANs canonicalized through the same string
// pool. The pool lives as long as its dataset and never evicts, so its
// size is bounded by the number of distinct values in the feed, not by the
// number of observations.

// internStripes spreads the string pool over independent locks so parallel
// ingest workers do not serialize. Must be a power of two.
const internStripes = 64

// A stripe takes a plain mutex and one lookup: a name reaches the pool only
// with a certificate it has not seen, so a miss is the common case, and an
// optimistic read-locked lookup ahead of the locked one would only repeat
// it.
type internStripe struct {
	mu    sync.Mutex
	m     map[string]string
	bytes int64
	_     [64 - 24]byte // a cache line of its own: parallel workers lock neighbours
}

// stringInterner is a concurrency-safe string pool: intern returns the
// canonical instance of a string, cloning it on first sight so the pool
// never pins a caller's larger backing array — unless the caller owns s
// outright (a string it decoded on its own), which the pool then keeps.
type stringInterner struct {
	stripes [internStripes]internStripe
}

func (si *stringInterner) intern(s string, owned bool) string {
	if s == "" {
		return ""
	}
	st := &si.stripes[fnvString(s)&(internStripes-1)]
	st.mu.Lock()
	defer st.mu.Unlock()
	if got, ok := st.m[s]; ok {
		return got
	}
	if st.m == nil {
		st.m = make(map[string]string)
	}
	c := s
	if !owned {
		c = strings.Clone(s)
	}
	st.m[c] = c
	st.bytes += int64(len(c))
	return c
}

// reserve sizes every empty stripe for its share of about n strings.
func (si *stringInterner) reserve(n int) {
	for i := range si.stripes {
		st := &si.stripes[i]
		st.mu.Lock()
		if len(st.m) == 0 {
			st.m = make(map[string]string, n/internStripes)
		}
		st.mu.Unlock()
	}
}

func (si *stringInterner) stats() (count int, bytes int64) {
	for i := range si.stripes {
		st := &si.stripes[i]
		st.mu.Lock()
		count += len(st.m)
		bytes += st.bytes
		st.mu.Unlock()
	}
	return count, bytes
}

// Pool is a dataset's interning state: a shared string pool for DNS names
// and a fingerprint-keyed certificate dedup pool. All methods are safe for
// concurrent use and nil-tolerant (a nil pool passes values through).
type Pool struct {
	names stringInterner
	certs *x509lite.Pool
}

// NewPool creates an empty intern pool whose certificate pool
// canonicalizes SAN strings through the name pool.
func NewPool() *Pool {
	p := &Pool{certs: x509lite.NewPool()}
	p.certs.InternName = func(n dnscore.Name, owned bool) dnscore.Name {
		return dnscore.Name(p.names.intern(string(n), owned))
	}
	return p
}

// Name returns the canonical interned instance of n.
func (p *Pool) Name(n dnscore.Name) dnscore.Name {
	if p == nil {
		return n
	}
	return dnscore.Name(p.names.intern(string(n), false))
}

// Cert returns the canonical pooled instance of c (see x509lite.Pool):
// the same certificate observed across thousands of scans is stored once.
func (p *Pool) Cert(c *x509lite.Certificate) *x509lite.Certificate {
	if p == nil {
		return c
	}
	return p.certs.Intern(c)
}

// AdoptCert is Cert for a certificate the caller decoded and hands over
// (x509lite.Pool.Adopt): a first-seen one joins the pool as it is, its
// SANs interned in place without a copy.
func (p *Pool) AdoptCert(c *x509lite.Certificate) *x509lite.Certificate {
	if p == nil {
		return c
	}
	return p.certs.Adopt(c)
}

// PoolStats is a point-in-time size accounting of the pool.
type PoolStats struct {
	// Names and NameBytes count distinct interned name strings and their
	// total payload bytes.
	Names     int
	NameBytes int64
	// IPStrings and IPBytes are always 0: the pool memoizes no address
	// renderings. The benchmark harness still reads them.
	IPStrings int
	IPBytes   int64
	// Certs counts distinct certificates in the dedup pool.
	Certs int64
}

// Stats reports the pool's current sizes. A nil pool reports zeros.
func (p *Pool) Stats() PoolStats {
	if p == nil {
		return PoolStats{}
	}
	var st PoolStats
	st.Names, st.NameBytes = p.names.stats()
	st.Certs = p.certs.Size()
	return st
}
