package scanner

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"retrodns/internal/dnscore"
	"retrodns/internal/simtime"
	"retrodns/internal/x509lite"
)

func TestPoolDedupsOnFingerprint(t *testing.T) {
	p := NewPool()
	a := quarCert(1, "www.a.example")
	b := quarCert(1, "www.a.example") // identical bytes, distinct object
	if got := p.Cert(a); got != a {
		t.Fatal("first sighting must return the certificate it was handed")
	}
	if got := p.Cert(b); got != a {
		t.Fatal("identical cert did not dedup to the first instance")
	}
	if st := p.Stats(); st.Certs != 1 || st.NameBytes != int64(len("www.a.example")) {
		t.Fatalf("pool holds %d certificates with %d SAN bytes, want 1 with %d", st.Certs, st.NameBytes, len("www.a.example"))
	}
	// A reissued cert (different signature) is a distinct identity.
	c := quarCert(1, "www.a.example")
	c.Signature = append([]byte(nil), c.Signature...)
	c.Signature[0] ^= 0xFF
	if got := p.Cert(c); got != c {
		t.Fatal("distinct-signature cert wrongly deduped")
	}
	if st := p.Stats(); st.Certs != 2 || st.NameBytes != 2*int64(len("www.a.example")) {
		t.Fatalf("pool holds %d certificates with %d SAN bytes, want 2 with %d", st.Certs, st.NameBytes, 2*len("www.a.example"))
	}
}

// TestPoolReserveKeepsEntries sizes a pool that already holds a
// certificate and one that does not: the pooled instance survives, and
// both pools go on deduplicating.
func TestPoolReserveKeepsEntries(t *testing.T) {
	p := NewPool()
	a := quarCert(1, "www.a.example")
	p.Cert(a)
	p.Reserve(1 << 12)
	if got := p.Cert(quarCert(1, "www.a.example")); got != a {
		t.Fatal("Reserve dropped a pooled certificate")
	}
	empty := NewPool()
	empty.Reserve(1 << 12)
	b := quarCert(2, "www.b.example")
	if empty.Cert(b) != b || empty.Cert(quarCert(2, "www.b.example")) != b {
		t.Fatal("a reserved pool does not deduplicate")
	}
	if p.Stats().Certs != 1 || empty.Stats().Certs != 1 {
		t.Fatalf("pool sizes %d and %d, want 1 and 1", p.Stats().Certs, empty.Stats().Certs)
	}
	var nilPool *Pool
	nilPool.Reserve(10)
}

func TestPoolNilTolerance(t *testing.T) {
	var p *Pool
	c := quarCert(3, "www.nil.example")
	if got := p.Cert(c); got != c {
		t.Fatal("nil pool must pass certs through")
	}
	if p.Stats() != (PoolStats{}) {
		t.Fatal("nil pool stats not zero")
	}
	if got := NewPool().Cert(nil); got != nil {
		t.Fatal("nil cert must pass through")
	}
}

func TestPoolConcurrentCert(t *testing.T) {
	p := NewPool()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				p.Cert(quarCert(uint64(i%10)+1, "www.c.example"))
			}
		}()
	}
	wg.Wait()
	if st := p.Stats(); st.Certs != 10 || st.NameBytes != 10*int64(len("www.c.example")) {
		t.Fatalf("pool holds %d certificates with %d SAN bytes, want 10 with %d", st.Certs, st.NameBytes, 10*len("www.c.example"))
	}
}

// TestSharedCertsAcrossRouteWorkers ingests one wide scan whose records
// share a few certificates between both halves of the scan — the halves
// the route workers take — first as one instance per certificate into a
// fresh dataset, then as a fresh instance per record into that dataset
// restored from its snapshot, where every certificate is pooled and no
// route is resolved yet. Each certificate's route is resolved once, every
// record holds the pooled instance, and both scans land under the same
// domains. Run under -race by `make race`.
func TestSharedCertsAcrossRouteWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	const ncerts, nrecs = 64, 2 * parallelIngestThreshold
	certs := make([]*x509lite.Certificate, ncerts)
	for i := range certs {
		apex := fmt.Sprintf("shared-%02d.example", i)
		certs[i] = quarCert(uint64(i+1), dnscore.Name("www."+apex), dnscore.Name("mail."+apex), "portal.other-"+dnscore.Name(apex))
	}
	scan := func(date simtime.Date, fresh bool) []*Record {
		recs := make([]*Record, nrecs)
		for i := range recs {
			c := certs[i%ncerts]
			if fresh {
				c = c.Clone()
			}
			recs[i] = quarRec(date, fmt.Sprintf("10.%d.%d.7", i/250, i%250), c)
		}
		return recs
	}
	d1, d2 := simtime.ScansInPeriod(0)[0], simtime.ScansInPeriod(0)[1]
	ds := NewDatasetShards(8)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(ds.AddScan(d1, scan(d1, false)))
	ds.Freeze()
	if n, want := ds.Pool().ResolvedRoutes(), int64(ncerts); n != want {
		t.Fatalf("fresh dataset resolved %d routes, want %d", n, want)
	}
	var buf bytes.Buffer
	must(ds.EncodeSnapshot(&buf))
	got, err := DecodeSnapshot(buf.Bytes())
	must(err)
	if n := got.Pool().ResolvedRoutes(); n != 0 || got.Pool().Stats().Certs != ncerts {
		t.Fatalf("restore resolved %d routes over %d certificates, want 0 over %d", n, got.Pool().Stats().Certs, ncerts)
	}
	recs := scan(d2, true)
	must(got.Append(d2, recs))
	if n := got.Pool().ResolvedRoutes(); n != ncerts {
		t.Fatalf("appending to the restore resolved %d routes, want %d", n, ncerts)
	}
	for i, r := range recs {
		if r.Cert != got.Pool().Cert(certs[i%ncerts]) {
			t.Fatalf("record %d holds an unpooled certificate", i)
		}
	}
	for _, domain := range ds.Domains() {
		a, b := ds.DomainRecords(domain, d1, d1+1), got.DomainRecords(domain, d2, d2+1)
		if len(a) != len(b) || len(a) == 0 {
			t.Fatalf("%s: %d records on the first scan, %d on the second", domain, len(a), len(b))
		}
	}
	if a, b := ds.Domains(), got.Domains(); len(a) != len(b) {
		t.Fatalf("the second scan added domains: %d, then %d", len(a), len(b))
	}
}
