package x509lite

import (
	"strings"
	"sync"
	"testing"
	"unsafe"

	"retrodns/internal/dnscore"
)

func poolCert(serial uint64, sans ...dnscore.Name) *Certificate {
	key := NewSigningKey("pool-test", 11)
	c := &Certificate{
		Serial: serial, Subject: sans[0], SANs: sans,
		Issuer: "Pool CA", NotBefore: 0, NotAfter: 100, Method: ValidationDNS01,
	}
	key.Sign(c)
	return c
}

func TestPoolInternDedups(t *testing.T) {
	p := NewPool()
	a := poolCert(1, "www.a.example")
	b := poolCert(1, "www.a.example") // identical bytes, distinct object
	if got := p.Intern(a); got != a {
		t.Fatal("first intern must return the inserted cert")
	}
	if got := p.Intern(b); got != a {
		t.Fatal("identical cert did not dedup to the pooled instance")
	}
	if p.Size() != 1 {
		t.Fatalf("pool size = %d, want 1", p.Size())
	}
	// A reissued cert (different signature) is a distinct identity.
	c := poolCert(1, "www.a.example")
	c.Signature = append([]byte(nil), c.Signature...)
	c.Signature[0] ^= 0xFF
	if got := p.Intern(c); got != c {
		t.Fatal("distinct-signature cert wrongly deduped")
	}
	if p.Size() != 2 {
		t.Fatalf("pool size = %d, want 2", p.Size())
	}
}

// TestPoolReserveKeepsEntries sizes a pool that already holds a
// certificate and one that does not: the pooled instance survives, and
// both pools go on deduplicating.
func TestPoolReserveKeepsEntries(t *testing.T) {
	p := NewPool()
	a := poolCert(1, "www.a.example")
	p.Intern(a)
	p.Reserve(1 << 12)
	if got := p.Intern(poolCert(1, "www.a.example")); got != a {
		t.Fatal("Reserve dropped a pooled certificate")
	}
	empty := NewPool()
	empty.Reserve(1 << 12)
	b := poolCert(2, "www.b.example")
	if empty.Intern(b) != b || empty.Intern(poolCert(2, "www.b.example")) != b {
		t.Fatal("a reserved pool does not deduplicate")
	}
	if p.Size() != 1 || empty.Size() != 1 {
		t.Fatalf("pool sizes %d and %d, want 1 and 1", p.Size(), empty.Size())
	}
	var nilPool *Pool
	nilPool.Reserve(10)
}

func TestPoolNilTolerance(t *testing.T) {
	var p *Pool
	c := poolCert(3, "www.nil.example")
	if got := p.Intern(c); got != c {
		t.Fatal("nil pool must pass certs through")
	}
	if p.Size() != 0 {
		t.Fatal("nil pool size != 0")
	}
	full := NewPool()
	if got := full.Intern(nil); got != nil {
		t.Fatal("nil cert must pass through")
	}
}

func TestPoolInternNameCanonicalizesFirstSeen(t *testing.T) {
	p := NewPool()
	var interned []dnscore.Name
	p.InternName = func(n dnscore.Name, owned bool) dnscore.Name {
		if owned {
			t.Fatalf("Intern handed %q over as owned", n)
		}
		interned = append(interned, n)
		return n
	}
	c := poolCert(5, "www.b.example", "mail.b.example")
	got := p.Intern(c)
	if len(interned) != 2 {
		t.Fatalf("InternName ran %d times, want 2 (once per SAN)", len(interned))
	}
	// The pool keeps a copy carrying the interned names; the certificate it
	// was handed stays as it was, so other pools may be reading it.
	if got == c || got.Fingerprint() != c.Fingerprint() || len(got.SANs) != 2 {
		t.Fatalf("pooled instance %v is not a distinct copy of %v", got, c)
	}
	if again := p.Intern(c); again != got {
		t.Fatal("second intern of the same instance missed the pooled copy")
	}
	// Lookups never re-canonicalize.
	p.Intern(poolCert(5, "www.b.example", "mail.b.example"))
	if len(interned) != 2 {
		t.Fatalf("lookup re-ran InternName: %d calls", len(interned))
	}
}

// TestPoolAdoptTakesOwnership: an adopted certificate the pool has not seen
// is inserted itself, its SANs and subject replaced in place by what
// InternName returns for names handed over as owned; a later Intern or
// Adopt of the same certificate finds that instance.
func TestPoolAdoptTakesOwnership(t *testing.T) {
	p := NewPool()
	canon := map[dnscore.Name]dnscore.Name{}
	p.InternName = func(n dnscore.Name, owned bool) dnscore.Name {
		if !owned {
			t.Fatalf("Adopt handed %q over as not owned", n)
		}
		canon[n] = dnscore.Name(strings.Clone(string(n)))
		return canon[n]
	}
	same := func(a, b dnscore.Name) bool { return unsafe.StringData(string(a)) == unsafe.StringData(string(b)) }
	c := poolCert(6, "www.d.example", "mail.d.example")
	if got := p.Adopt(c); got != c {
		t.Fatal("Adopt inserted a copy, not the certificate it was handed")
	}
	if !same(c.SANs[0], canon["www.d.example"]) || !same(c.SANs[1], canon["mail.d.example"]) || !same(c.Subject, c.SANs[0]) {
		t.Fatalf("SANs %v, subject %q: not interned in place", c.SANs, c.Subject)
	}
	if c.Clone().Fingerprint() != c.Fingerprint() {
		t.Fatal("adoption changed the certificate's identity")
	}
	p.InternName = func(n dnscore.Name, _ bool) dnscore.Name {
		t.Fatalf("a lookup re-interned %q", n)
		return n
	}
	if p.Intern(poolCert(6, "www.d.example", "mail.d.example")) != c || p.Adopt(poolCert(6, "www.d.example", "mail.d.example")) != c {
		t.Fatal("the adopted instance is not the pool's canonical one")
	}
	if p.Size() != 1 {
		t.Fatalf("pool size = %d, want 1", p.Size())
	}
}

func TestPoolConcurrentIntern(t *testing.T) {
	p := NewPool()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				p.Intern(poolCert(uint64(i%10)+1, "www.c.example"))
			}
		}()
	}
	wg.Wait()
	if p.Size() != 10 {
		t.Fatalf("pool size = %d, want 10", p.Size())
	}
}
