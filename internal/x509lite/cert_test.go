package x509lite

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"retrodns/internal/dnscore"
	"retrodns/internal/simtime"
)

func testCert(key *SigningKey) *Certificate {
	c := &Certificate{
		Serial:    1394170951,
		Subject:   "mail.kyvernisi.gr",
		SANs:      []dnscore.Name{"mail.kyvernisi.gr"},
		Issuer:    "Let's Encrypt",
		NotBefore: simtime.MustParse("2019-04-22"),
		NotAfter:  simtime.MustParse("2019-07-21"),
		Method:    ValidationDNS01,
	}
	key.Sign(c)
	return c
}

func TestFingerprintMemoized(t *testing.T) {
	key := NewSigningKey("le-key-1", 42)
	c := testCert(key)
	fp := c.Fingerprint()
	if got := c.Fingerprint(); got != fp {
		t.Fatalf("memoized fingerprint changed: %s != %s", got, fp)
	}
	// Re-signing invalidates the memo: the digest covers the signature.
	c.Serial++
	key.Sign(c)
	if got := c.Fingerprint(); got == fp {
		t.Fatal("fingerprint unchanged after re-sign")
	}
	// A clone carries its own memo and diverges independently.
	clone := c.Clone()
	if clone.Fingerprint() != c.Fingerprint() {
		t.Fatal("clone fingerprint differs from original")
	}
	clone.NotAfter++
	key.Sign(clone)
	if clone.Fingerprint() == c.Fingerprint() {
		t.Fatal("mutated clone shares original's fingerprint")
	}
	if got := c.Fingerprint(); got == fp {
		t.Fatal("original perturbed by clone mutation")
	}
}

func TestSignVerify(t *testing.T) {
	key := NewSigningKey("le-key-1", 42)
	c := testCert(key)
	if err := key.Verify(c, simtime.MustParse("2019-04-23")); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyRejectsTampering(t *testing.T) {
	key := NewSigningKey("le-key-1", 42)
	c := testCert(key)
	c.SANs = []dnscore.Name{"mail.kyvernisi.gr", "attacker.example"}
	if err := key.Verify(c, simtime.MustParse("2019-04-23")); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("tampered SANs: %v", err)
	}
}

func TestVerifyRejectsWrongKey(t *testing.T) {
	key := NewSigningKey("le-key-1", 42)
	other := NewSigningKey("comodo-key-1", 42)
	c := testCert(key)
	if err := other.Verify(c, simtime.MustParse("2019-04-23")); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("wrong key: %v", err)
	}
	// Forged IssuerID without the key's MAC must also fail.
	c2 := testCert(key)
	c2.IssuerID = other.ID
	if err := other.Verify(c2, simtime.MustParse("2019-04-23")); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("forged issuer id: %v", err)
	}
}

func TestVerifyRejectsOutOfWindow(t *testing.T) {
	key := NewSigningKey("le-key-1", 42)
	c := testCert(key)
	for _, date := range []string{"2019-04-21", "2019-07-21", "2020-01-01"} {
		if err := key.Verify(c, simtime.MustParse(date)); !errors.Is(err, ErrExpired) {
			t.Errorf("date %s: %v", date, err)
		}
	}
}

func TestVerifyRejectsEmptySANs(t *testing.T) {
	key := NewSigningKey("le-key-1", 42)
	c := testCert(key)
	c.SANs = nil
	if err := key.Verify(c, simtime.MustParse("2019-04-23")); !errors.Is(err, ErrNoSANs) {
		t.Fatalf("empty SANs: %v", err)
	}
}

func TestFingerprintDistinguishesReissue(t *testing.T) {
	key := NewSigningKey("le-key-1", 42)
	a := testCert(key)
	b := testCert(key)
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("identical certs have different fingerprints")
	}
	c := testCert(key)
	c.Serial++
	key.Sign(c)
	if c.Fingerprint() == a.Fingerprint() {
		t.Fatal("different serial, same fingerprint")
	}
}

func TestFingerprintSANOrderInsensitive(t *testing.T) {
	key := NewSigningKey("k", 1)
	mk := func(sans ...dnscore.Name) *Certificate {
		c := &Certificate{Serial: 5, Subject: sans[0], SANs: sans, Issuer: "X",
			NotBefore: 0, NotAfter: 90}
		key.Sign(c)
		return c
	}
	a := mk("a.example.com", "b.example.com")
	b := mk("b.example.com", "a.example.com")
	// Subject differs, so compare canonical SAN handling via signature of
	// same-subject variants.
	c1 := mk("a.example.com", "b.example.com")
	c2 := &Certificate{Serial: 5, Subject: "a.example.com",
		SANs: []dnscore.Name{"b.example.com", "a.example.com"}, Issuer: "X",
		NotBefore: 0, NotAfter: 90}
	key.Sign(c2)
	if c1.Fingerprint() != c2.Fingerprint() {
		t.Fatal("SAN order changed fingerprint")
	}
	_ = a
	_ = b
}

// TestAppendCanonicalMatchesReference holds the encoder Fingerprint uses to
// canonical(), the reference Sign and Verify still go through: 0, 1, 4 and
// 10 SANs (both sides of the stack-sorted eight, given in descending order
// and with a duplicate), CA and leaf, signed and unsigned; and the digest to
// SHA-256 over the reference bytes plus signature, with at most the memo
// allocated where the SANs fit the stack.
func TestAppendCanonicalMatchesReference(t *testing.T) {
	key := NewSigningKey("diff", 3)
	for _, n := range []int{0, 1, 4, 10} {
		for _, isCA := range []bool{false, true} {
			for _, signed := range []bool{false, true} {
				c := &Certificate{
					Serial: 1<<40 + uint64(n), Subject: "mail.example.com", Issuer: "Diff CA",
					NotBefore: -3, NotAfter: 87, Method: ValidationHTTP01, IsCA: isCA,
				}
				for i := n; i > 0; i-- {
					c.SANs = append(c.SANs, dnscore.Name(fmt.Sprintf("h%d.example.com", i%7)))
				}
				if isCA {
					c.SubjectKeyID, c.SubjectKeyHex = "sub-key", "00ff"
				}
				if signed {
					key.Sign(c)
				}
				label := fmt.Sprintf("sans=%d ca=%v signed=%v", n, isCA, signed)
				want := c.canonical()
				if got := c.appendCanonical(nil); !bytes.Equal(got, want) {
					t.Fatalf("%s: appendCanonical\n got %q\nwant %q", label, got, want)
				}
				if got := c.appendCanonical([]byte("prefix")); !bytes.Equal(got, append([]byte("prefix"), want...)) {
					t.Fatalf("%s: appendCanonical does not append", label)
				}
				if got, want := c.Fingerprint(), Fingerprint(sha256.Sum256(append(want, c.Signature...))); got != want {
					t.Fatalf("%s: fingerprint %s, reference %s", label, got.Hex(), want.Hex())
				}
				if allocs := testing.AllocsPerRun(20, func() { c.fp.Store(nil); c.Fingerprint() }); n <= 8 && allocs > 1 {
					t.Errorf("%s: a first Fingerprint allocates %.0f times, want the memo alone", label, allocs)
				}
			}
		}
	}
}

func TestCovers(t *testing.T) {
	c := &Certificate{SANs: []dnscore.Name{"mail.example.com", "*.portal.example.com"}}
	cases := []struct {
		name dnscore.Name
		want bool
	}{
		{"mail.example.com", true},
		{"other.example.com", false},
		{"login.portal.example.com", true},
		{"a.b.portal.example.com", false}, // wildcards are single-label
		{"portal.example.com", false},
	}
	for _, cse := range cases {
		if got := c.Covers(cse.name); got != cse.want {
			t.Errorf("Covers(%s) = %v, want %v", cse.name, got, cse.want)
		}
	}
}

func TestLifetimeAndString(t *testing.T) {
	key := NewSigningKey("le-key-1", 42)
	c := testCert(key)
	if c.Lifetime() != 90 {
		t.Errorf("Lifetime = %d", c.Lifetime())
	}
	s := c.String()
	for _, want := range []string{"mail.kyvernisi.gr", "Let's Encrypt", "1394170951"} {
		if !strings.Contains(s, want) {
			t.Errorf("String missing %q: %s", want, s)
		}
	}
	if len(c.Fingerprint().Hex()) != 64 {
		t.Errorf("Hex fingerprint length wrong")
	}
}

func TestTrustStore(t *testing.T) {
	store := NewTrustStore()
	le := NewSigningKey("le-key-1", 42)
	internal := NewSigningKey("corp-ca", 43)
	store.Include(le, ProgramApple, ProgramMozilla)
	store.Include(internal) // registered but trusted nowhere

	c := testCert(le)
	at := simtime.MustParse("2019-04-23")
	if !store.BrowserTrusted(c, at) {
		t.Fatal("LE cert not browser-trusted")
	}
	programs := store.TrustedBy(c, at)
	if len(programs) != 2 {
		t.Fatalf("TrustedBy = %v", programs)
	}

	ic := testCert(internal)
	if store.BrowserTrusted(ic, at) {
		t.Fatal("internal CA cert browser-trusted")
	}
	if store.TrustedBy(ic, at) != nil {
		t.Fatal("internal CA cert trusted by a program")
	}

	// Unknown issuer is untrusted.
	rogue := NewSigningKey("rogue", 1)
	rc := testCert(rogue)
	if store.BrowserTrusted(rc, at) {
		t.Fatal("unknown issuer trusted")
	}

	// Expired certificates lose trust.
	if store.BrowserTrusted(c, simtime.MustParse("2020-01-01")) {
		t.Fatal("expired cert trusted")
	}

	if _, ok := store.Key("le-key-1"); !ok {
		t.Fatal("key lookup failed")
	}
	if _, ok := store.Key("absent"); ok {
		t.Fatal("phantom key found")
	}
}

// Property: signing is deterministic for a fixed key and certificate body,
// and any single-field perturbation changes the MAC validity.
func TestSignatureBindingProperty(t *testing.T) {
	key := NewSigningKey("le-key-1", 42)
	f := func(serial uint64, shiftValidity bool, flipName bool) bool {
		c := &Certificate{
			Serial:    serial,
			Subject:   "host.example.com",
			SANs:      []dnscore.Name{"host.example.com"},
			Issuer:    "Test CA",
			NotBefore: 10,
			NotAfter:  100,
			Method:    ValidationDNS01,
		}
		key.Sign(c)
		if err := key.Verify(c, 50); err != nil {
			return false
		}
		mutant := c.Clone()
		switch {
		case shiftValidity:
			mutant.NotAfter++
		case flipName:
			mutant.SANs[0] = "evil.example.com"
		default:
			mutant.Serial++
		}
		return key.Verify(mutant, 50) != nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
