// Package x509lite models TLS certificates at the granularity the paper's
// methodology needs: serials, subject alternative names, issuer, validity
// windows on the simulation calendar, browser trust, and revocation. The
// cryptography is structural — HMAC-SHA256 signatures over a canonical
// encoding with per-CA keys — which is enough to model trust chains,
// mis-issuance, and verification, while keeping the package stdlib-only.
package x509lite

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"retrodns/internal/dnscore"
	"retrodns/internal/simtime"
)

// Fingerprint is the SHA-256 digest of a certificate's canonical encoding;
// it identifies a certificate everywhere in the system (scan records,
// deployment maps, CT entries).
type Fingerprint [sha256.Size]byte

// String renders the fingerprint in abbreviated hex.
func (f Fingerprint) String() string { return hex.EncodeToString(f[:8]) }

// Hex returns the full hex form.
func (f Fingerprint) Hex() string { return hex.EncodeToString(f[:]) }

// ValidationMethod records how the issuing CA validated domain control.
type ValidationMethod string

// Validation methods offered by the simulated CAs.
const (
	ValidationDNS01  ValidationMethod = "dns-01"
	ValidationHTTP01 ValidationMethod = "http-01"
	// ValidationManual models OV/EV-style out-of-band vetting used by the
	// paid CAs for legitimate long-lived deployments.
	ValidationManual ValidationMethod = "manual"
	// ValidationInternal marks certificates from a private enterprise CA
	// (the paper notes some victims served internal-CA certificates that
	// are not browser-trusted and never appear in CT).
	ValidationInternal ValidationMethod = "internal"
)

// Certificate is a simulated X.509 leaf certificate.
type Certificate struct {
	// Serial is unique per issuer.
	Serial uint64
	// Subject is the common name.
	Subject dnscore.Name
	// SANs lists every DNS name the certificate secures (includes Subject).
	SANs []dnscore.Name
	// Issuer is the display name of the issuing CA (e.g. "Let's Encrypt").
	Issuer string
	// IssuerID is the stable identifier of the issuing CA's signing key.
	IssuerID string
	// NotBefore and NotAfter bound validity (inclusive of NotBefore,
	// exclusive of NotAfter).
	NotBefore, NotAfter simtime.Date
	// Method records the domain-control validation that backed issuance.
	Method ValidationMethod
	// IsCA marks CA certificates (roots and intermediates), which may sign
	// children and may not serve as leaves.
	IsCA bool
	// SubjectKeyID and SubjectKeyHex carry the subject's signing key for
	// CA certificates — the symmetric-model analogue of the public key a
	// real CA certificate binds (chain.go).
	SubjectKeyID  string
	SubjectKeyHex string
	// Signature authenticates the canonical encoding under the issuer key.
	Signature []byte

	// fp memoizes Fingerprint: certificates are immutable once signed and
	// fingerprinted in several hot loops (ScanWeek, BuildMap), so the
	// SHA-256 is computed once and shared. The atomic makes the memo itself
	// safe under concurrent readers; Sign resets it. Because of this field,
	// certificates must not be copied by value — use Clone.
	fp atomic.Pointer[Fingerprint]
	// names memoizes NamesCanonical under the same immutability contract:
	// 0 unknown, else namesOK or namesBad.
	names atomic.Uint32
}

const (
	namesOK  = 1
	namesBad = 2
)

// Clone returns a deep copy of the certificate's public fields with a
// fresh fingerprint memo. Tests that perturb a certificate start from a
// Clone; copying a Certificate by value is rejected by go vet (the memo
// embeds an atomic).
func (c *Certificate) Clone() *Certificate {
	out := &Certificate{
		Serial:        c.Serial,
		Subject:       c.Subject,
		SANs:          append([]dnscore.Name(nil), c.SANs...),
		Issuer:        c.Issuer,
		IssuerID:      c.IssuerID,
		NotBefore:     c.NotBefore,
		NotAfter:      c.NotAfter,
		Method:        c.Method,
		IsCA:          c.IsCA,
		SubjectKeyID:  c.SubjectKeyID,
		SubjectKeyHex: c.SubjectKeyHex,
		Signature:     append([]byte(nil), c.Signature...),
	}
	return out
}

// Errors from verification.
var (
	ErrBadSignature = errors.New("x509lite: signature verification failed")
	ErrExpired      = errors.New("x509lite: certificate outside validity window")
	ErrNoSANs       = errors.New("x509lite: certificate has no names")
)

// canonical returns the byte string that is hashed and signed. SANs are
// sorted so logically identical certificates have identical encodings.
func (c *Certificate) canonical() []byte {
	sans := make([]string, len(c.SANs))
	for i, s := range c.SANs {
		sans[i] = string(s)
	}
	sort.Strings(sans)
	var b []byte
	b = binary.BigEndian.AppendUint64(b, c.Serial)
	ca := "leaf"
	if c.IsCA {
		ca = "ca"
	}
	for _, field := range []string{string(c.Subject), strings.Join(sans, ","), c.Issuer, c.IssuerID, string(c.Method), ca, c.SubjectKeyID, c.SubjectKeyHex} {
		b = binary.BigEndian.AppendUint32(b, uint32(len(field)))
		b = append(b, field...)
	}
	b = binary.BigEndian.AppendUint64(b, uint64(int64(c.NotBefore)))
	b = binary.BigEndian.AppendUint64(b, uint64(int64(c.NotAfter)))
	return b
}

// appendCanonical appends canonical()'s bytes to b without building any of
// them first: up to eight SANs (all but a handful of certificates) are
// insertion-sorted in place on the stack and written out joined, so the
// caller's buffer is the only storage. canonical stays as the reference
// (TestAppendCanonicalMatchesReference) and as what Sign and Verify use.
func (c *Certificate) appendCanonical(b []byte) []byte {
	var few [8]string
	sans := few[:0]
	if len(c.SANs) > len(few) {
		many := make([]string, len(c.SANs))
		for i, s := range c.SANs {
			many[i] = string(s)
		}
		sort.Strings(many)
		sans = many
	} else {
		for _, s := range c.SANs {
			i := len(sans)
			sans = append(sans, "")
			for ; i > 0 && sans[i-1] > string(s); i-- {
				sans[i] = sans[i-1]
			}
			sans[i] = string(s)
		}
	}
	joined := max(len(sans)-1, 0) // the commas
	for _, s := range sans {
		joined += len(s)
	}
	field := func(b []byte, f string) []byte {
		return append(binary.BigEndian.AppendUint32(b, uint32(len(f))), f...)
	}
	b = binary.BigEndian.AppendUint64(b, c.Serial)
	b = field(b, string(c.Subject))
	b = binary.BigEndian.AppendUint32(b, uint32(joined))
	for i, s := range sans {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, s...)
	}
	ca := "leaf"
	if c.IsCA {
		ca = "ca"
	}
	for _, f := range [...]string{c.Issuer, c.IssuerID, string(c.Method), ca, c.SubjectKeyID, c.SubjectKeyHex} {
		b = field(b, f)
	}
	b = binary.BigEndian.AppendUint64(b, uint64(int64(c.NotBefore)))
	return binary.BigEndian.AppendUint64(b, uint64(int64(c.NotAfter)))
}

// Fingerprint computes the certificate's identity digest, memoized after
// the first call. The signature is included so re-issued certificates with
// fresh signatures are distinct; Sign invalidates the memo. The encoding is
// built in a stack buffer (a leaf's runs to ~200 bytes), so the memo is the
// only allocation of a first call.
func (c *Certificate) Fingerprint() Fingerprint {
	if p := c.fp.Load(); p != nil {
		return *p
	}
	var buf [512]byte
	out := Fingerprint(sha256.Sum256(append(c.appendCanonical(buf[:0]), c.Signature...)))
	c.fp.Store(&out)
	return out
}

// NamesCanonical reports whether the certificate secures at least one name
// and every SAN is in dnscore's canonical form (dnscore.IsCanonical) — the
// ingest gate's per-certificate check, memoized like Fingerprint so a
// certificate observed in every weekly scan is walked once, and safe when
// several datasets gate one shared instance concurrently.
func (c *Certificate) NamesCanonical() bool {
	if v := c.names.Load(); v != 0 {
		return v == namesOK
	}
	v := uint32(namesOK)
	if len(c.SANs) == 0 {
		v = namesBad
	}
	for _, san := range c.SANs {
		if !dnscore.IsCanonical(string(san)) {
			v = namesBad
			break
		}
	}
	c.names.Store(v)
	return v == namesOK
}

// Covers reports whether the certificate secures name, honoring single-
// label wildcards ("*.example.com" covers "mail.example.com" but not
// "a.b.example.com").
func (c *Certificate) Covers(name dnscore.Name) bool {
	for _, san := range c.SANs {
		if san == name {
			return true
		}
		if strings.HasPrefix(string(san), "*.") {
			base := dnscore.Name(strings.TrimPrefix(string(san), "*."))
			if name.Parent() == base {
				return true
			}
		}
	}
	return false
}

// ValidAt reports whether date falls inside the validity window.
func (c *Certificate) ValidAt(date simtime.Date) bool {
	return date >= c.NotBefore && date < c.NotAfter
}

// Lifetime returns the validity span in days.
func (c *Certificate) Lifetime() simtime.Duration {
	return c.NotAfter.Sub(c.NotBefore)
}

// String renders the certificate one line for diagnostics and reports.
func (c *Certificate) String() string {
	sans := make([]string, len(c.SANs))
	for i, s := range c.SANs {
		sans[i] = string(s)
	}
	return fmt.Sprintf("cert %s serial=%d sans=[%s] issuer=%q validity=[%s,%s)",
		c.Fingerprint(), c.Serial, strings.Join(sans, " "), c.Issuer, c.NotBefore, c.NotAfter)
}

// SigningKey is a CA's private signing key (an HMAC key in this model).
type SigningKey struct {
	// ID is the public identifier embedded in certificates as IssuerID.
	ID  string
	key []byte
}

// NewSigningKey derives a deterministic signing key from the CA identifier
// and a seed. Determinism keeps whole-simulation runs reproducible.
func NewSigningKey(id string, seed int64) *SigningKey {
	h := sha256.New()
	fmt.Fprintf(h, "signing-key|%s|%d", id, seed)
	return &SigningKey{ID: id, key: h.Sum(nil)}
}

// Sign seals the certificate under the key, setting IssuerID and Signature.
// Any memoized fingerprint is invalidated: the digest covers the signature.
func (k *SigningKey) Sign(c *Certificate) {
	c.IssuerID = k.ID
	mac := hmac.New(sha256.New, k.key)
	mac.Write(c.canonical())
	c.Signature = mac.Sum(nil)
	c.fp.Store(nil)
}

// Verify checks the certificate's signature under the key and validity at
// the given date.
func (k *SigningKey) Verify(c *Certificate, at simtime.Date) error {
	if len(c.SANs) == 0 {
		return ErrNoSANs
	}
	if c.IssuerID != k.ID {
		return fmt.Errorf("%w: issued by %q, verifying with %q", ErrBadSignature, c.IssuerID, k.ID)
	}
	mac := hmac.New(sha256.New, k.key)
	mac.Write(c.canonical())
	if !hmac.Equal(mac.Sum(nil), c.Signature) {
		return ErrBadSignature
	}
	if !c.ValidAt(at) {
		return fmt.Errorf("%w: at %s, window [%s,%s)", ErrExpired, at, c.NotBefore, c.NotAfter)
	}
	return nil
}
