package dnscore

import (
	"strings"
	"testing"
)

// FuzzParseName drives the name parser with arbitrary byte soup and checks
// its contract: no panic, and every accepted name is canonical — parsing
// is idempotent, the result respects the wire-format length limits, and
// every label survives checkLabel. The seed corpus pins the shapes the LDH
// validation must reject (hyphen edges, misplaced underscores) alongside
// the accepted service-label forms. Every input is also a differential for
// IsCanonical, which must hold exactly when ParseName returns its input
// unchanged.
func FuzzParseName(f *testing.F) {
	seeds := []string{
		"", ".", "..", "a..b",
		"example.com", "Example.COM.", "mail.mfa.gov.kg",
		"_acme-challenge.mail.gov.kg", "_sip._tcp.example.com", "_dmarc.example.com",
		// Rejected by the LDH rules:
		"-example.com", "example-.com", "www.-mid-.com",
		"foo_bar.com", "example_.com", "__x.com", "_.com", "_-x.com",
		"exa mple.com", "exa$mple.com",
		strings.Repeat("a", 64) + ".com",
		strings.Repeat("abcdefgh.", 32) + "com",
		"xn--bcher-kva.com",
		"\x00.com", "a.\xffb", "🦈.com",
		// Lower-cases into ASCII (Kelvin sign): parses, but not to itself.
		"\u212a.com", "a.", strings.Repeat("a.", 126) + "a.",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		n, err := ParseName(s)
		// parseName is the reference both shortcuts answer to: IsCanonical,
		// and ParseName returning an already canonical s as it stands.
		ref, refErr := parseName(s)
		if n != ref || (err == nil) != (refErr == nil) || (err != nil && err.Error() != refErr.Error()) {
			t.Fatalf("ParseName(%q) = (%q, %v), the full parse (%q, %v)", s, n, err, ref, refErr)
		}
		if got, want := IsCanonical(s), refErr == nil && string(ref) == s; got != want {
			t.Fatalf("IsCanonical(%q) = %v, the full parse says %v (%q, %v)", s, got, want, ref, refErr)
		}
		if err != nil {
			return
		}
		if !IsCanonical(string(n)) {
			t.Fatalf("ParseName(%q) = %q, which IsCanonical rejects", s, n)
		}
		if len(string(n)) > 253 {
			t.Fatalf("ParseName(%q) accepted over-long name %q", s, n)
		}
		again, err := ParseName(string(n))
		if err != nil {
			t.Fatalf("ParseName(%q) = %q, which does not re-parse: %v", s, n, err)
		}
		if again != n {
			t.Fatalf("ParseName not idempotent: %q -> %q -> %q", s, n, again)
		}
		for _, label := range n.Labels() {
			if err := checkLabel(label); err != nil {
				t.Fatalf("ParseName(%q) = %q with invalid label %q: %v", s, n, label, err)
			}
		}
	})
}
