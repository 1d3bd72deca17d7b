package dnscore

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestParseName(t *testing.T) {
	cases := []struct {
		in   string
		want Name
		err  bool
	}{
		{"example.com", "example.com", false},
		{"Example.COM.", "example.com", false},
		{"mail.mfa.gov.kg", "mail.mfa.gov.kg", false},
		{"_acme-challenge.mail.gov.kg", "_acme-challenge.mail.gov.kg", false},
		{".", "", false},
		{"", "", false},
		{"a..b", "", true},
		{"exa mple.com", "", true},
		{"exa$mple.com", "", true},
		{strings.Repeat("a", 64) + ".com", "", true},
		{strings.Repeat("abcdefgh.", 32) + "com", "", true}, // > 253 octets
		// LDH edges: labels may not begin or end with a hyphen.
		{"-example.com", "", true},
		{"example-.com", "", true},
		{"www.-mid-.com", "", true},
		{"xn--bcher-kva.com", "xn--bcher-kva.com", false}, // interior hyphens fine
		// Underscore only as the service-label prefix.
		{"_dmarc.example.com", "_dmarc.example.com", false},
		{"_sip._tcp.example.com", "_sip._tcp.example.com", false},
		{"foo_bar.com", "", true},
		{"example_.com", "", true},
		{"__x.com", "", true},
		{"_.com", "", true},
		{"_-x.com", "", true},
	}
	for _, c := range cases {
		got, err := ParseName(c.in)
		if (err != nil) != c.err {
			t.Errorf("ParseName(%q) err=%v, want err=%v", c.in, err, c.err)
			continue
		}
		if err == nil && got != c.want {
			t.Errorf("ParseName(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestIsCanonical(t *testing.T) {
	for _, s := range []string{
		"", "com", "example.com", "mail.mfa.gov.kg", "_dmarc.example.com", "xn--bcher-kva.com",
		"Example.com", "example.com.", ".", "a..b", "-a.com", "a_b.com", "\u212a.com", "a b.com",
		strings.Repeat("a", 64) + ".com", strings.Repeat("abcdefgh.", 32) + "com",
	} {
		n, err := ParseName(s)
		if want := err == nil && string(n) == s; IsCanonical(s) != want {
			t.Errorf("IsCanonical(%q) = %v, ParseName says %v", s, !want, want)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { IsCanonical("_acme-challenge.mail.mfa.gov.kg") }); allocs != 0 {
		t.Errorf("IsCanonical allocates %.0f times per call", allocs)
	}
}

func TestMustParseNamePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	MustParseName("bad name")
}

func TestNameStructure(t *testing.T) {
	n := MustParseName("mail.mfa.gov.kg")
	if n.NumLabels() != 4 {
		t.Errorf("NumLabels = %d", n.NumLabels())
	}
	if got := n.Parent(); got != "mfa.gov.kg" {
		t.Errorf("Parent = %q", got)
	}
	if got := n.FirstLabel(); got != "mail" {
		t.Errorf("FirstLabel = %q", got)
	}
	if got := n.TLD(); got != "kg" {
		t.Errorf("TLD = %q", got)
	}
	if !n.IsSubdomainOf("gov.kg") || !n.IsSubdomainOf(n) || !n.IsSubdomainOf("") {
		t.Error("IsSubdomainOf failures")
	}
	if n.IsSubdomainOf("ov.kg") {
		t.Error("suffix-but-not-label match accepted")
	}
	if got := Name("gov.kg").Child("mfa"); got != "mfa.gov.kg" {
		t.Errorf("Child = %q", got)
	}
	if got := Name("").Child("com"); got != "com" {
		t.Errorf("root Child = %q", got)
	}
}

func TestRootName(t *testing.T) {
	root := Name("")
	if root.String() != "." {
		t.Errorf("root String = %q", root.String())
	}
	if root.Parent() != "" || root.NumLabels() != 0 || root.FirstLabel() != "" || root.TLD() != "" {
		t.Error("root structure accessors wrong")
	}
	if root.Labels() != nil {
		t.Error("root has labels")
	}
}

func TestRegisteredDomain(t *testing.T) {
	cases := []struct {
		in, want Name
	}{
		{"mail.mfa.gov.kg", "mfa.gov.kg"},
		{"mfa.gov.kg", "mfa.gov.kg"},
		{"gov.kg", ""},
		{"kg", ""},
		{"", ""},
		{"www.example.com", "example.com"},
		{"example.com", "example.com"},
		{"deep.sub.domain.example.com", "example.com"},
		{"mbox.cyta.com.cy", "cyta.com.cy"},
	}
	for _, c := range cases {
		if got := c.in.RegisteredDomain(); got != c.want {
			t.Errorf("RegisteredDomain(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestRegisterPublicSuffix(t *testing.T) {
	RegisterPublicSuffix("co.test")
	if got := Name("www.site.co.test").RegisteredDomain(); got != "site.co.test" {
		t.Errorf("after registration, RegisteredDomain = %q", got)
	}
}

// Property: parsing is idempotent — reparsing a parsed name yields itself.
func TestParseIdempotentProperty(t *testing.T) {
	f := func(a, b uint8) bool {
		labels := []string{"mail", "vpn", "owa", "example", "gov", "kg", "com"}
		n := Name(labels[int(a)%len(labels)] + "." + labels[int(b)%len(labels)])
		got, err := ParseName(string(n))
		return err == nil && got == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: a child is always a subdomain of its parent chain.
func TestChildSubdomainProperty(t *testing.T) {
	f := func(depth uint8) bool {
		n := Name("com")
		for i := 0; i < int(depth%8); i++ {
			n = n.Child("x")
		}
		for p := n; p != ""; p = p.Parent() {
			if !n.IsSubdomainOf(p) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
