// Package dnscore implements the DNS data model used by the simulation:
// domain names, resource records, zones, and the RFC 1035 wire format. It is
// deliberately self-contained (stdlib only) and implements just enough of
// the protocol for authoritative service, recursive resolution, passive DNS
// observation, and CA domain validation — the operations the paper's attack
// and detection models depend on.
package dnscore

import (
	"errors"
	"fmt"
	"strings"
)

// Name is a fully-qualified domain name in canonical (lower-case, no
// trailing dot) presentation form. The root zone is the empty Name.
type Name string

// Errors returned by name parsing.
var (
	ErrNameTooLong   = errors.New("dnscore: name exceeds 253 octets")
	ErrLabelTooLong  = errors.New("dnscore: label exceeds 63 octets")
	ErrEmptyLabel    = errors.New("dnscore: empty label")
	ErrBadLabel      = errors.New("dnscore: label contains invalid character")
	ErrLabelEdgeDash = errors.New("dnscore: label begins or ends with a hyphen")
)

// ParseName canonicalizes and validates a domain name. It accepts an
// optional trailing dot and upper-case letters; it rejects empty labels,
// over-long names and labels, and anything outside LDH (letter-digit-hyphen
// with no leading or trailing hyphen). The one exception to strict LDH is
// the service-label convention: a label may start with a single underscore
// (as in _acme-challenge or _dmarc); underscores anywhere else are
// rejected.
func ParseName(s string) (Name, error) {
	if IsCanonical(s) {
		return Name(s), nil // nothing to fold, trim or split: no garbage
	}
	return parseName(s)
}

// parseName is ParseName in full: the path that canonicalizes, and that says
// why a name is refused.
func parseName(s string) (Name, error) {
	s = strings.TrimSuffix(strings.ToLower(s), ".")
	if s == "" {
		return "", nil // the root
	}
	if len(s) > 253 {
		return "", fmt.Errorf("%w: %q", ErrNameTooLong, s)
	}
	for _, label := range strings.Split(s, ".") {
		if err := checkLabel(label); err != nil {
			return "", fmt.Errorf("%w in %q", err, s)
		}
	}
	return Name(s), nil
}

// IsCanonical reports whether s is already in ParseName's output form —
// exactly when ParseName(s) succeeds and returns s unchanged — without
// allocating. Ingest gates use it to check names a feed claims are
// canonical; ParseName stays the path that produces one (and the error
// that says why not).
func IsCanonical(s string) bool {
	if s == "" {
		return true // the root
	}
	if len(s) > 253 {
		return false
	}
	for {
		i := strings.IndexByte(s, '.')
		if i < 0 {
			return checkLabel(s) == nil
		}
		if checkLabel(s[:i]) != nil {
			return false
		}
		s = s[i+1:]
	}
}

// MustParseName is ParseName for static tables and tests; it panics on error.
func MustParseName(s string) Name {
	n, err := ParseName(s)
	if err != nil {
		panic(err)
	}
	return n
}

func checkLabel(label string) error {
	if label == "" {
		return ErrEmptyLabel
	}
	if len(label) > 63 {
		return ErrLabelTooLong
	}
	// Service labels (_acme-challenge, _dmarc, _tcp) carry one leading
	// underscore; the remainder must still be a valid LDH label.
	body := label
	if body[0] == '_' {
		body = body[1:]
		if body == "" {
			return ErrBadLabel
		}
	}
	if body[0] == '-' || body[len(body)-1] == '-' {
		return ErrLabelEdgeDash
	}
	for i := 0; i < len(body); i++ {
		c := body[i]
		switch {
		case c >= 'a' && c <= 'z':
		case c >= '0' && c <= '9':
		case c == '-':
		default:
			return ErrBadLabel
		}
	}
	return nil
}

// String returns the presentation form; the root prints as ".".
func (n Name) String() string {
	if n == "" {
		return "."
	}
	return string(n)
}

// Labels splits the name into labels, least significant first is NOT used;
// labels are returned in presentation order (www, example, com). The root
// returns nil.
func (n Name) Labels() []string {
	if n == "" {
		return nil
	}
	return strings.Split(string(n), ".")
}

// NumLabels returns the number of labels in the name.
func (n Name) NumLabels() int {
	if n == "" {
		return 0
	}
	return strings.Count(string(n), ".") + 1
}

// Parent returns the name with its leftmost label removed; the parent of a
// TLD is the root and the parent of the root is the root.
func (n Name) Parent() Name {
	if n == "" {
		return ""
	}
	if i := strings.IndexByte(string(n), '.'); i >= 0 {
		return n[i+1:]
	}
	return ""
}

// IsSubdomainOf reports whether n is equal to or underneath ancestor.
// Every name is a subdomain of the root.
func (n Name) IsSubdomainOf(ancestor Name) bool {
	if ancestor == "" {
		return true
	}
	if n == ancestor {
		return true
	}
	return strings.HasSuffix(string(n), "."+string(ancestor))
}

// Child prepends a label to the name: Name("example.com").Child("mail") is
// "mail.example.com".
func (n Name) Child(label string) Name {
	if n == "" {
		return Name(label)
	}
	return Name(label + "." + string(n))
}

// FirstLabel returns the leftmost label, or "" for the root.
func (n Name) FirstLabel() string {
	if n == "" {
		return ""
	}
	if i := strings.IndexByte(string(n), '.'); i >= 0 {
		return string(n)[:i]
	}
	return string(n)
}

// multiLabelSuffixes lists public-suffix-style two-label suffixes that occur
// in the paper's victim tables (gov.kg, com.cy, gov.ae, ...). The simulation
// registers whichever suffixes its world uses; this seed set covers the
// paper's campaigns out of the box.
var multiLabelSuffixes = map[Name]bool{
	"gov.ae": true, "gov.al": true, "gov.cy": true, "com.cy": true,
	"gov.eg": true, "gov.iq": true, "gov.jo": true, "gov.kg": true,
	"gov.kw": true, "com.kw": true, "gov.lb": true, "com.lb": true,
	"gov.lv": true, "gov.lt": true, "gov.ma": true, "gov.mm": true,
	"gov.pl": true, "gov.tm": true, "gov.vn": true, "gov.kz": true,
	"gov.gh": true,
}

// RegisterPublicSuffix adds a multi-label public suffix so that
// RegisteredDomain treats names directly under it as registrable.
func RegisterPublicSuffix(suffix Name) { multiLabelSuffixes[suffix] = true }

// RegisteredDomain returns the registrable domain for a name: one label
// under its public suffix (com, org, a ccTLD, or a registered multi-label
// suffix such as gov.kg). Names that are themselves suffixes or the root
// return "".
//
// This is a deliberately small stand-in for the Public Suffix List: the
// simulation controls its own namespace, so only suffixes registered via
// RegisterPublicSuffix (plus all single-label TLDs) exist.
func (n Name) RegisteredDomain() Name {
	if multiLabelSuffixes[n] {
		return ""
	}
	// Allocation-free: every candidate suffix and the result are
	// substrings of n, so the hot loops that call this per SAN (dataset
	// ingest, shortlisting, pivoting) never touch the heap.
	s := string(n)
	last := strings.LastIndexByte(s, '.')
	if last < 0 {
		return "" // fewer than two labels
	}
	prev := -1 // dot preceding the suffix under test
	for d := strings.IndexByte(s, '.'); d != last; {
		// The suffix after d has at least two labels; longest first, so
		// the first registered match wins.
		if multiLabelSuffixes[n[d+1:]] {
			return n[prev+1:]
		}
		prev = d
		d = prev + 1 + strings.IndexByte(s[prev+1:], '.')
	}
	// Single-label TLD: registrable domain is the last two labels.
	return n[prev+1:]
}

// TLD returns the rightmost label, or "" for the root.
func (n Name) TLD() Name {
	if n == "" {
		return ""
	}
	if i := strings.LastIndexByte(string(n), '.'); i >= 0 {
		return n[i+1:]
	}
	return n
}
