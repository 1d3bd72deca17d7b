// Package synth generates paper-scale synthetic scan corpora. The
// simulated world (internal/world) models a few hundred domains with full
// behavioral fidelity — DNS zones, CA issuance, hijack campaigns — which
// is the right tool for validating the detection method but three orders
// of magnitude short of the paper's corpus (71M IPs, millions of
// registered domains). synth trades fidelity for scale: it emits
// structurally valid scanner.Records for millions of domains directly,
// with zipf-distributed deployment popularity, from a stateless
// per-(seed, domain, date) hash — so generation streams in constant
// memory, any scan can be regenerated independently, and the same seed
// always produces the byte-identical corpus.
//
// The shape mirrors what the ingest spine must absorb at paper scale:
// every domain serves one long-lived certificate from a zipf-sized pool
// of IPs (the certificate recurs identically in every scan — the cert
// dedup pool collapses it to one instance), and a small hash-selected
// fraction of (domain, period) cells sprout a short-lived Let's Encrypt
// certificate securing a sensitive subdomain on a fresh IP — the
// transient infrastructure the detection funnel exists to surface.
package synth

import (
	"math"
	"net/netip"
	"strconv"

	"retrodns/internal/dnscore"
	"retrodns/internal/ipmeta"
	"retrodns/internal/scanner"
	"retrodns/internal/simtime"
	"retrodns/internal/x509lite"
)

// Config parameterizes a synthetic corpus. The zero value is not usable;
// pass it through New, which applies defaults.
type Config struct {
	// Domains is the number of registered domains (d00000000.example ...).
	Domains int
	// ZipfS is the zipf exponent for deployment popularity: domain rank r
	// serves from 1 + maxExtraHosts/(r+1)^s addresses. Default 1.1.
	ZipfS float64
	// Seed drives every hash; same seed, same corpus.
	Seed int64
	// Scans is the number of scan dates. Default 4.
	Scans int
	// CadenceDays spaces the scan dates from StudyStart. Default 7.
	CadenceDays int
	// TransientPerMille is the per-(domain, period) probability, in
	// thousandths, of a transient sensitive deployment. Default 2.
	TransientPerMille int
}

// maxExtraHosts bounds the most popular domain's deployment: rank 0
// serves from 1+maxExtraHosts addresses.
const maxExtraHosts = 31

func (c Config) withDefaults() Config {
	if c.Domains < 1 {
		c.Domains = 1
	}
	if c.ZipfS <= 0 {
		c.ZipfS = 1.1
	}
	if c.Scans < 1 {
		c.Scans = 4
	}
	if c.CadenceDays < 1 {
		c.CadenceDays = simtime.DaysPerWeek
	}
	if c.TransientPerMille < 0 {
		c.TransientPerMille = 0
	} else if c.TransientPerMille == 0 {
		c.TransientPerMille = 2
	}
	return c
}

// Generator emits synthetic scans. It is stateless between calls: every
// record is a pure function of (config, domain index, date).
type Generator struct {
	cfg Config
}

// New creates a generator with defaults applied.
func New(cfg Config) *Generator {
	return &Generator{cfg: cfg.withDefaults()}
}

// Config returns the effective (defaulted) configuration.
func (g *Generator) Config() Config { return g.cfg }

// ScanDates returns the generator's scan schedule, clamped to the study
// window.
func (g *Generator) ScanDates() []simtime.Date {
	var out []simtime.Date
	for i := 0; i < g.cfg.Scans; i++ {
		d := simtime.StudyStart + simtime.Date(i*g.cfg.CadenceDays)
		if !d.InStudy() {
			break
		}
		out = append(out, d)
	}
	return out
}

// DeploySize returns the zipf deployment size of the domain at rank idx.
func (g *Generator) DeploySize(idx int) int {
	return 1 + int(float64(maxExtraHosts)/math.Pow(float64(idx+1), g.cfg.ZipfS))
}

// EstimatedRecords returns the per-scan record count before transients —
// the sum of deployment sizes — for preallocation and progress reporting.
func (g *Generator) EstimatedRecords() int {
	total := 0
	for i := 0; i < g.cfg.Domains; i++ {
		total += g.DeploySize(i)
	}
	return total
}

// Scan materializes one scan as a record slice (see EmitScan to stream).
func (g *Generator) Scan(date simtime.Date) []*scanner.Record {
	out := make([]*scanner.Record, 0, g.EstimatedRecords()+g.cfg.Domains/256)
	g.EmitScan(date, func(r *scanner.Record) { out = append(out, r) })
	return out
}

// EmitScan streams one scan's records through emit in deterministic
// order: domains ascending, stable deployment hosts first, then the
// domain's transient (if its (domain, period) hash selects one active at
// date). Certificates are fresh objects each call but byte-identical
// across calls, so a dedup pool collapses them; nothing is retained by
// the generator.
func (g *Generator) EmitScan(date simtime.Date, emit func(*scanner.Record)) {
	for idx := 0; idx < g.cfg.Domains; idx++ {
		k := g.DeploySize(idx)
		cert := g.stableCert(idx, k)
		sensitive := stableSensitive[len(cert.SANs)-1]
		asn, country := g.meta(idx)
		for h := 0; h < k; h++ {
			emit(&scanner.Record{
				ScanDate:  date,
				IP:        g.ip(idx, h),
				Ports:     []uint16{443},
				ASN:       asn,
				Country:   country,
				Cert:      cert,
				CrtShID:   int64(idx) + 1_000_000,
				Trusted:   true,
				Sensitive: sensitive,
			})
		}
		if r := g.transient(idx, date); r != nil {
			emit(r)
		}
	}
}

// nameOf returns the registered domain at rank idx, d%08d.example. Two
// labels with a single-label TLD, so RegisteredDomain is the name itself.
func nameOf(idx int) dnscore.Name {
	digits := strconv.Itoa(idx)
	return dnscore.Name("d" + "00000000"[min(len(digits), 8):] + digits + ".example")
}

// stableLabels are the subdomains a stable certificate secures beside its
// apex, in the order a growing deployment takes them up: www always, mail
// from four hosts, vpn from eight.
var stableLabels = [...]dnscore.Name{"www.", "mail.", "vpn."}

// stableSensitive[n] is the sensitive flag of a stable certificate securing
// the first n stableLabels — what Scanner.ScanWeek would annotate. No
// keyword of the paper's rule matches an apex (a d, digits, .example), so
// the labels decide it for every domain at once.
var stableSensitive = func() (flags [len(stableLabels) + 1]bool) {
	apex := nameOf(0)
	flags[0] = scanner.IsSensitiveName(apex)
	for i, label := range stableLabels {
		flags[i+1] = flags[i] || scanner.IsSensitiveName(label+apex)
	}
	return flags
}()

// stableCert builds the long-lived certificate of the domain at rank idx,
// whose deployment size is k: identical bytes every call, valid across the
// whole study, manually validated by the synthetic commercial CA. Popular
// domains secure more subdomains (some sensitive), mirroring how large
// deployments look in CUIDS.
func (g *Generator) stableCert(idx, k int) *x509lite.Certificate {
	labels := stableLabels[:1]
	if k >= 8 {
		labels = stableLabels[:3]
	} else if k >= 4 {
		labels = stableLabels[:2]
	}
	apex := nameOf(idx)
	sans := make([]dnscore.Name, 1, 1+len(labels))
	sans[0] = apex
	for _, label := range labels {
		sans = append(sans, label+apex)
	}
	c := &x509lite.Certificate{
		Serial:    uint64(idx) + 1,
		Subject:   apex,
		SANs:      sans,
		Issuer:    "Synth Trust CA",
		IssuerID:  "synth-ca",
		NotBefore: simtime.StudyStart,
		NotAfter:  simtime.StudyEnd + 364,
		Method:    x509lite.ValidationManual,
		Signature: sigBytes(mix(uint64(g.cfg.Seed), uint64(idx), 0xC0DE)),
	}
	return c
}

// transient returns the domain's short-lived sensitive deployment if its
// (domain, period) hash selects one whose two-week serving window covers
// date, else nil. The certificate is Let's Encrypt-shaped — 90-day
// validity, dns-01, browser-trusted, absent from CT — served from an
// address outside the domain's stable deployment.
func (g *Generator) transient(idx int, date simtime.Date) *scanner.Record {
	p := simtime.PeriodOf(date)
	h := mix(uint64(g.cfg.Seed), uint64(idx), uint64(p), 0x7A51)
	if int(h%1000) >= g.cfg.TransientPerMille {
		return nil
	}
	start := p.Start() + simtime.Date((h>>16)%uint64(simtime.DaysPerPeriod-14))
	if date < start || date >= start+14 {
		return nil
	}
	apex := nameOf(idx)
	c := &x509lite.Certificate{
		Serial:    uint64(idx)*16 + uint64(p) + 1<<40,
		Subject:   "login." + apex,
		SANs:      []dnscore.Name{"login." + apex},
		Issuer:    "Let's Encrypt",
		IssuerID:  "synth-le",
		NotBefore: start,
		NotAfter:  start + 90,
		Method:    x509lite.ValidationDNS01,
		Signature: sigBytes(mix(uint64(g.cfg.Seed), uint64(idx), uint64(p), 0xE71)),
	}
	return &scanner.Record{
		ScanDate:  date,
		IP:        g.ip(idx, 255),
		Ports:     []uint16{443},
		ASN:       ipmeta.ASN(64496 + h%16),
		Country:   transientCountries[h%uint64(len(transientCountries))],
		Cert:      c,
		Trusted:   true,
		Sensitive: true,
	}
}

// meta derives the domain's stable hosting annotations.
func (g *Generator) meta(idx int) (ipmeta.ASN, ipmeta.CountryCode) {
	h := mix(uint64(g.cfg.Seed), uint64(idx), 0x3E7A)
	return ipmeta.ASN(64512 + h%512), stableCountries[h%uint64(len(stableCountries))]
}

var (
	stableCountries    = []ipmeta.CountryCode{"US", "DE", "NL", "GB", "FR", "JP", "SG", "AU"}
	transientCountries = []ipmeta.CountryCode{"NL", "RU", "MD", "TR"}
)

// ip derives a deterministic valid unicast IPv4 address for host h of
// domain idx. First octet lands in [1, 223] and never 0, so the address
// always passes the ingest gate.
func (g *Generator) ip(idx, h int) netip.Addr {
	v := mix(uint64(g.cfg.Seed), uint64(idx), uint64(h), 0x1B)
	var b [4]byte
	b[0] = byte(1 + v%223)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
	return netip.AddrFrom4(b)
}

// sigBytes expands a hash into a 32-byte deterministic signature stand-in
// (ingest never verifies signatures; the bytes only need to be stable so
// fingerprints are stable).
func sigBytes(h uint64) []byte {
	out := make([]byte, 32)
	for i := 0; i < 4; i++ {
		h = mix(h, uint64(i))
		for j := 0; j < 8; j++ {
			out[i*8+j] = byte(h >> (8 * j))
		}
	}
	return out
}

// mix folds the inputs through splitmix64 — the stateless hash behind
// every generation decision.
func mix(vals ...uint64) uint64 {
	h := uint64(0x9E3779B97F4A7C15)
	for _, v := range vals {
		h ^= v + 0x9E3779B97F4A7C15 + (h << 6) + (h >> 2)
		h += 0x9E3779B97F4A7C15
		h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9
		h = (h ^ (h >> 27)) * 0x94D049BB133111EB
		h ^= h >> 31
	}
	return h
}
