// Package world generates the synthetic Internet the study runs against:
// hosting providers and IP space, a live DNS hierarchy with root and TLD
// zones, certificate authorities with CT logging, passive-DNS sensors,
// benign domain populations (stable, transitioning, noisy, and
// benign-transient), and attacker campaigns replaying the paper's Tables 2
// and 3 against that substrate.
//
// The world is the study's ground truth. Everything the detection pipeline
// consumes — weekly scan records, pDNS rows, CT entries — is derived from
// it through the same partial, lossy observation channels the paper's data
// sets have (weekly scan cadence, pDNS coverage gaps, CT submission).
package world

import (
	"fmt"
	"math/rand"
	"net/netip"
	"sort"

	"retrodns/internal/ca"
	"retrodns/internal/ctlog"
	"retrodns/internal/dnscore"
	"retrodns/internal/dnssecmon"
	"retrodns/internal/dnsserver"
	"retrodns/internal/ipmeta"
	"retrodns/internal/netsim"
	"retrodns/internal/obsv"
	"retrodns/internal/pdns"
	"retrodns/internal/registrar"
	"retrodns/internal/scanner"
	"retrodns/internal/simtime"
	"retrodns/internal/x509lite"
	"retrodns/internal/zonefiles"
)

// Config parameterizes world generation. The zero value of a count keeps
// that population empty.
type Config struct {
	// Seed drives every random choice; equal seeds give equal worlds.
	Seed int64
	// Benign population sizes (paper proportions: 96.5% stable, 2.95%
	// transition, 0.13% transient, 0.35% noisy).
	StableDomains     int
	TransitionDomains int
	NoisyDomains      int
	// BenignTransients are domains with transient deployments that have
	// innocent explanations (same org, same country, non-sensitive name)
	// — the shortlist must prune them.
	BenignTransients int
	// FlakyFraction of stable hosts miss a noticeable share of scans.
	FlakyFraction float64
	// PDNSCoverage is the sensor's per-resolution-path coverage (0..1].
	PDNSCoverage float64
	// Campaigns enables the paper's Table 2/3 attack replay.
	Campaigns bool
	// DNSSEC signs the delegation chain for a third of the campaign
	// victims and monitors their validation status daily, enabling the
	// paper's §7.1 downgrade signal.
	DNSSEC bool
	// RegistryLockAll enables the §7.2 counterfactual: every victim
	// domain is registry-locked, so registrar-channel attacks (T1, T1*,
	// T2, P-NS) fail while DNS-provider-level attacks (P-IP) and proxy
	// stagings proceed.
	RegistryLockAll bool
	// ScanCadenceDays overrides the weekly scan cadence (paper footnote
	// 9: Censys moved to daily scans after the study). Zero means weekly.
	ScanCadenceDays int
	// CDNDomains adds domains whose names share one multi-SAN certificate
	// served from shared infrastructure — the CDN-style noise real scan
	// data is full of. They must classify stable.
	CDNDomains int
}

// DefaultConfig returns a laptop-scale world with the paper's population
// proportions and all campaigns.
func DefaultConfig() Config {
	return Config{
		Seed:              1,
		StableDomains:     2000,
		TransitionDomains: 61, // ≈2.95% of ~2070 benign domains
		NoisyDomains:      8,  // ≈0.35%
		BenignTransients:  6,  // transient-but-benign, pruned by §4.3
		FlakyFraction:     0.05,
		PDNSCoverage:      0.85,
		Campaigns:         true,
		DNSSEC:            true,
	}
}

// StudyConfig is DefaultConfig at seed with stable stable domains and the
// transition and noisy populations scaled to it: the world every CLI's
// -seed and -stable name, so a daemon rebuilds the one the batch tools do.
func StudyConfig(seed int64, stable int) Config {
	cfg := DefaultConfig()
	cfg.Seed = seed
	cfg.StableDomains = stable
	cfg.TransitionDomains = stable * 3 / 100
	cfg.NoisyDomains = max(2, stable/250)
	return cfg
}

// GroundTruth records what actually happened to a domain, for evaluating
// the pipeline (the paper has no such luxury).
type GroundTruth struct {
	Domain  dnscore.Name
	Kind    string // "stable", "transition", "noisy", "benign-transient", "hijacked", "targeted"
	Method  string // expected identification route for attack victims
	Sector  string // organization sector (Tables 7/8)
	Org     string // organization description
	Country ipmeta.CountryCode
}

// World is the assembled simulation.
type World struct {
	Cfg Config

	Internet  *netsim.Internet
	Meta      *ipmeta.Directory
	Trust     *x509lite.TrustStore
	CT        *ctlog.Log
	PDNSDB    *pdns.DB
	Sensor    *pdns.Sensor
	Transport *dnsserver.MemTransport
	Resolver  *dnsserver.Resolver

	// CAs by display name.
	LetsEncrypt *ca.CA
	Comodo      *ca.CA
	DigiCert    *ca.CA
	InternalCA  *x509lite.SigningKey

	Truth map[dnscore.Name]*GroundTruth
	// SecLog records daily DNSSEC validation status for signed victim
	// domains (the §7.1 monitoring signal).
	SecLog *dnssecmon.Log
	// ZoneFiles archives daily delegation snapshots for the TLDs the
	// paper had zone-file access to (com, se, net).
	ZoneFiles *zonefiles.Archive
	// Registrar is the (single, Sea-Turtle-style compromised) registrar
	// sponsoring every victim domain; Registries hold per-TLD databases.
	Registrar *registrar.Registrar
	// Prevented lists domains whose attacks Registry Lock blocked.
	Prevented []dnscore.Name
	// Errors collects failures of scheduled attack steps; a healthy run
	// leaves it empty.
	Errors []error

	alloc   *allocator
	rng     *rand.Rand
	rootIP  netip.Addr
	rootSrv *dnsserver.Server
	root    *dnscore.Zone
	tlds    map[dnscore.Name]*tldInfo

	nsGroups         map[string]*nsGroupInfo
	nationalISP      map[ipmeta.CountryCode]ipmeta.ASN
	attackerPrefixes map[netip.Prefix]bool
	maliciousCerts   map[dnscore.Name]*x509lite.Certificate
	portRR           map[netip.Addr]int

	rootKey    *dnscore.ZoneKey
	tldKeys    map[dnscore.Name]*dnscore.ZoneKey
	zoneKeys   map[dnscore.Name]*dnscore.ZoneKey
	secTrack   []trackedQuery
	registries map[dnscore.Name]*registrar.Registry
	prevented  map[dnscore.Name]bool

	// events holds zone mutations and issuance actions by day; evening
	// events run after the day's queries and zone-file snapshots, so a
	// same-day switch-and-revert is visible to passive DNS but not to the
	// daily zone files (paper §5.3).
	events        map[simtime.Date][]func()
	eveningEvents map[simtime.Date][]func()
	// tracked names are resolved daily to feed passive DNS.
	tracked []trackedQuery

	certSerial uint64

	// clockDone marks that RunClock has advanced the daily clock, making
	// repeat Run/RunClock calls no-ops on the event schedule.
	clockDone bool
}

type tldInfo struct {
	zone *dnscore.Zone
	ip   netip.Addr
	srv  *dnsserver.Server
}

type trackedQuery struct {
	name dnscore.Name
	typ  dnscore.Type
}

// New assembles a world per the config (without running the clock; call
// Run afterwards).
func New(cfg Config) *World {
	if cfg.PDNSCoverage <= 0 {
		cfg.PDNSCoverage = 0.85
	}
	w := &World{
		Cfg:       cfg,
		Internet:  netsim.NewInternet(),
		Meta:      ipmeta.NewDirectory(),
		Trust:     x509lite.NewTrustStore(),
		CT:        ctlog.NewLog("sim-ct", 800_000_000),
		PDNSDB:    pdns.NewDB(),
		Transport: dnsserver.NewMemTransport(),
		Truth:     make(map[dnscore.Name]*GroundTruth),
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		tlds:      make(map[dnscore.Name]*tldInfo),
		events:    make(map[simtime.Date][]func()),

		nationalISP:      make(map[ipmeta.CountryCode]ipmeta.ASN),
		attackerPrefixes: make(map[netip.Prefix]bool),
		maliciousCerts:   make(map[dnscore.Name]*x509lite.Certificate),
		portRR:           make(map[netip.Addr]int),

		SecLog:    dnssecmon.NewLog(),
		ZoneFiles: zonefiles.NewArchive("com", "se", "net"),
		tldKeys:   make(map[dnscore.Name]*dnscore.ZoneKey),
		zoneKeys:  make(map[dnscore.Name]*dnscore.ZoneKey),

		registries:    make(map[dnscore.Name]*registrar.Registry),
		prevented:     make(map[dnscore.Name]bool),
		eveningEvents: make(map[simtime.Date][]func()),
	}
	w.Registrar = registrar.NewRegistrar("sim-registrar", func(tld dnscore.Name) (*registrar.Registry, bool) {
		r, ok := w.registries[tld]
		return r, ok
	})
	w.alloc = newAllocator(w.Meta)
	for _, p := range AttackerProviders {
		w.alloc.RegisterProvider(p)
	}
	for _, p := range CloudSiblings {
		w.alloc.RegisterProvider(p)
	}

	// DNS root.
	w.alloc.RegisterProvider(Provider{ASN: 64600, Name: "Registry Services", Org: "registries", Countries: cc("US")})
	w.rootIP = w.alloc.Alloc(64600, "US")
	w.root = dnscore.NewZone("")
	w.rootSrv = dnsserver.NewServer()
	w.rootSrv.AddZone(w.root)
	w.Transport.Register(w.rootIP, w.rootSrv)
	w.Resolver = dnsserver.NewResolver(w.Transport, []netip.Addr{w.rootIP})

	// Passive DNS sensor on the resolver path.
	w.Sensor = pdns.NewSensor(w.PDNSDB, cfg.PDNSCoverage, uint64(cfg.Seed)+7)
	w.Resolver.AddObserver(w.Sensor.Observer())

	// Certificate authorities. Let's Encrypt and Comodo are the paper's
	// two free DV issuers; DigiCert stands in for the paid OV issuers of
	// legitimate long-lived deployments; the internal CA models
	// enterprise CAs whose certificates never reach CT.
	w.LetsEncrypt = ca.New(ca.Config{Name: "Let's Encrypt", KeyID: "le-x3", Seed: cfg.Seed + 101, ValidityDays: 90}, w.Resolver, w.CT)
	w.Comodo = ca.New(ca.Config{Name: "Comodo", KeyID: "comodo-rsa", Seed: cfg.Seed + 102, ValidityDays: 90, PublishesCRL: true}, w.Resolver, w.CT)
	w.DigiCert = ca.New(ca.Config{Name: "DigiCert Inc", KeyID: "digicert-g2", Seed: cfg.Seed + 103, ValidityDays: 730}, w.Resolver, w.CT)
	w.InternalCA = x509lite.NewSigningKey("internal-corp", cfg.Seed+104)
	for _, k := range []*x509lite.SigningKey{w.LetsEncrypt.Key(), w.Comodo.Key(), w.DigiCert.Key()} {
		w.Trust.Include(k, x509lite.ProgramApple, x509lite.ProgramMicrosoft, x509lite.ProgramMozilla)
	}
	w.Trust.Include(w.InternalCA) // registered, browser-trusted nowhere

	if cfg.StableDomains > 0 || cfg.TransitionDomains > 0 || cfg.NoisyDomains > 0 || cfg.BenignTransients > 0 || cfg.CDNDomains > 0 {
		w.buildPopulation()
	}
	if cfg.Campaigns {
		w.buildCampaigns()
	}
	if cfg.DNSSEC {
		w.finalizeDNSSEC()
	}
	w.Errors = append(w.Errors, w.alloc.drainErrors()...)
	return w
}

// finalizeDNSSEC signs the root and every TLD that hosts a signed victim,
// publishing the DS chain and installing the trust anchor. It runs once,
// after all zones and delegations exist.
func (w *World) finalizeDNSSEC() {
	w.rootKey = dnscore.NewZoneKey("", w.Cfg.Seed+500)
	for tld, key := range w.tldKeys {
		info := w.tlds[tld]
		if err := dnscore.SignZone(info.zone, key); err != nil {
			w.Errors = append(w.Errors, err)
			continue
		}
		w.root.MustAdd(key.DS())
	}
	if err := dnscore.SignZone(w.root, w.rootKey); err != nil {
		w.Errors = append(w.Errors, err)
		return
	}
	w.Resolver.SetTrustAnchor(w.rootKey.DNSKEY())
}

// signVictimZone signs a victim's authoritative zone and publishes its DS
// in the TLD, creating the TLD key on first use. The TLD zone itself is
// signed later by finalizeDNSSEC.
func (w *World) signVictimZone(domain dnscore.Name, zone *dnscore.Zone) {
	key := dnscore.NewZoneKey(domain, w.Cfg.Seed+600)
	if err := dnscore.SignZone(zone, key); err != nil {
		w.Errors = append(w.Errors, err)
		return
	}
	w.zoneKeys[domain] = key
	tld := domain.TLD()
	if _, ok := w.tldKeys[tld]; !ok {
		w.tldKeys[tld] = dnscore.NewZoneKey(tld, w.Cfg.Seed+550)
	}
	w.tlds[tld].zone.MustAdd(key.DS())
}

// resignTLD refreshes a TLD zone's signatures after a registry-level
// mutation (delegation or DS change), as the registry's signer would.
func (w *World) resignTLD(tld dnscore.Name) {
	key, ok := w.tldKeys[tld]
	if !ok {
		return // unsigned TLD
	}
	if err := dnscore.SignZone(w.tlds[tld].zone, key); err != nil {
		w.Errors = append(w.Errors, err)
	}
}

// resignVictim refreshes a victim zone's signatures after a DNS-provider-
// level mutation — the attacker who owns the provider account can use the
// provider's signing key, so DNSSEC offers no protection on that path.
func (w *World) resignVictim(domain dnscore.Name, zone *dnscore.Zone) {
	key, ok := w.zoneKeys[domain]
	if !ok {
		return
	}
	if err := dnscore.SignZone(zone, key); err != nil {
		w.Errors = append(w.Errors, err)
	}
}

// ensureTLD creates the TLD zone, its server, and the root delegation.
func (w *World) ensureTLD(tld dnscore.Name) *tldInfo {
	if info, ok := w.tlds[tld]; ok {
		return info
	}
	ip := w.alloc.Alloc(64600, "US")
	zone := dnscore.NewZone(tld)
	zone.MustAdd(dnscore.SOA(tld, 86400, "ns.registry."+tld, 1))
	srv := dnsserver.NewServer()
	srv.AddZone(zone)
	w.Transport.Register(ip, srv)
	nsName := dnscore.MustParseName("ns.registry." + string(tld))
	w.root.MustAdd(dnscore.NS(tld, 86400, nsName))
	w.root.MustAdd(dnscore.A(nsName, 86400, ip))
	zone.MustAdd(dnscore.A(nsName, 86400, ip)) // in-zone glue for self
	info := &tldInfo{zone: zone, ip: ip, srv: srv}
	w.tlds[tld] = info
	// Each TLD zone is published by a registry database; registry-channel
	// mutations re-sign the zone when DNSSEC is in play.
	reg := registrar.NewRegistry(tld, zone)
	reg.OnChange(func() { w.resignTLD(tld) })
	w.registries[tld] = reg
	return info
}

// hostZone creates an authoritative zone for a domain on a dedicated
// nameserver host and delegates it from its TLD. Returns the zone and the
// nameserver name and address.
func (w *World) hostZone(domain dnscore.Name, nsASN ipmeta.ASN, nsCC ipmeta.CountryCode) (*dnscore.Zone, dnscore.Name, netip.Addr) {
	w.ensureTLD(domain.TLD())
	nsIP := w.alloc.Alloc(nsASN, nsCC)
	nsName := domain.Child("ns1")
	zone := dnscore.NewZone(domain)
	zone.MustAdd(dnscore.SOA(domain, 3600, nsName, 1))
	zone.MustAdd(dnscore.NS(domain, 3600, nsName))
	zone.MustAdd(dnscore.A(nsName, 3600, nsIP))
	srv := dnsserver.NewServer()
	srv.AddZone(zone)
	w.Transport.Register(nsIP, srv)
	// Registration flows through the registry, like any real domain.
	if err := w.registries[domain.TLD()].Register(domain, w.Registrar.ID(),
		[]dnscore.Name{nsName}, map[dnscore.Name]string{nsName: nsIP.String()}); err != nil {
		w.Errors = append(w.Errors, err)
	}
	return zone, nsName, nsIP
}

// at schedules fn to run on the morning of the given day.
func (w *World) at(d simtime.Date, fn func()) {
	if d < simtime.StudyStart {
		d = simtime.StudyStart
	}
	if d >= simtime.StudyEnd {
		return
	}
	w.events[d] = append(w.events[d], fn)
}

// atEvening schedules fn after the day's client traffic and zone-file
// snapshot — the slot attackers use to revert changes before the daily
// zone file catches them.
func (w *World) atEvening(d simtime.Date, fn func()) {
	if d < simtime.StudyStart {
		d = simtime.StudyStart
	}
	if d >= simtime.StudyEnd {
		return
	}
	w.eveningEvents[d] = append(w.eveningEvents[d], fn)
}

// track resolves (name, typ) every day to feed the pDNS sensor —
// modelling the steady client traffic that actively-used domains receive.
func (w *World) track(name dnscore.Name, typ dnscore.Type) {
	w.tracked = append(w.tracked, trackedQuery{name, typ})
}

// nextSerial hands out globally unique certificate serial hints for manual
// issuance bookkeeping.
func (w *World) nextSerial() uint64 {
	w.certSerial++
	return w.certSerial
}

// issueInternal creates a non-browser-trusted certificate from the
// enterprise CA (never logged to CT).
func (w *World) issueInternal(at simtime.Date, days int, names ...dnscore.Name) *x509lite.Certificate {
	cert := &x509lite.Certificate{
		Serial: w.nextSerial(), Subject: names[0], SANs: names,
		Issuer: "Internal Corp CA", NotBefore: at, NotAfter: at.Add(simtime.Duration(days)),
		Method: x509lite.ValidationInternal,
	}
	w.InternalCA.Sign(cert)
	return cert
}

// Run executes the study clock: every day, apply scheduled events and
// resolve the tracked names (feeding pDNS); afterwards, run the weekly
// scanner over the whole window and return the assembled dataset.
func (w *World) Run() *scanner.Dataset {
	return w.RunShards(scanner.DefaultShards, nil)
}

// RunShards is Run with an explicit shard count for the accumulating
// dataset (see scanner.NewDatasetShards) and metrics attached to it before
// the first scan, so the ingest counters count the whole study.
func (w *World) RunShards(shards int, metrics *obsv.Registry) *scanner.Dataset {
	w.RunClock()
	ds := scanner.NewDatasetShards(shards)
	ds.SetMetrics(metrics)
	sc := w.Scanner()
	for _, date := range w.ScanDates() {
		ds.AddScan(date, sc.ScanWeek(date))
	}
	return ds
}

// RunClock advances the daily simulation clock over the whole study
// window without scanning, so a caller can afterwards replay the scan
// series itself (ScanDates + Scanner().ScanWeek) — the shape the
// incremental -follow mode consumes. Idempotent: the clock runs once.
func (w *World) RunClock() {
	if w.clockDone {
		return
	}
	w.clockDone = true
	for day := simtime.StudyStart; day < simtime.StudyEnd; day++ {
		w.Sensor.SetDate(day)
		for _, fn := range w.events[day] {
			fn()
		}
		for _, q := range w.tracked {
			// Errors are expected for names that are intentionally
			// unresolvable at times; the sensor only sees successes.
			_, _ = w.Resolver.Resolve(q.name, q.typ)
		}
		for _, q := range w.secTrack {
			// The DNSSEC monitor validates the chain daily for signed
			// victim domains; bogus answers still record their status.
			if _, status, err := w.Resolver.ResolveSecure(q.name, q.typ); err == nil || status == dnscore.StatusBogus {
				w.SecLog.Record(q.name.RegisteredDomain(), day, status)
			}
		}
		for _, fn := range w.eveningEvents[day] {
			fn()
		}
		// Nightly zone-file snapshots for the covered TLDs, taken after
		// the evening window — which is exactly why same-evening changes
		// never appear in them (§5.3).
		for tld, info := range w.tlds {
			if w.ZoneFiles.CoversTLD(tld) {
				w.ZoneFiles.Snapshot(tld, day, zonefiles.DelegationsOf(info.zone))
			}
		}
	}
}

// Scanner returns a scanner over the world's hosting plane with its
// annotation sources, for callers replaying the scan series themselves.
func (w *World) Scanner() *scanner.Scanner {
	return scanner.New(w.Internet, w.Meta, w.Trust, w.CT)
}

// scanCadence resolves the configured scan cadence in days.
func (w *World) scanCadence() int {
	if w.Cfg.ScanCadenceDays > 0 {
		return w.Cfg.ScanCadenceDays
	}
	return simtime.DaysPerWeek
}

// ScanDates lists the scan dates Run would cover at the configured
// cadence, in order — the replay schedule for incremental ingest.
func (w *World) ScanDates() []simtime.Date {
	var out []simtime.Date
	for d := simtime.StudyStart; d < simtime.StudyEnd; d += simtime.Date(w.scanCadence()) {
		out = append(out, d)
	}
	return out
}

// MaliciousCerts returns the certificates attackers obtained, keyed by
// victim domain — ground truth for the Table 9 reproduction.
func (w *World) MaliciousCerts() map[dnscore.Name]*x509lite.Certificate {
	out := make(map[dnscore.Name]*x509lite.Certificate, len(w.maliciousCerts))
	for d, c := range w.maliciousCerts {
		out[d] = c
	}
	return out
}

// TruthList returns the ground truth entries sorted by domain.
func (w *World) TruthList() []*GroundTruth {
	out := make([]*GroundTruth, 0, len(w.Truth))
	for _, t := range w.Truth {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Domain < out[j].Domain })
	return out
}

// ExpectedVictims returns the domains whose ground truth is hijacked or
// targeted, keyed by kind.
func (w *World) ExpectedVictims() (hijacked, targeted []dnscore.Name) {
	for _, t := range w.TruthList() {
		switch t.Kind {
		case "hijacked":
			hijacked = append(hijacked, t.Domain)
		case "targeted":
			targeted = append(targeted, t.Domain)
		}
	}
	return hijacked, targeted
}

// Summary describes the generated world.
func (w *World) Summary() string {
	h, t := w.ExpectedVictims()
	return fmt.Sprintf("world: %d domains (%d hijacked, %d targeted ground truth), %d hosts, CT entries=%d",
		len(w.Truth), len(h), len(t), w.Internet.Hosts(), w.CT.Size())
}
