// Package pdns implements the passive-DNS service of the simulation — the
// analogue of the DomainTools data set the paper cross-references. Sensors
// positioned between recursive resolvers and the authoritative hierarchy
// record (name, type, rdata) triples with first-seen/last-seen timestamps.
//
// Two properties of real passive DNS matter to the paper and are modelled
// here. First, coverage is partial: sensors only see queries on networks
// where they are deployed, so a fraction of resolutions is never recorded.
// Second, the database aggregates: it answers "when was this resolution
// first and last seen", not "what happened on every day" — which is why
// the paper can bound hijack visibility windows but not reconstruct them.
package pdns

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
	"strings"
	"sync"

	"retrodns/internal/dnscore"
	"retrodns/internal/dnsserver"
	"retrodns/internal/obsv"
	"retrodns/internal/simtime"
)

// Key identifies an aggregated passive-DNS row.
type Key struct {
	Name dnscore.Name
	Type dnscore.Type
	Data string
}

// Entry is one aggregated observation row.
type Entry struct {
	Key
	// FirstSeen and LastSeen bound the observation window (inclusive).
	FirstSeen, LastSeen simtime.Date
	// Count is the number of sensor observations aggregated into the row.
	Count int
}

// String renders the row in DomainTools style.
func (e Entry) String() string {
	return fmt.Sprintf("%s %s %s first=%s last=%s count=%d",
		e.Name, e.Type, e.Data, e.FirstSeen, e.LastSeen, e.Count)
}

// DB is the aggregated passive-DNS database with forward and reverse
// indexes. It is safe for concurrent use. A nil *DB answers every query
// empty, so a pipeline without passive DNS needs no placeholder.
type DB struct {
	mu     sync.RWMutex
	rows   map[Key]*Entry
	byName map[dnscore.Name][]*Entry
	byData map[string][]*Entry
	// byApex groups rows by the registered domain of their name, so the
	// subdomain query the inspector issues per candidate scans one apex's
	// rows instead of the whole corpus.
	byApex map[dnscore.Name][]*Entry
	n      int

	// Per-query-kind lookup counters, populated by SetMetrics; the nil
	// handles of an uninstrumented DB no-op.
	metResolutions, metWhoResolvedTo, metSubdomain *obsv.Counter
	metRows                                        *obsv.Gauge
}

// MetricLookups is the pDNS query counter family, labeled by kind —
// the inspection stage's per-candidate query load against the
// DomainTools analogue.
const (
	MetricLookups = "retrodns_pdns_lookups_total"
	MetricRows    = "retrodns_pdns_rows"
)

// SetMetrics attaches lookup instrumentation: every Resolutions /
// WhoResolvedTo / SubdomainResolutions query counts into
// retrodns_pdns_lookups_total by kind, and retrodns_pdns_rows gauges
// the aggregated corpus. A nil registry detaches.
func (d *DB) SetMetrics(reg *obsv.Registry) {
	if d == nil {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if reg == nil {
		d.metResolutions, d.metWhoResolvedTo, d.metSubdomain, d.metRows = nil, nil, nil, nil
		return
	}
	reg.SetHelp(MetricLookups, "Passive-DNS queries served, by query kind.")
	reg.SetHelp(MetricRows, "Aggregated passive-DNS rows held.")
	d.metResolutions = reg.Counter(MetricLookups, "kind", "resolutions")
	d.metWhoResolvedTo = reg.Counter(MetricLookups, "kind", "who_resolved_to")
	d.metSubdomain = reg.Counter(MetricLookups, "kind", "subdomain")
	d.metRows = reg.Gauge(MetricRows)
	d.metRows.Set(int64(d.n))
}

// NewDB creates an empty database.
func NewDB() *DB {
	return &DB{
		rows:   make(map[Key]*Entry),
		byName: make(map[dnscore.Name][]*Entry),
		byData: make(map[string][]*Entry),
		byApex: make(map[dnscore.Name][]*Entry),
	}
}

// Record ingests one observation at the given date.
func (d *DB) Record(date simtime.Date, name dnscore.Name, typ dnscore.Type, data string) {
	k := Key{Name: name, Type: typ, Data: data}
	d.mu.Lock()
	defer d.mu.Unlock()
	e, ok := d.rows[k]
	if !ok {
		e = &Entry{Key: k, FirstSeen: date, LastSeen: date}
		d.rows[k] = e
		d.byName[name] = append(d.byName[name], e)
		d.byData[data] = append(d.byData[data], e)
		if apex := name.RegisteredDomain(); apex != "" {
			d.byApex[apex] = append(d.byApex[apex], e)
		}
		d.n++
		d.metRows.Set(int64(d.n))
	}
	if date < e.FirstSeen {
		e.FirstSeen = date
	}
	if date > e.LastSeen {
		e.LastSeen = date
	}
	e.Count++
}

// Rows returns the number of aggregated rows.
func (d *DB) Rows() int {
	if d == nil {
		return 0
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.n
}

// All returns every aggregated row, sorted by name then first-seen; used
// by exporters.
func (d *DB) All() []Entry {
	if d == nil {
		return nil
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make([]Entry, 0, d.n)
	for _, e := range d.rows {
		out = append(out, *e)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		if out[i].FirstSeen != out[j].FirstSeen {
			return out[i].FirstSeen < out[j].FirstSeen
		}
		return out[i].Data < out[j].Data
	})
	return out
}

// Resolutions returns every row for (name, typ), sorted by first-seen.
// A typ of 0 matches all types.
func (d *DB) Resolutions(name dnscore.Name, typ dnscore.Type) []Entry {
	if d == nil {
		return nil
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	d.metResolutions.Inc()
	var out []Entry
	for _, e := range d.byName[name] {
		if typ == 0 || e.Type == typ {
			out = append(out, *e)
		}
	}
	sortEntries(out)
	return out
}

// NSHistory returns the nameserver delegation history of a domain, sorted
// by first-seen — the evidence trail for detecting delegation hijacks.
func (d *DB) NSHistory(domain dnscore.Name) []Entry {
	return d.Resolutions(domain, dnscore.TypeNS)
}

// WhoResolvedTo returns every row whose rdata matches data (an IP address
// for A rows, a nameserver name for NS rows) — the pivot query: which other
// domains used this attacker IP or nameserver?
func (d *DB) WhoResolvedTo(data string) []Entry {
	if d == nil {
		return nil
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	d.metWhoResolvedTo.Inc()
	out := make([]Entry, 0, len(d.byData[data]))
	for _, e := range d.byData[data] {
		out = append(out, *e)
	}
	sortEntries(out)
	return out
}

// SubdomainResolutions returns rows for every observed name at or under
// domain, sorted by name then first-seen.
//
// When domain is itself a registered domain the apex index answers the
// query directly; only suffix-level queries (a TLD, a public suffix) fall
// back to scanning every name.
func (d *DB) SubdomainResolutions(domain dnscore.Name) []Entry {
	if d == nil {
		return nil
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	d.metSubdomain.Inc()
	var out []Entry
	if domain.RegisteredDomain() == domain {
		for _, e := range d.byApex[domain] {
			if e.Name.IsSubdomainOf(domain) {
				out = append(out, *e)
			}
		}
	} else {
		for name, entries := range d.byName {
			if !name.IsSubdomainOf(domain) {
				continue
			}
			for _, e := range entries {
				out = append(out, *e)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].FirstSeen < out[j].FirstSeen
	})
	return out
}

func sortEntries(out []Entry) {
	sort.Slice(out, func(i, j int) bool {
		if out[i].FirstSeen != out[j].FirstSeen {
			return out[i].FirstSeen < out[j].FirstSeen
		}
		return out[i].Data < out[j].Data
	})
}

// String summarizes the database.
func (d *DB) String() string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	var sb strings.Builder
	fmt.Fprintf(&sb, "pdns: %d rows over %d names", d.n, len(d.byName))
	return sb.String()
}

// Sensor samples resolver observations into a DB with partial coverage,
// modelling sensors deployed on only some networks. Coverage is
// deterministic per (name, data, seed): a resolution path is either on a
// monitored network or it is not — repeating the same query on the same
// path does not change whether pDNS sees it. This mirrors how entire
// victim populations can be invisible to commercial pDNS.
type Sensor struct {
	db       *DB
	coverage float64
	seed     uint64

	mu       sync.RWMutex
	now      simtime.Date
	excluded []dnscore.Name
}

// NewSensor creates a sensor feeding db that records a resolution path with
// the given coverage probability in [0,1].
func NewSensor(db *DB, coverage float64, seed uint64) *Sensor {
	return &Sensor{db: db, coverage: coverage, seed: seed}
}

// SetDate advances the sensor's clock; the world engine calls this as the
// simulation steps through days.
func (s *Sensor) SetDate(d simtime.Date) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.now = d
}

// Date returns the sensor's current clock.
func (s *Sensor) Date() simtime.Date {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.now
}

// ExcludeDomain blinds the sensor to a domain and everything under it,
// modelling victim populations whose resolvers sit entirely on networks
// without pDNS sensors (the paper's T1* cases have no pDNS evidence).
func (s *Sensor) ExcludeDomain(domain dnscore.Name) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.excluded = append(s.excluded, domain)
}

// Covered reports whether the sensor's deployment observes the resolution
// of (name, data). Deterministic in the sensor seed.
func (s *Sensor) Covered(name dnscore.Name, data string) bool {
	s.mu.RLock()
	for _, d := range s.excluded {
		if name.IsSubdomainOf(d) {
			s.mu.RUnlock()
			return false
		}
	}
	s.mu.RUnlock()
	if s.coverage >= 1 {
		return true
	}
	if s.coverage <= 0 {
		return false
	}
	h := sha256.New()
	var seedBuf [8]byte
	binary.BigEndian.PutUint64(seedBuf[:], s.seed)
	h.Write(seedBuf[:])
	h.Write([]byte(name))
	h.Write([]byte{0})
	h.Write([]byte(data))
	sum := h.Sum(nil)
	v := binary.BigEndian.Uint64(sum[:8])
	return float64(v)/float64(^uint64(0)) < s.coverage
}

// Observer returns a dnsserver.Observer that feeds the sensor; attach it to
// a resolver with AddObserver.
func (s *Sensor) Observer() dnsserver.Observer {
	return func(o dnsserver.Observation) {
		if !s.Covered(o.Name, o.Data) {
			return
		}
		s.db.Record(s.Date(), o.Name, o.Type, o.Data)
	}
}
