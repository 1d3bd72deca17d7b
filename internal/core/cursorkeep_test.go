package core_test

import (
	"bytes"
	"fmt"
	"net/netip"
	"reflect"
	"testing"

	"retrodns/internal/core"
	"retrodns/internal/ctlog"
	"retrodns/internal/dnscore"
	"retrodns/internal/ipmeta"
	"retrodns/internal/pdns"
	"retrodns/internal/report"
	"retrodns/internal/scanner"
	"retrodns/internal/simtime"
	"retrodns/internal/x509lite"
)

// TestRetainedTransientSurvivesCursorReuse covers the one thing a spilled
// classify pass may not do with a window cursor: hold on to records the next
// Seek overwrites. One shard and one worker walk a planted T1 hijack first,
// then sixty benign domains whose windows are exactly as long — so the
// cursor's slab is reused for every one of them, never regrown — and what
// the retained classification reads afterwards (the transient's Trusted,
// Cert and Country, in shortlist and inspect) must be the victim's rows, not
// a later domain's: same records by value and the same findings document as
// the resident run. It fails with WindowCursor.Keep stubbed out.
func TestRetainedTransientSurvivesCursorReuse(t *testing.T) {
	const victim = dnscore.Name("a-victim.gov.kg")
	key := x509lite.NewSigningKey("cursor-test", 9)
	mkCert := func(serial uint64, notBefore, notAfter simtime.Date, san dnscore.Name) *x509lite.Certificate {
		c := &x509lite.Certificate{
			Serial: serial, Subject: san, SANs: []dnscore.Name{san}, Issuer: "Let's Encrypt",
			NotBefore: notBefore, NotAfter: notAfter, Method: x509lite.ValidationDNS01,
		}
		key.Sign(c)
		return c
	}
	mkRec := func(d simtime.Date, ip string, asn ipmeta.ASN, cc ipmeta.CountryCode, c *x509lite.Certificate) *scanner.Record {
		return &scanner.Record{
			ScanDate: d, IP: netip.MustParseAddr(ip), Ports: []uint16{443}, ASN: asn, Country: cc,
			Cert: c, Trusted: true, Sensitive: scanner.IsSensitiveName(c.SANs[0]),
		}
	}
	scansP1 := simtime.ScansInPeriod(1)
	hijack := scansP1[len(scansP1)/2]
	stable := mkCert(1, 0, simtime.StudyEnd, "mail."+victim)
	evil := mkCert(2, hijack-3, hijack+87, "mail."+victim)
	const benign = 60
	benignCerts := make([]*x509lite.Certificate, benign)
	for i := range benignCerts {
		benignCerts[i] = mkCert(uint64(100+i), 0, simtime.StudyEnd, dnscore.Name(fmt.Sprintf("www.b%02d.example", i)))
	}

	run := func(spill bool) *core.Result {
		ds := scanner.NewDatasetShards(1)
		if spill {
			if err := ds.ConfigureSpill(scanner.SpillOptions{Dir: t.TempDir(), BudgetBytes: 0}); err != nil {
				t.Fatal(err)
			}
		}
		for _, period := range []simtime.Period{0, 1, 2} {
			for _, d := range simtime.ScansInPeriod(period) {
				recs := []*scanner.Record{mkRec(d, "84.205.3.1", 35506, "GR", stable)}
				if d == hijack {
					recs = append(recs, mkRec(d, "95.179.131.225", 20473, "NL", evil))
				}
				for i, c := range benignCerts {
					recs = append(recs, mkRec(d, fmt.Sprintf("84.205.%d.1", 10+i), 35506, "GR", c))
					if d == hijack { // a second host that week: the victim's window length
						recs = append(recs, mkRec(d, fmt.Sprintf("84.205.%d.2", 10+i), 35506, "GR", c))
					}
				}
				if err := ds.AddScan(d, recs); err != nil {
					t.Fatal(err)
				}
			}
		}
		ds.Freeze()
		if got := ds.SpilledShards() == 1; got != spill {
			t.Fatalf("spill=%v but %d shards spilled", spill, ds.SpilledShards())
		}
		if got := ds.Domains(); len(got) != benign+1 || got[0] != victim {
			t.Fatalf("%s is not first of %d domains: %v", victim, benign+1, got)
		}
		for _, domain := range ds.Domains() {
			if got, want := len(ds.DomainRecords(domain, 0, 0)), len(ds.DomainRecords(victim, 0, 0)); got != want {
				t.Fatalf("%s has %d records, %s %d: the slab would be regrown, not reused", domain, got, victim, want)
			}
		}

		db := pdns.NewDB()
		for _, at := range []simtime.Date{0, simtime.StudyEnd - 1} {
			db.Record(at, victim, dnscore.TypeNS, "ns1."+string(victim))
			db.Record(at, "mail."+victim, dnscore.TypeA, "84.205.3.1")
		}
		db.Record(hijack-2, victim, dnscore.TypeNS, "ns1.kg-infocom.ru")
		db.Record(hijack-1, "mail."+victim, dnscore.TypeA, "95.179.131.225")
		log := ctlog.NewLog("sim", 5000)
		for _, c := range []*x509lite.Certificate{stable, evil} {
			if _, err := log.Submit(c, c.NotBefore); err != nil {
				t.Fatal(err)
			}
		}
		meta := ipmeta.NewDirectory()
		meta.Prefixes.MustAnnounce("84.205.0.0/16", 35506)
		meta.Geo.MustAddPrefix("84.205.0.0/16", "GR")
		meta.Prefixes.MustAnnounce("95.179.128.0/18", 20473)
		meta.Geo.MustAddPrefix("95.179.128.0/18", "NL")
		p := &core.Pipeline{Params: core.DefaultParams(), Dataset: ds, Meta: meta, PDNS: db, CT: log, Workers: 1}
		return p.Run()
	}

	// retained is every record a run's result still reaches, by value.
	retained := func(res *core.Result) [][]scanner.Record {
		var out [][]scanner.Record
		for _, cand := range res.Candidates {
			for _, dep := range cand.Class.Map.Deployments {
				rows := make([]scanner.Record, len(dep.Records))
				for i, r := range dep.Records {
					rows[i] = *r
				}
				out = append(out, rows)
			}
		}
		return out
	}
	findings := func(res *core.Result) []byte {
		var buf bytes.Buffer
		if err := report.WriteJSON(&buf, res); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	resident, spilled := run(false), run(true)
	if len(resident.Hijacked) != 1 || resident.Hijacked[0].Domain != victim || len(resident.Candidates) != 1 || !resident.Candidates[0].Sensitive {
		t.Fatalf("resident run did not find the planted hijack: hijacked %v candidates %v", resident.Hijacked, resident.Candidates)
	}
	if got, want := retained(spilled), retained(resident); !reflect.DeepEqual(got, want) {
		t.Errorf("records a spilled run retained differ from the resident run's:\n got %v\nwant %v", got, want)
	}
	if got, want := findings(spilled), findings(resident); !bytes.Equal(got, want) {
		t.Errorf("findings differ:\nspilled  %s\nresident %s", got, want)
	}
}
