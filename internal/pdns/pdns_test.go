package pdns

import (
	"fmt"
	"strings"
	"testing"

	"retrodns/internal/dnscore"
	"retrodns/internal/dnsserver"
	"retrodns/internal/obsv"
)

func TestRecordAggregation(t *testing.T) {
	db := NewDB()
	db.Record(100, "mail.mfa.gov.kg", dnscore.TypeA, "92.62.65.20")
	db.Record(120, "mail.mfa.gov.kg", dnscore.TypeA, "92.62.65.20")
	db.Record(90, "mail.mfa.gov.kg", dnscore.TypeA, "92.62.65.20")

	rows := db.Resolutions("mail.mfa.gov.kg", dnscore.TypeA)
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	e := rows[0]
	if e.FirstSeen != 90 || e.LastSeen != 120 || e.Count != 3 {
		t.Fatalf("aggregation wrong: %+v", e)
	}
	if db.Rows() != 1 {
		t.Fatalf("Rows = %d", db.Rows())
	}
}

func TestDistinctDataDistinctRows(t *testing.T) {
	db := NewDB()
	db.Record(100, "mail.mfa.gov.kg", dnscore.TypeA, "92.62.65.20")
	db.Record(1449, "mail.mfa.gov.kg", dnscore.TypeA, "94.103.91.159") // hijack day
	db.Record(1450, "mail.mfa.gov.kg", dnscore.TypeA, "92.62.65.20")   // rollback

	rows := db.Resolutions("mail.mfa.gov.kg", dnscore.TypeA)
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Sorted by first-seen: legit row first.
	if rows[0].Data != "92.62.65.20" || rows[1].Data != "94.103.91.159" {
		t.Fatalf("order wrong: %v", rows)
	}
	// The hijack row's window is exactly the hijack day.
	if rows[1].FirstSeen != 1449 || rows[1].LastSeen != 1449 {
		t.Fatalf("hijack window: %+v", rows[1])
	}
	// The legit row spans across the hijack.
	if rows[0].FirstSeen != 100 || rows[0].LastSeen != 1450 {
		t.Fatalf("legit window: %+v", rows[0])
	}
}

func TestNSHistoryAndTypeFilter(t *testing.T) {
	db := NewDB()
	db.Record(100, "mfa.gov.kg", dnscore.TypeNS, "ns1.infocom.kg")
	db.Record(1448, "mfa.gov.kg", dnscore.TypeNS, "ns1.kg-infocom.ru")
	db.Record(100, "mfa.gov.kg", dnscore.TypeA, "92.62.65.9")

	ns := db.NSHistory("mfa.gov.kg")
	if len(ns) != 2 {
		t.Fatalf("NS rows = %d", len(ns))
	}
	for _, e := range ns {
		if e.Type != dnscore.TypeNS {
			t.Fatalf("non-NS row in history: %v", e)
		}
	}
	all := db.Resolutions("mfa.gov.kg", 0)
	if len(all) != 3 {
		t.Fatalf("wildcard rows = %d", len(all))
	}
}

func TestPivotQueries(t *testing.T) {
	db := NewDB()
	// Two victims delegated to the same attacker nameserver.
	db.Record(1448, "mfa.gov.kg", dnscore.TypeNS, "ns1.kg-infocom.ru")
	db.Record(1455, "fiu.gov.kg", dnscore.TypeNS, "ns1.kg-infocom.ru")
	// Two victims resolving to the same attacker IP.
	db.Record(700, "owa.gov.cy", dnscore.TypeA, "178.62.218.244")
	db.Record(720, "mbox.cyta.com.cy", dnscore.TypeA, "178.62.218.244")

	byNS := db.WhoResolvedTo("ns1.kg-infocom.ru")
	if len(byNS) != 2 {
		t.Fatalf("NS pivot rows = %d", len(byNS))
	}
	if byNS[0].Name != "mfa.gov.kg" || byNS[1].Name != "fiu.gov.kg" {
		t.Fatalf("NS pivot order: %v", byNS)
	}
	byIP := db.WhoResolvedTo("178.62.218.244")
	if len(byIP) != 2 {
		t.Fatalf("IP pivot rows = %d", len(byIP))
	}
	if got := db.WhoResolvedTo("203.0.113.1"); len(got) != 0 {
		t.Fatalf("phantom pivot rows: %v", got)
	}
}

func TestSubdomainResolutions(t *testing.T) {
	db := NewDB()
	db.Record(10, "mail.mfa.gov.kg", dnscore.TypeA, "1.1.1.1")
	db.Record(20, "www.mfa.gov.kg", dnscore.TypeA, "1.1.1.2")
	db.Record(30, "mfa.gov.kg", dnscore.TypeNS, "ns1.infocom.kg")
	db.Record(40, "other.gov.kg", dnscore.TypeA, "1.1.1.3")

	rows := db.SubdomainResolutions("mfa.gov.kg")
	if len(rows) != 3 {
		t.Fatalf("subdomain rows = %d", len(rows))
	}
	for _, e := range rows {
		if !e.Name.IsSubdomainOf("mfa.gov.kg") {
			t.Fatalf("foreign row: %v", e)
		}
	}
}

func TestSensorCoverage(t *testing.T) {
	full := NewSensor(NewDB(), 1.0, 1)
	none := NewSensor(NewDB(), 0.0, 1)
	half := NewSensor(NewDB(), 0.5, 1)

	if !full.Covered("a.example.com", "1.2.3.4") {
		t.Error("full coverage missed")
	}
	if none.Covered("a.example.com", "1.2.3.4") {
		t.Error("zero coverage observed")
	}
	// Determinism: same key, same answer.
	for i := 0; i < 10; i++ {
		if half.Covered("a.example.com", "1.2.3.4") != half.Covered("a.example.com", "1.2.3.4") {
			t.Fatal("coverage not deterministic")
		}
	}
	// Roughly half of distinct keys are covered.
	covered := 0
	const n = 2000
	for i := 0; i < n; i++ {
		if half.Covered(dnscore.Name(fmt.Sprintf("h%d.example.com", i)), "1.2.3.4") {
			covered++
		}
	}
	frac := float64(covered) / n
	if frac < 0.4 || frac > 0.6 {
		t.Errorf("coverage fraction %.2f far from 0.5", frac)
	}
}

func TestSensorObserverFeedsDB(t *testing.T) {
	db := NewDB()
	sensor := NewSensor(db, 1.0, 1)
	sensor.SetDate(1448)
	if sensor.Date() != 1448 {
		t.Fatal("SetDate failed")
	}
	obs := sensor.Observer()
	obs(dnsserver.Observation{Name: "mfa.gov.kg", Type: dnscore.TypeNS, Data: "ns1.kg-infocom.ru"})
	obs(dnsserver.Observation{Name: "mail.mfa.gov.kg", Type: dnscore.TypeA, Data: "94.103.91.159"})

	if db.Rows() != 2 {
		t.Fatalf("Rows = %d", db.Rows())
	}
	rows := db.NSHistory("mfa.gov.kg")
	if len(rows) != 1 || rows[0].FirstSeen != 1448 {
		t.Fatalf("NS row: %v", rows)
	}

	// An uncovered sensor records nothing.
	blind := NewSensor(NewDB(), 0, 1)
	blindObs := blind.Observer()
	blindObs(dnsserver.Observation{Name: "x.com", Type: dnscore.TypeA, Data: "1.1.1.1"})
	if blind.db.Rows() != 0 {
		t.Fatal("blind sensor recorded")
	}
}

func TestStrings(t *testing.T) {
	db := NewDB()
	db.Record(10, "a.com", dnscore.TypeA, "1.1.1.1")
	e := db.Resolutions("a.com", dnscore.TypeA)[0]
	if !strings.Contains(e.String(), "a.com") || !strings.Contains(db.String(), "1 rows") {
		t.Error("String output wrong")
	}
}

// A nil DB is an empty one: every query answers nothing and attaching
// metrics is a no-op, so a pipeline without passive DNS passes nil.
func TestNilDBAnswersEmpty(t *testing.T) {
	var db *DB
	db.SetMetrics(obsv.NewRegistry())
	db.SetMetrics(nil)
	if db.Rows() != 0 || db.All() != nil {
		t.Fatalf("nil DB holds rows: %d, %v", db.Rows(), db.All())
	}
	for what, got := range map[string][]Entry{
		"Resolutions":                      db.Resolutions("a.com", 0),
		"NSHistory":                        db.NSHistory("a.com"),
		"WhoResolvedTo":                    db.WhoResolvedTo("1.1.1.1"),
		"SubdomainResolutions":             db.SubdomainResolutions("a.com"),
		"SubdomainResolutions of a suffix": db.SubdomainResolutions("com"),
	} {
		if got != nil {
			t.Errorf("%s on a nil DB = %v", what, got)
		}
	}
}
