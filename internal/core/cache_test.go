package core

import (
	"reflect"
	"testing"

	"retrodns/internal/dnscore"
	"retrodns/internal/scanner"
	"retrodns/internal/simtime"
)

// TestParamsFingerprintCoversAllFields perturbs every Params field by
// reflection and requires each perturbation to change the fingerprint.
// Adding a field to Params without extending fingerprint() fails here
// before it can silently stop invalidating cached classifications.
func TestParamsFingerprintCoversAllFields(t *testing.T) {
	baseFP := DefaultParams().fingerprint()
	typ := reflect.TypeOf(Params{})
	for i := 0; i < typ.NumField(); i++ {
		p := DefaultParams()
		f := reflect.ValueOf(&p).Elem().Field(i)
		switch f.Kind() {
		case reflect.Int:
			f.SetInt(f.Int() + 1)
		case reflect.Float64:
			f.SetFloat(f.Float() + 0.125)
		case reflect.Bool:
			f.SetBool(!f.Bool())
		default:
			t.Fatalf("Params.%s has kind %s: teach fingerprint() and this test about it",
				typ.Field(i).Name, f.Kind())
		}
		if p.fingerprint() == baseFP {
			t.Errorf("perturbing Params.%s did not change the fingerprint — cached classifications would survive a params change", typ.Field(i).Name)
		}
	}
}

// TestCachedHistoryNotAliased retains the History of an early cached run,
// appends the rest of the study, and re-runs: the retained Result must
// keep its snapshot even though the later run updates categories — the
// copy-on-write guarantee that lets -follow consumers hold two successive
// Results.
func TestCachedHistoryNotAliased(t *testing.T) {
	scans, pipe := incrementalWorld(t, 4, false)
	half := len(scans) / 2
	for _, s := range scans[:half] {
		pipe.Dataset.Append(s.date, s.recs)
	}
	old := pipe.Run()
	snapshot := make(map[dnscore.Name]PeriodCategories, len(old.History))
	for d, h := range old.History {
		snapshot[d] = h
	}

	for _, s := range scans[half:] {
		pipe.Dataset.Append(s.date, s.recs)
	}
	fresh := pipe.Run()
	if reflect.DeepEqual(fresh.History, snapshot) {
		t.Fatal("second half of the study changed no history — test is vacuous")
	}
	for d := range old.History {
		if !reflect.DeepEqual(old.History[d], snapshot[d]) {
			t.Errorf("retained Result.History[%s] mutated by later Append+Run:\n  now  %v\n  was  %v",
				d, old.History[d], snapshot[d])
		}
	}
}

// TestExtendCellFallbacks drives extendCell through every shape that must
// fall back to a full rebuild: a cached window longer than the current one
// (shrink), a broken last-record pointer (out-of-order merge), and an
// empty cached window. Rebuilds are detected by the map pointer changing —
// the extend path mutates the cached map in place.
func TestExtendCellFallbacks(t *testing.T) {
	params := DefaultParams()
	const p0 = simtime.Period(0)
	domain := dnscore.Name("fallback.com")
	c := cert(1, "www.fallback.com")
	ds := scanner.NewDataset()
	for d := simtime.Date(7); d < p0.End(); d += 7 {
		ds.AddScan(d, []*scanner.Record{rec(d, "84.205.10.1", 64500, "US", c)})
	}
	ds.Freeze()
	scans := ds.ScanDates(p0.Start(), p0.End())
	cur := ds.ShardViewFor(domain).Cursor()
	cur.Seek(0)

	var want cellState // an unbuilt cell: extendCell builds it whole
	extendCell(cur, params, domain, p0, scans, &want)
	if want.class == nil || want.recCount == 0 {
		t.Fatal("fixture built no map")
	}

	checkRebuilt := func(t *testing.T, got *cellState, oldM *DeploymentMap) {
		t.Helper()
		if got.class.Map == oldM {
			t.Fatal("extendCell kept the cached map — fallback did not rebuild")
		}
		if got.recCount != want.recCount || got.lastRec != want.lastRec {
			t.Errorf("rebuilt window shape (%d records) differs from a fresh rebuild (%d records)",
				got.recCount, want.recCount)
		}
		if got.class == nil || got.class.Category != want.class.Category {
			t.Errorf("rebuilt classification %v differs from fresh rebuild %v", got.class, want.class)
		}
	}

	t.Run("window-shrink", func(t *testing.T) {
		got := want
		got.recCount = want.recCount + 5
		extendCell(cur, params, domain, p0, scans, &got)
		checkRebuilt(t, &got, want.class.Map)
	})
	t.Run("out-of-order-merge", func(t *testing.T) {
		got := want
		got.lastRec = &scanner.Record{}
		extendCell(cur, params, domain, p0, scans, &got)
		checkRebuilt(t, &got, want.class.Map)
	})
	t.Run("zero-reccount", func(t *testing.T) {
		got := cellState{built: true}
		extendCell(cur, params, domain, p0, scans, &got)
		checkRebuilt(t, &got, nil)
	})
}

// TestPipelineRunWithQuarantinedRecords is the acceptance check for the
// ingest gate: a feed carrying malformed records alongside the fabricated
// world must complete a full Run with the exact same findings as the clean
// feed, and the damage must surface as Stats.Quarantined.
func TestPipelineRunWithQuarantinedRecords(t *testing.T) {
	scans, db, log, meta := pipelineWorldData(t)
	clean := scanner.NewDataset()
	dirty := scanner.NewDataset()
	junk := 0
	for _, s := range scans {
		clean.AddScan(s.date, s.recs)
		batch := append([]*scanner.Record(nil), s.recs...)
		// One of each malformed shape rides along with every scan.
		batch = append(batch,
			nil,
			&scanner.Record{ScanDate: s.date},
			rec(s.date, "84.205.99.1", 64500, "US", cert(9000+uint64(s.date), "BAD$NAME.com")),
			rec(simtime.StudyEnd+30, "84.205.99.2", 64500, "US", cert(9100+uint64(s.date), "late.example.com")),
		)
		junk += 4
		dirty.AddScan(s.date, batch)
	}

	run := func(ds *scanner.Dataset) *Result {
		p := &Pipeline{Params: DefaultParams(), Dataset: ds, Meta: meta, PDNS: db, CT: log}
		return p.Run()
	}
	cleanRes, dirtyRes := run(clean), run(dirty)
	requireIdenticalResults(t, cleanRes, dirtyRes)
	if cleanRes.Stats.Quarantined != 0 {
		t.Errorf("clean run reported %d quarantined", cleanRes.Stats.Quarantined)
	}
	if dirtyRes.Stats.Quarantined != junk {
		t.Errorf("dirty run reported %d quarantined, want %d", dirtyRes.Stats.Quarantined, junk)
	}
}
