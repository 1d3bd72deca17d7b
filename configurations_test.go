package retrodns_bench

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"retrodns/internal/core"
	"retrodns/internal/dnscore"
	"retrodns/internal/faults"
	"retrodns/internal/obsv"
	"retrodns/internal/pdns"
	"retrodns/internal/report"
	"retrodns/internal/scanner"
	"retrodns/internal/simtime"
	"retrodns/internal/synth"
	"retrodns/internal/wal"
	"retrodns/internal/world"
	"retrodns/internal/x509lite"
)

// Every execution configuration of core.Pipeline — one value per axis,
// none of them an analysis input — must analyze a study as the
// single-goroutine reference (reference_test.go) does: the same findings
// JSON bytes, funnel, shortlist and per-domain history. configTable holds
// fixed rows, keyed by the test that runs them; FuzzConfigurations draws
// rows and synth corpora from a seed.

// config is one execution configuration.
type config struct {
	group   string // subtest grouping the row with others, or ""
	name    string // the row's subtest
	corpus  corpusSpec
	shards  int
	workers int
	cache   string // "" (none), "warm", or "restored" through EncodeState/DecodeState
	ingest  string // "bulk" (AddScan), "in-order", "reversed", "shuffled" or "batches" (Append)
	barrier bool   // Append through AppendAfter behind a log fsync; every third refused first
	spill   string // "" (resident), "zero" or "tight" budget
	restart string // "" or a daemon fed scans.csv: "uninterrupted", "store-less", or a WAL fault after killAt scans
	killAt  int
	stitch  bool
	records string // "scanner", "csv" (one ScanCSV), "domain-major" or "cloned"
	seed    int64  // shuffle order and batch split
	every   int    // in-order only: also hold every prefix through scan 60, then every every-th, to the reference
}

// corpusSpec names a generated study: a simulated world (stable > 0), whose
// campaigns, pDNS, CT and DNSSEC make §4.4 and §4.5 fire, or a synth corpus.
type corpusSpec struct {
	worldSeed int64
	stable    int
	synth     synth.Config
}

func synthSpec(domains int, seed int64, scans, cadence, transients int) corpusSpec {
	return corpusSpec{synth: synth.Config{Domains: domains, Seed: seed, Scans: scans, CadenceDays: cadence, TransientPerMille: transients}}
}

// The corpora of the fixed rows, each built once per package run.
var (
	world2       = corpusSpec{worldSeed: 2, stable: 20}
	world3       = corpusSpec{worldSeed: 3, stable: 12}
	layoutSynth  = synthSpec(1200, 5, 52, 0, 40)
	restartSynth = synthSpec(250, 17, 5, 0, 0)
)

var (
	memoMu     sync.Mutex
	corpora    = map[corpusSpec]*studyInput{}
	references = map[string]*core.Result{}
)

// corpus returns spec's study, generated on first use and kept for the
// package run if memo is set.
func corpus(t testing.TB, spec corpusSpec, memo bool) *studyInput {
	t.Helper()
	memoMu.Lock()
	defer memoMu.Unlock()
	if s := corpora[spec]; s != nil {
		return s
	}
	var s *studyInput
	if spec.stable > 0 {
		w := world.New(world.Config{Seed: spec.worldSeed, StableDomains: spec.stable, Campaigns: true, PDNSCoverage: 1})
		w.RunClock()
		must(t, w.Err())
		s = &studyInput{meta: w.Meta, pdns: w.PDNSDB, ct: w.CT, dnssec: w.SecLog, dates: w.ScanDates()}
		sc := w.Scanner()
		for _, d := range s.dates {
			s.scans = append(s.scans, sc.ScanWeek(d))
		}
	} else {
		g := synth.New(spec.synth)
		s = &studyInput{pdns: pdns.NewDB(), dates: g.ScanDates()}
		for _, d := range s.dates {
			s.scans = append(s.scans, g.Scan(d))
		}
	}
	if memo {
		corpora[spec] = s
	}
	return s
}

// reference returns the reference result of the study as cfg feeds it.
// A feed from scans.csv hands the methodology what the file carries: each
// row parsed back by scanner.ParseScanRow, the CSV reader's unmemoized
// reference decoder, whose certificates are rebuilt from the columns.
func reference(t testing.TB, s *studyInput, cfg config, memo bool) *core.Result {
	t.Helper()
	viaCSV := cfg.records == "csv" || cfg.restart != ""
	key := fmt.Sprintf("%p/%v/%v", s, cfg.stitch, viaCSV)
	memoMu.Lock()
	defer memoMu.Unlock()
	if res := references[key]; res != nil {
		return res
	}
	if viaCSV {
		parsed := *s
		parsed.scans = make([][]*scanner.Record, len(s.scans))
		for i, scan := range s.scans {
			for _, r := range scan {
				rec, err := scanner.ParseScanRow(scanner.FormatScanRow(r))
				must(t, err)
				parsed.scans[i] = append(parsed.scans[i], rec)
			}
		}
		s = &parsed
	}
	res := referenceRun(s, params(cfg.stitch))
	if memo {
		references[key] = res
	}
	return res
}

func params(stitch bool) core.Params {
	p := core.DefaultParams()
	p.StitchPeriods = stitch
	return p
}

func must(t testing.TB, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// records returns the study's scans in the given layout, as Record structs
// of the caller's own (ingest interns certificates into what it takes).
func records(t testing.TB, s *studyInput, layout string) [][]*scanner.Record {
	t.Helper()
	out := make([][]*scanner.Record, len(s.scans))
	switch layout {
	case "scanner", "cloned":
		for i, scan := range s.scans {
			slab := make([]scanner.Record, len(scan))
			for j, r := range scan {
				slab[j] = *r
				if layout == "cloned" {
					slab[j].Cert = r.Cert.Clone()
				}
				out[i] = append(out[i], &slab[j])
			}
		}
	case "csv":
		rd := scanner.NewScanCSV(bytes.NewReader(scansCSV(s.scans)))
		rd.OnQuarantine = func(reason, detail string) { t.Fatalf("row quarantined: %s: %s", reason, detail) }
		for i, scan := range s.scans {
			for range scan {
				rec, err := rd.Next()
				must(t, err)
				out[i] = append(out[i], rec)
			}
		}
	case "domain-major":
		out = domainMajor(s.dates, records(t, s, "scanner"))
	default:
		t.Fatalf("unknown record layout %q", layout)
	}
	return out
}

// domainMajor copies the records of scans into one array in domain-major
// order — each registered domain's records together, in scan-date order —
// and returns the scans over the copies. A record filed under several
// domains is copied where the first puts it; refused records go last.
func domainMajor(dates []simtime.Date, scans [][]*scanner.Record) [][]*scanner.Record {
	byDomain, _, _ := referenceRecords(&studyInput{dates: dates, scans: scans})
	domains := make([]dnscore.Name, 0, len(byDomain))
	for d := range byDomain {
		domains = append(domains, d)
	}
	slices.Sort(domains)
	total := 0
	for _, s := range scans {
		total += len(s)
	}
	slab := make([]scanner.Record, 0, total)
	copyOf := map[*scanner.Record]*scanner.Record{}
	place := func(r *scanner.Record) *scanner.Record {
		if _, ok := copyOf[r]; !ok {
			slab = append(slab, *r)
			copyOf[r] = &slab[len(slab)-1]
		}
		return copyOf[r]
	}
	for _, d := range domains {
		for _, r := range byDomain[d] {
			place(r)
		}
	}
	out := make([][]*scanner.Record, len(scans))
	for i, s := range scans {
		for _, r := range s {
			out[i] = append(out[i], place(r))
		}
	}
	return out
}

// outcome is what one configuration produced.
type outcome struct {
	res         *core.Result
	canon, quar string // canonical run report, quarantine journal
}

// ingestPlan orders the scan indexes into the batches cfg ingests, one
// pipeline run apart when the pipeline is cached.
func ingestPlan(cfg config, n int) [][]int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	var plan [][]int
	switch cfg.ingest {
	case "bulk":
		return [][]int{idx}
	case "reversed":
		slices.Reverse(idx)
	case "shuffled":
		rng.Shuffle(n, func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
	case "batches":
		for len(idx) > 0 {
			k := 1 + rng.Intn(min(len(idx), 8))
			plan, idx = append(plan, idx[:k]), idx[k:]
		}
	}
	for _, i := range idx {
		plan = append(plan, []int{i})
	}
	return plan
}

// runConfig analyzes the study s under cfg and checks what cfg itself
// promises: the shard count, the dataset generation, the spill residency,
// the quarantine total and one pooled certificate per distinct fingerprint.
func runConfig(t *testing.T, cfg config, s *studyInput) outcome {
	t.Helper()
	if cfg.restart != "" {
		return runRestart(t, cfg, s)
	}
	scans := records(t, s, cfg.records)
	ds := scanner.NewDatasetShards(cfg.shards)
	if cfg.spill != "" {
		budget := int64(0)
		if cfg.spill == "tight" {
			// About half the spillable payload on disk, read off a fully
			// spilled bulk copy.
			probe := scanner.NewDatasetShards(cfg.shards)
			for i, scan := range records(t, s, cfg.records) {
				must(t, probe.AddScan(s.dates[i], scan))
			}
			probe.Freeze()
			must(t, probe.ConfigureSpill(scanner.SpillOptions{Dir: t.TempDir(), BudgetBytes: 0}))
			resident, spilled := probe.SpillStats()
			budget = resident + spilled - spilled/2
		}
		must(t, ds.ConfigureSpill(scanner.SpillOptions{Dir: t.TempDir(), BudgetBytes: budget}))
	}
	pipe := &core.Pipeline{
		Params: params(cfg.stitch), Dataset: ds, Meta: s.meta,
		PDNS: s.pdns, CT: s.ct, DNSSEC: s.dnssec, Workers: cfg.workers,
	}
	if cfg.cache != "" {
		pipe.Cache = core.NewClassifyCache()
	}
	var log *os.File
	if cfg.barrier {
		var err error
		log, err = os.Create(filepath.Join(t.TempDir(), "barrier.log"))
		must(t, err)
		defer log.Close()
	}
	plan := ingestPlan(cfg, len(s.dates))
	appends, lastGen, restored := 0, uint64(0), false
	for b, batch := range plan {
		for _, i := range batch {
			if cfg.ingest == "bulk" {
				must(t, ds.AddScan(s.dates[i], scans[i]))
				continue
			}
			appendScan(t, ds, s.dates[i], scans[i], log, appends)
			appends++
		}
		if pipe.Cache == nil {
			continue
		}
		// A cached pipeline runs after every batch: its merge, extend and
		// rebuild paths see each intermediate state, not just the last.
		res := pipe.Run()
		if res.Stats.Generation <= lastGen {
			t.Fatalf("batch %d: generation did not advance (%d -> %d)", b, lastGen, res.Stats.Generation)
		}
		lastGen = res.Stats.Generation
		if cfg.every > 0 && (b <= 60 || b%cfg.every == 0 || b == len(plan)-1) {
			sameAsReference(t, res, reference(t, s.prefix(b+1), cfg, false))
			if t.Failed() {
				t.Fatalf("diverged from the reference after scan %d (%s)", b, s.dates[b])
			}
		}
		// The cache restores once, midway; under a tight budget, once the
		// midway dataset has spilled a shard, so the restore reads both.
		if cfg.cache == "restored" && !restored && b >= len(plan)/2 && (cfg.spill != "tight" || ds.SpilledShards() > 0) {
			state, err := pipe.Cache.EncodeState(nil)
			must(t, err)
			pipe.Cache = core.NewClassifyCache()
			must(t, pipe.Cache.DecodeState(state, ds))
			restored = true
		}
	}
	if cfg.cache == "restored" && !restored {
		t.Errorf("the cache was never restored: nothing spilled past the midpoint")
	}
	res := pipe.Run()

	if res.Stats.Shards != cfg.shards {
		t.Errorf("Stats.Shards = %d, want %d", res.Stats.Shards, cfg.shards)
	}
	if cfg.ingest != "bulk" && ds.Generation() != uint64(len(s.dates))+1 {
		t.Errorf("generation %d, want %d (freeze + one per append)", ds.Generation(), len(s.dates)+1)
	}
	n := ds.SpilledShards()
	switch {
	case (cfg.spill == "") != (n == 0):
		t.Errorf("spill budget %q: %d of %d shards spilled", cfg.spill, n, cfg.shards)
	case cfg.spill == "tight" && cfg.shards > 1 && n >= cfg.shards:
		t.Errorf("tight budget spilled every shard (%d)", n)
	case res.Stats.SpilledShards != n || report.BuildRunReport(res, ds.Quarantine(), nil).SpilledShards != n:
		t.Errorf("Stats and run report disagree with the dataset's %d spilled shards", n)
	}
	if _, _, refused := referenceRecords(s); ds.Quarantine().Total != refused {
		t.Errorf("quarantined %d records, the gate refuses %d", ds.Quarantine().Total, refused)
	}
	distinct := map[x509lite.Fingerprint]bool{}
	for _, scan := range scans {
		for _, r := range scan {
			if _, _, ok := scanner.ValidateRecord(r); ok {
				distinct[r.Cert.Fingerprint()] = true
			}
		}
	}
	if pooled := ds.Pool().Stats().Certs; pooled != int64(len(distinct)) {
		t.Errorf("records %q: %d pooled certificates, %d distinct fingerprints", cfg.records, pooled, len(distinct))
	}
	if cfg.records == "cloned" {
		sameMaps(t, ds, s)
	}
	return outcome{res, canonical(t, res, ds, nil), fmt.Sprint(ds.Quarantine())}
}

// appendScan appends one scan. With a barrier log it goes through
// AppendAfter the way internal/wal does it — the batch encoded, written and
// fsynced before anything is published — and every third call is first
// refused by a failing barrier, which must leave no trace.
func appendScan(t *testing.T, ds *scanner.Dataset, date simtime.Date, recs []*scanner.Record, log *os.File, call int) {
	t.Helper()
	if log == nil {
		must(t, ds.Append(date, recs))
		return
	}
	gen := ds.Generation()
	durable := func() error {
		if ds.Generation() > gen && gen != 0 {
			t.Errorf("Append(%s): generation moved before the barrier returned", date)
		}
		if _, err := log.Write(scanner.EncodeBatch(date, recs)); err != nil {
			return err
		}
		return log.Sync()
	}
	if call%3 == 2 {
		refused := errors.New("refused")
		if err := ds.AppendAfter(date, recs, func() error { return refused }); !errors.Is(err, refused) {
			t.Fatalf("AppendAfter(%s) behind a failing barrier: %v", date, err)
		}
	}
	must(t, ds.AppendAfter(date, recs, durable))
}

func encoded(t testing.TB, encode func(io.Writer) error) string {
	t.Helper()
	var buf bytes.Buffer
	must(t, encode(&buf))
	return buf.String()
}

func canonical(t testing.TB, res *core.Result, ds *scanner.Dataset, reg *obsv.Registry) string {
	return encoded(t, report.BuildRunReport(res, ds.Quarantine(), reg).Canonical().Encode)
}

// renderMap renders a deployment map, deployment by deployment; true
// marks the deployment mark names (a candidate's transient one).
func renderMap(sb *strings.Builder, m *core.DeploymentMap, mark *core.Deployment) {
	fmt.Fprintf(sb, "presence=%d/%d\n", m.PresentScans, m.TotalScans)
	for _, d := range m.Deployments {
		fps := make([]string, len(d.Certs))
		for i, co := range d.Certs {
			fps[i] = co.FP.String()
		}
		fmt.Fprintf(sb, "  %v %s ips=%v ccs=%v certs=%v scans=%v records=%d\n",
			d == mark, d.ASN, d.IPs, d.Countries, fps, d.ScanDates, len(d.Records))
	}
}

// shortlist renders the candidates with everything the later steps read
// of them: the candidate's flags and its classified map.
func shortlist(res *core.Result) string {
	var sb strings.Builder
	for _, c := range res.Candidates {
		fmt.Fprintf(&sb, "%s sensitive=%v class=%s/%s ", c, c.Sensitive, c.Class.Category, c.Class.Pattern)
		renderMap(&sb, c.Class.Map, c.Transient)
	}
	return sb.String()
}

// sameMaps holds the map core.BuildMap makes of every domain and period
// of ds to the reference's, deployment by deployment — the maps no
// candidate carries to the shortlist too.
func sameMaps(t *testing.T, ds *scanner.Dataset, s *studyInput) {
	t.Helper()
	byDomain, dates, _ := referenceRecords(s)
	scansOf := map[simtime.Period][]simtime.Date{}
	for _, d := range dates {
		scansOf[simtime.PeriodOf(d)] = append(scansOf[simtime.PeriodOf(d)], d)
	}
	cells := 0
	for domain, recs := range byDomain {
		for p, scans := range scansOf {
			got, want := core.BuildMap(ds, domain, p), referenceMap(domain, p, recs, scans)
			if (got == nil) != (want == nil) {
				t.Fatalf("%s %s: map presence differs from the reference", domain, p)
			}
			if want == nil {
				continue
			}
			var g, w strings.Builder
			renderMap(&g, got, nil)
			renderMap(&w, want, nil)
			if g.String() != w.String() {
				t.Fatalf("%s %s: map differs from the reference: %s", domain, p, firstDiff(g.String(), w.String()))
			}
			cells++
		}
	}
	if cells == 0 {
		t.Fatal("no cells compared")
	}
}

// sameAsReference holds a pipeline result to the reference's on the four
// outputs: findings JSON bytes, the funnel (report.FunnelCounts and the
// per-reason tallies behind it), the shortlist, and the per-domain history
// (one domain a line).
func sameAsReference(t *testing.T, got, want *core.Result) {
	t.Helper()
	render := func(res *core.Result) [4]string {
		hist := make([]string, 0, len(res.History))
		for d, h := range res.History {
			hist = append(hist, fmt.Sprint(d, h))
		}
		slices.Sort(hist)
		return [4]string{
			encoded(t, report.BuildJSONReport(res).Encode),
			fmt.Sprintf("%v\n%+v", report.FunnelCounts(res), res.Funnel),
			shortlist(res),
			strings.Join(hist, "\n"),
		}
	}
	g, w := render(got), render(want)
	for i, what := range []string{"findings JSON", "funnel", "shortlist", "history"} {
		if g[i] != w[i] {
			t.Errorf("%s differs from the reference: %s", what, firstDiff(g[i], w[i]))
		}
	}
}

// firstDiff shows the first line on which got and want differ.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	i := 0
	for i < len(g) && i < len(w) && g[i] == w[i] {
		i++
	}
	at := func(l []string) string {
		if i < len(l) {
			return l[i]
		}
		return ""
	}
	return fmt.Sprintf("line %d\n got %.400s\nwant %.400s", i+1, at(g), at(w))
}

// walFault is one WAL fault class of the restart rows: a data-dir row of
// internal/faults, or a staged row, whose damage needs a donor frame and is
// stage's bytes appended to the killed daemon's log. Recovery lands ahead
// generations past the kill, or before it if the row lost the log's tail.
type walFault struct {
	faults.Fault
	ahead uint64
	stage func(t *testing.T, cfg config, feed []byte) []byte
}

// walFaults are faults.Rows in order, with the staged rows after unrotated.
var walFaults = func() []walFault {
	var rows []walFault
	for _, f := range faults.Rows {
		rows = append(rows, walFault{Fault: f})
		if f.Name != "unrotated" {
			continue
		}
		// Killed inside the next append's barrier: the frame was on disk,
		// whole or half, and the batch staged; no reader saw it. Recovery
		// may apply the whole frame — it was durable — and must drop the
		// half; the feed converges either way.
		rows = append(rows,
			walFault{Fault: faults.Fault{Name: "staged", Snapshots: true, FromSnapshot: true}, ahead: 1, stage: stagedFrame},
			walFault{Fault: faults.Fault{Name: "staged-torn", Snapshots: true, Counted: wal.FaultTornTail, FromSnapshot: true}, stage: func(t *testing.T, cfg config, feed []byte) []byte {
				frame := stagedFrame(t, cfg, feed)
				return frame[:len(frame)/2]
			}})
	}
	return rows
}()

// runDaemonPhase is one retrodnsd lifetime: a wal.Follow over opts with a
// fresh metrics registry. stopAfter > 0 kills it after that many appends,
// the store never closed. A completed phase's canonical report embeds the
// registry, as the chaos harness compares it.
func runDaemonPhase(t *testing.T, cfg config, opts wal.Options, feed []byte, stopAfter int) (outcome, *wal.Recovery, uint64) {
	t.Helper()
	reg := obsv.NewRegistry()
	opts.Metrics = reg
	fl, err := wal.OpenFollow(opts, false, params(cfg.stitch), cfg.workers)
	must(t, err)
	ctx, kill := context.WithCancel(context.Background())
	defer kill()
	appended := 0
	must(t, fl.Run(ctx, bytes.NewReader(feed), false, 0, func(simtime.Date, *core.Result) {
		if appended++; appended == stopAfter {
			kill()
		}
	}))
	if ctx.Err() != nil {
		return outcome{}, fl.Recovery, fl.Dataset.Generation()
	}
	must(t, fl.Close())
	if fl.Result == nil {
		t.Fatal("phase produced no result")
	}
	return outcome{fl.Result, canonical(t, fl.Result, fl.Dataset, reg), fmt.Sprint(fl.Dataset.Quarantine())}, fl.Recovery, fl.Dataset.Generation()
}

// runRestart feeds the study's scans.csv to a durable daemon, to one
// without a data dir (store-less), or to one killed after cfg.killAt scans
// whose data dir a fault damages before a fresh daemon recovers and
// finishes the feed, accounting for exactly the damage injected.
func runRestart(t *testing.T, cfg config, s *studyInput) outcome {
	t.Helper()
	feed, dir := scansCSV(s.scans), t.TempDir()
	opts := wal.Options{Dir: dir, Shards: cfg.shards, SnapshotEvery: 2}
	var fault walFault
	i := slices.IndexFunc(walFaults, func(f walFault) bool { return f.Name == cfg.restart })
	if i >= 0 {
		fault = walFaults[i]
	}
	if cfg.spill != "" || fault.Spill {
		opts.Spill = &scanner.SpillOptions{Dir: filepath.Join(dir, "segments"), BudgetBytes: 0}
	}
	if cfg.restart == "store-less" {
		opts.Dir = ""
	}
	var killedGen uint64
	if i >= 0 {
		opts.SnapshotEvery = 1000
		if fault.Snapshots {
			opts.SnapshotEvery = cfg.killAt
		}
		_, _, killedGen = runDaemonPhase(t, cfg, opts, feed, cfg.killAt)
		opts.SnapshotEvery = 2
		if fault.stage == nil {
			must(t, fault.Damage(opts))
		} else {
			walPath := filepath.Join(dir, wal.LogName)
			log, err := os.ReadFile(walPath)
			must(t, err)
			must(t, os.WriteFile(walPath, append(log, fault.stage(t, cfg, feed)...), 0o644))
		}
	}

	out, rec, gen := runDaemonPhase(t, cfg, opts, feed, 0)
	if gen != uint64(len(s.dates))+1 {
		t.Fatalf("final generation %d, want %d", gen, len(s.dates)+1)
	}
	if i < 0 {
		return out
	}
	// Exact fault accounting: every injected fault counted under its
	// reason, nothing else counted. A per-frame count is one per append:
	// where the daemon never snapshotted, each append's frame survived.
	wantFaults := fault.Want(cfg.killAt)
	if fmt.Sprint(rec.Faults) != fmt.Sprint(wantFaults) {
		t.Fatalf("recovery faults %v, want %v", rec.Faults, wantFaults)
	}
	// Recovery is warm unless the damage took the only frame a daemon
	// killed after one scan left. Generations never mix: it lands at the
	// killed generation (before it when the log's tail was damaged, one
	// past it when the dying process left a whole frame it had not
	// published yet), the finished run at the uninterrupted one's.
	if wantWarm := !fault.LostTail || cfg.killAt > 1; rec.Warm != wantWarm {
		t.Fatalf("recovery warm=%v, want %v", rec.Warm, wantWarm)
	}
	if want := killedGen + fault.ahead; rec.Generation > want || (!fault.LostTail && rec.Generation != want) {
		t.Fatalf("recovered generation %d, killed at %d", rec.Generation, killedGen)
	}
	if fault.FromSnapshot && rec.FromSnapshot == "" {
		t.Fatalf("recovery ignored the snapshot: %+v", rec)
	}
	return out
}

// stagedFrame is the WAL frame of the append after cfg's kill point, byte
// for byte as a store writes it (a frame does not depend on the shard
// count): cut from the log of a donor run with snapshots off, killed at the
// same point and reopened for one more append. The killed daemon's log was
// just rotated by its snapshot, so its next frame starts a fresh
// certificate dictionary, as the reopened donor's first frame does.
func stagedFrame(t *testing.T, cfg config, feed []byte) []byte {
	donor := wal.Options{Dir: t.TempDir(), Shards: 1, SnapshotEvery: 1000}
	runDaemonPhase(t, cfg, donor, feed, cfg.killAt)
	runDaemonPhase(t, cfg, donor, feed, 1)
	log, err := os.ReadFile(filepath.Join(donor.Dir, wal.LogName))
	must(t, err)
	errFound := errors.New("found")
	off, err := wal.Replay(log, func(gen uint64, _ simtime.Date, _ []*scanner.Record) error {
		if gen == uint64(cfg.killAt)+2 {
			return errFound
		}
		return nil
	})
	if err != errFound {
		t.Fatalf("donor log holds no frame for generation %d: %v", cfg.killAt+2, err)
	}
	return log[off:]
}

// label names a configuration by the axis values it draws.
func (c config) label() string {
	parts := []string{fmt.Sprintf("shards=%d,workers=%d", c.shards, c.workers)}
	for _, p := range []struct {
		on bool
		s  string
	}{
		{c.cache != "", "cache=" + c.cache}, {c.restart == "", c.ingest}, {c.barrier, "barrier"},
		{c.ingest == "shuffled" || c.ingest == "batches", fmt.Sprintf("seed=%d", c.seed)},
		{c.every > 0, fmt.Sprintf("every=%d", c.every)}, {c.spill != "", "spill=" + c.spill},
		{c.restart != "", fmt.Sprintf("%s@%d", c.restart, c.killAt)}, {c.stitch, "stitch"},
		{c.records != "scanner", c.records},
	} {
		if p.on {
			parts = append(parts, p.s)
		}
	}
	return strings.Join(parts, ",")
}

// canonKey groups the rows of one test that must also agree on the
// canonical run report and the quarantine journal. It drops the shard
// count, spill budget, record layout and barrier, and keeps what the
// report records: workers, cache counters, the runs the ingest order
// implies, the stitch stage, a daemon's metrics and per-shard gauges.
// Records read back from scans.csv stay apart: the file does not carry
// every certificate field, so what the study finds can differ.
func (c config) canonKey() string {
	k := c
	k.group, k.name, k.spill, k.barrier = "", "", "", false
	if c.records != "csv" {
		k.records = ""
	}
	if c.restart == "" {
		k.shards = 0
	} else {
		k.restart, k.killAt = "wal", 0
	}
	return fmt.Sprintf("%+v", k)
}

// configTable returns the configuration rows, keyed by the test that runs
// them: each test's rows carry the checks of the invariance test of that
// name the reference replaced, plus axes it did not cross.
func configTable() map[string][]config {
	tbl := map[string][]config{}
	add := func(test, group string, c config) {
		c.group, c.name = group, c.label()
		tbl[test] = append(tbl[test], c)
	}
	layouts := []struct{ group, records string }{{"scanner records", "scanner"}, {"csv-read records", "csv"}}
	for _, l := range layouts {
		// Shard and worker counts, bulk and incremental, over the records
		// the scanner made and over the same scans read back through one
		// ScanCSV (records sharing certificates and ports arrays).
		for _, shards := range []int{1, 3, 8} {
			for _, workers := range []int{1, 8} {
				add("TestShardCountInvariance", l.group, config{corpus: world2, shards: shards, workers: workers, ingest: "bulk", records: l.records})
			}
			add("TestShardCountInvariance", l.group, config{corpus: world2, shards: shards, workers: 4, cache: "warm", ingest: "in-order", records: l.records})
		}
		add("TestShardCountInvariance", l.group, config{corpus: world2, shards: 64, workers: 2, cache: "restored", ingest: "batches", seed: 3, records: l.records})
		add("TestShardCountInvariance", l.group, config{corpus: world2, shards: 8, workers: 8, ingest: "bulk", stitch: true, records: l.records})

		// Append order, uncached and cached (an out-of-order Append makes
		// the cache merge and rebuild), and cached behind a barrier.
		for _, order := range []config{{ingest: "in-order"}, {ingest: "reversed"}, {ingest: "shuffled", seed: 1}, {ingest: "shuffled", seed: 7}} {
			c := order
			c.corpus, c.shards, c.workers, c.records = world3, scanner.DefaultShards, 4, l.records
			add("TestAppendOrderInvariance", l.group, c)
			c.cache = "warm"
			add("TestAppendOrderInvariance", l.group, c)
			c.barrier = true
			add("TestAppendOrderInvariance", l.group, c)
		}
	}

	// A warm cache fed scan by scan equals the reference after every scan
	// through the first campaign window, then every fourth.
	add("TestIncrementalReplayBytesIdentical", "", config{corpus: world2, shards: scanner.DefaultShards, workers: 8, cache: "warm", ingest: "in-order", every: 4, records: "scanner"})

	// The spill budget, cached scan by scan (every Append unspills what it
	// touches and spills it again) and uncached (every window read off
	// disk through a shard's cursor).
	for _, c := range []config{{shards: 1}, {shards: 1, spill: "zero"}, {shards: 8}, {shards: 8, spill: "zero"}, {shards: 8, spill: "tight"}} {
		c.corpus, c.workers, c.cache, c.ingest, c.records = world2, 4, "warm", "in-order", "scanner"
		add("TestSpillInvariance", "", c)
	}
	for _, c := range []config{{shards: 8}, {shards: 1, spill: "zero"}, {shards: 8, spill: "tight"}, {shards: 64, spill: "zero"}, {shards: 3, spill: "zero", stitch: true}, {shards: 3, stitch: true}} {
		c.corpus, c.workers, c.ingest, c.records = world2, 2, "bulk", "scanner"
		add("TestSpillInvariance", "", c)
	}
	// A cache restored mid-study over a dataset with shards on both sides
	// of the budget: one restore walk reads resident and spilled shards.
	add("TestSpillInvariance", "", config{corpus: world2, shards: 8, workers: 4, cache: "restored", ingest: "in-order", spill: "tight", records: "scanner"})

	// Where the records lie in memory: as generated, read back through one
	// ScanCSV, copied domain-major, and each with a certificate instance
	// of its own, which the pool must deduplicate by fingerprint.
	for _, records := range []string{"scanner", "csv", "domain-major", "cloned"} {
		add("TestLayoutInvariance", "", config{corpus: layoutSynth, shards: scanner.DefaultShards, workers: 2, ingest: "bulk", records: records})
	}
	add("TestLayoutInvariance", "", config{corpus: layoutSynth, shards: 3, workers: 8, cache: "restored", ingest: "shuffled", seed: 5, spill: "zero", records: "cloned"})

	// A durable daemon, one without a data dir, and a durable one killed
	// after two scans, its data dir damaged by each fault class, then
	// restarted.
	for _, shards := range []int{1, 8} {
		for i, fault := range append([]walFault{{Fault: faults.Fault{Name: "uninterrupted"}}, {Fault: faults.Fault{Name: "store-less"}}}, walFaults...) {
			c := config{corpus: restartSynth, shards: shards, workers: 2, cache: "warm", ingest: "in-order", restart: fault.Name, records: "csv"}
			if i >= 2 {
				c.killAt = 2
			}
			c.group, c.name = fmt.Sprintf("shards=%d", shards), fault.Name
			tbl["TestWarmRestartBytesIdentical"] = append(tbl["TestWarmRestartBytesIdentical"], c)
		}
	}
	return tbl
}

// runTable runs the configTable rows of the calling test, each against the
// reference and against the first row of its canonKey group.
func runTable(t *testing.T) {
	rows := configTable()[t.Name()]
	if len(rows) == 0 {
		t.Fatalf("configTable has no rows for %s", t.Name())
	}
	type agreed struct {
		row string
		out outcome
	}
	groups := map[string]agreed{}
	run := func(t *testing.T, cfg config) {
		if testing.Short() && cfg.corpus.stable > 0 {
			t.Skip("full study replay")
		}
		s := corpus(t, cfg.corpus, true)
		ref := reference(t, s, cfg, true)
		pinsSomething(t, cfg.corpus, s, ref)
		got := runConfig(t, cfg, s)
		sameAsReference(t, got.res, ref)
		g, ok := groups[cfg.canonKey()]
		switch {
		case !ok:
			groups[cfg.canonKey()] = agreed{strings.TrimPrefix(cfg.group+"/"+cfg.name, "/"), got}
		case got.canon != g.out.canon:
			t.Errorf("canonical run report differs from %s: %s", g.row, firstDiff(got.canon, g.out.canon))
		case got.quar != g.out.quar:
			t.Errorf("quarantine journal differs from %s:\n%s\nvs\n%s", g.row, got.quar, g.out.quar)
		}
	}
	for len(rows) > 0 {
		// A group's rows are consecutive and run under one subtest.
		n := 1
		for n < len(rows) && rows[n].group == rows[0].group {
			n++
		}
		group := rows[:n]
		rows = rows[n:]
		runGroup := func(t *testing.T) {
			for _, cfg := range group {
				t.Run(cfg.name, func(t *testing.T) { run(t, cfg) })
			}
		}
		if group[0].group == "" {
			runGroup(t)
		} else {
			t.Run(group[0].group, runGroup)
		}
	}
}

// pinsSomething fails a row whose fixed corpus has drifted too plain for
// agreement with the reference to mean anything: no map, no transient map
// (unless the corpus has no transients by design), or a world with no
// finding or whose study stops short of the final period.
func pinsSomething(t *testing.T, spec corpusSpec, s *studyInput, ref *core.Result) {
	t.Helper()
	transients := spec.stable > 0 || spec.synth.TransientPerMille > 0
	if ref.Funnel.Maps == 0 || transients && ref.Funnel.MapCategories[core.CategoryTransient] == 0 {
		t.Fatalf("corpus too plain to pin anything: %+v", ref.Funnel)
	}
	if spec.stable > 0 && len(ref.Hijacked) == 0 {
		t.Fatalf("world %d/%d: the reference finds no hijack", spec.worldSeed, spec.stable)
	}
	if last := s.dates[len(s.dates)-1]; spec.stable > 0 && simtime.PeriodOf(last) != simtime.NumPeriods-1 {
		t.Fatalf("world %d/%d: study ends in %s, short of the final period", spec.worldSeed, spec.stable, simtime.PeriodOf(last))
	}
}

func TestShardCountInvariance(t *testing.T)            { runTable(t) }
func TestIncrementalReplayBytesIdentical(t *testing.T) { runTable(t) }
func TestAppendOrderInvariance(t *testing.T)           { runTable(t) }
func TestSpillInvariance(t *testing.T)                 { runTable(t) }
func TestLayoutInvariance(t *testing.T)                { runTable(t) }
func TestWarmRestartBytesIdentical(t *testing.T)       { runTable(t) }

// randomConfig draws a configuration over a seeded synth corpus from
// seed: one value per axis, a quarter of them durable daemons killed at a
// random scan.
func randomConfig(seed int64) config {
	rng := rand.New(rand.NewSource(seed))
	pick := func(vals ...string) string { return vals[rng.Intn(len(vals))] }
	scans := 8 + rng.Intn(23)
	c := config{
		corpus:  synthSpec(200+rng.Intn(1801), seed, scans, []int{7, 14, 28}[rng.Intn(3)], 20+rng.Intn(181)),
		shards:  []int{1, 3, 8, 64}[rng.Intn(4)],
		workers: []int{1, 2, 8}[rng.Intn(3)],
		cache:   pick("", "warm", "restored"),
		ingest:  pick("bulk", "in-order", "reversed", "shuffled", "batches"),
		spill:   pick("", "zero", "tight"),
		stitch:  rng.Intn(2) == 0,
		records: pick("scanner", "csv", "domain-major", "cloned"),
		seed:    seed,
	}
	c.barrier = c.ingest != "bulk" && rng.Intn(2) == 0
	if rng.Intn(4) == 0 {
		// A durable daemon is cached and fed its scans.csv in date order.
		c.restart, c.killAt = walFaults[rng.Intn(len(walFaults))].Name, 1+rng.Intn(scans-1)
		c.cache, c.ingest, c.records, c.barrier = "warm", "in-order", "csv", false
		if c.spill == "tight" {
			c.spill = "zero"
		}
	}
	if c.spill != "" && c.ingest != "bulk" && c.shards > 8 {
		// Each Append into a spilled dataset seals every shard it touched
		// again (~3 ms a shard on a 2-vCPU box): 64 of them a scan would
		// take a fuzz input past the fuzzer's 10 s hang limit. 64 spilled
		// shards are drawn for bulk ingest.
		c.shards = 8
	}
	c.name = c.label()
	return c
}

// FuzzConfigurations holds random configurations over random synth
// corpora to the reference. Its seed corpus runs with every `go test`.
func FuzzConfigurations(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		cfg := randomConfig(seed)
		t.Log(cfg.name)
		s := corpus(t, cfg.corpus, false)
		sameAsReference(t, runConfig(t, cfg, s).res, reference(t, s, cfg, false))
	})
}

// TestReferenceAtScale holds a sharded, cached pipeline to the reference on
// the synth corpus `retrodns -synth-domains N -seed 7` analyzes, with N
// from REFERENCE_DOMAINS; when REFERENCE_FINDINGS names a file, it also
// writes the reference's findings JSON there, for scripts/smoke_scale.sh to
// compare with the binary's. It is skipped unless REFERENCE_DOMAINS is set.
func TestReferenceAtScale(t *testing.T) {
	n, err := strconv.Atoi(os.Getenv("REFERENCE_DOMAINS"))
	if err != nil || n <= 0 {
		t.Skip("set REFERENCE_DOMAINS to the corpus size")
	}
	cfg := config{corpus: synthSpec(n, 7, 4, 0, 0), shards: scanner.DefaultShards, cache: "warm", ingest: "in-order", records: "scanner"}
	s := corpus(t, cfg.corpus, false)
	ref := reference(t, s, cfg, false)
	sameAsReference(t, runConfig(t, cfg, s).res, ref)
	if path := os.Getenv("REFERENCE_FINDINGS"); path != "" {
		must(t, os.WriteFile(path, []byte(encoded(t, report.BuildJSONReport(ref).Encode)), 0o644))
	}
}
