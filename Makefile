# Tier-1 verification plus the race-detector pass over the concurrent
# packages. `make ci` is what a pre-merge check should run.

GO ?= go

.PHONY: ci vet build test race fuzz-smoke lint bench bench-all bench-report benchgate bench-baseline bench-record bench-compare smoke-bench smoke-serve smoke-scale smoke-chaos smoke-load load-baseline smoke-spill profile-classify

ci: lint vet build test race fuzz-smoke

# The fault-tolerance conventions from PR 3, machine-checked: no panic(
# reachable from data paths, no Must* constructors outside static tables —
# and no manifest growing back under internal/wal or internal/segment —
# plus gofmt: any file `gofmt -l` lists fails the target.
lint:
	./scripts/lint.sh

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The pipeline's worker pool (now shard-affine: workers own whole shards,
# walking pinned ShardViews with per-worker arenas for map/classification
# storage), the frozen dataset's lock-free reads, the incremental Append
# path, the shared metrics registry, and the serving layer's RCU snapshot
# swap are exercised under the race detector here (includes
# TestPipelineDeterminism, TestDatasetConcurrentReads,
# TestAppendConcurrentReads, TestIncrementalReplayEquivalence,
# TestConcurrentRegistry, TestFollowScrapeRace,
# TestSnapshotSwapConsistency, and TestSnapshotNotAliasedUnderAppend (no
# published snapshot reads state the cached pipeline extends in place);
# internal/core covers the arena and
# slice-set deployment code on every parallel path; internal/scanner's
# TestReaderRecordsFeedTwoDatasets drives two datasets' parallel ingest
# phases over one CSV reader's shared certificates and ports arrays, the
# reader's read-ahead tests (TestScanCSVAbandonedReaderStops,
# TestScanCSVReadAheadCeiling, TestScanCSVReadAheadScanWide,
# TestScanCSVReadErrorMidStream, TestScanCSVQuarantineOnCallerGoroutine, and
# the differential tests at one-row chunks and at one, two and four parse
# workers) its producer beside the caller and its parse workers beside each
# other,
# TestSpilledWindowsSharedReadOnly four readers over the ports arrays the
# records of a decoded window share, TestPinnedViewReadsDuringUnspill a
# reader on a pinned ShardView while its shard unspills under it). The
# root run takes the restart rows of the configuration table
# (configurations_test.go): a durable daemon killed mid-feed under every
# WAL fault class, recovered, and held under -race both to the
# uninterrupted daemon's canonical run report and to the single-goroutine
# reference pipeline (reference_test.go).
race:
	$(GO) test -race ./internal/core ./internal/scanner ./internal/obsv ./internal/serve ./internal/wal ./internal/segment
	$(GO) test -race -run '^TestWarmRestartBytesIdentical$$' .

# Ten seconds of coverage-guided fuzzing per parser: DNS names (also the
# IsCanonical differential), zone-file snapshots, certificate chains, the
# JSON report round trip, WAL and segment replay, scans.csv rows
# (memoized reader against the reference ParseScanRow, at the default
# read-ahead chunking and at chunks of one to three rows, and every chunking
# of more than one row again at one, two and four parse workers; the in-place
# certificate-serial hash against hash/fnv), segment windows (slab decoder,
# fresh and into a cursor's dirty slab, against the per-record reference),
# /v1/domain bodies (assembled from shared tails against the reference
# render), and execution configurations (random shards, workers, cache, ingest order,
# spill budget, WAL fault, stitching and record layout over random synth
# corpora, against the single-goroutine reference pipeline). Enough to
# catch a freshly introduced data-shaped panic without stalling CI; run
# `go test -fuzz=<target> ./internal/<pkg>` open-endedly when hunting.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzParseName -fuzztime=10s ./internal/dnscore
	$(GO) test -run='^$$' -fuzz=FuzzZonefileParse -fuzztime=10s ./internal/zonefiles
	$(GO) test -run='^$$' -fuzz=FuzzChainVerify -fuzztime=10s ./internal/x509lite
	$(GO) test -run='^$$' -fuzz=FuzzReportJSONRoundTrip -fuzztime=10s ./internal/report
	$(GO) test -run='^$$' -fuzz=FuzzWALReplay -fuzztime=10s ./internal/wal
	$(GO) test -run='^$$' -fuzz=FuzzSnapshotFile -fuzztime=10s ./internal/wal
	$(GO) test -run='^$$' -fuzz=FuzzDecodeState -fuzztime=10s ./internal/core
	$(GO) test -run='^$$' -fuzz=FuzzSegmentReplay -fuzztime=10s ./internal/segment
	$(GO) test -run='^$$' -fuzz=FuzzScanCSVRow -fuzztime=10s ./internal/scanner
	$(GO) test -run='^$$' -fuzz=FuzzSynthCertSerial -fuzztime=10s ./internal/scanner
	$(GO) test -run='^$$' -fuzz=FuzzDecodeWindow -fuzztime=10s ./internal/scanner
	$(GO) test -run='^$$' -fuzz=FuzzVarintsMatchBinary -fuzztime=10s ./internal/wire
	$(GO) test -run='^$$' -fuzz=FuzzDomainBody -fuzztime=10s ./internal/serve
	$(GO) test -run='^$$' -fuzz=FuzzConfigurations -fuzztime=10s .

# The incremental-engine benchmarks: append+cached-rerun vs full rerun
# (the headline >=10x), certificate-fingerprint memoization, the
# allocation cost of bulk scan ingest, the corpus generator (records/s and
# allocs/record), the scans.csv reader alone and the bulk load it feeds
# (NewScanCSV -> Next -> AddScan per date -> Freeze, where the reader's
# read-ahead overlaps parse with staging; rows/s and allocs/row), on the
# 20k x 4 synth corpus and, as BenchmarkBulkIngestCSVFirstSighting, on a
# 60k x 2 one that is mostly first sightings,
# paper-shaped sharded ingest and classification over the synthetic corpus
# (shard counts 1/4/8 — the benchmark itself fails if shards=8 runs over
# 1.25x shards=1 — plus the certificate pool's retained heap,
# live-MiB and pooled-certs; classification over a 4 000 x 104 archive
# with its records in scan order and copied domain-major), the serving
# layer's query latency (reference render, prerendered singleton,
# templated domain body), the
# snapshot build the follow loop pays per scan (default vs reference),
# one scan of the durable follow loop end to end (Feeder.Tick -> cached Run
# -> BuildSnapshot on a WAL in a temp dir: ns/scan, allocs/scan), segment
# window reads per read tier, and classification over a fully spilled
# corpus: BenchmarkSpilledClassify on synth (20k x 4, where the segment
# lookup is most of a window read) and BenchmarkSpilledClassifyArchive on
# 4 000 x 104 (batch-spilled's shape, where the record decode is); and, in
# internal/wal, BenchmarkWALAppend: one 2 500-record scan's WAL frame
# encoded and written, as the first frame after a rotation and as a
# steady-state frame against the log's certificate dictionary.
bench:
	$(GO) test -bench='BenchmarkIncrementalAppend|BenchmarkFingerprint|BenchmarkAddScan|BenchmarkSynthEmit|BenchmarkScanCSVNext|BenchmarkBulkIngestCSV|BenchmarkIngestShards|BenchmarkIngestIntern|BenchmarkSynthClassify|BenchmarkArchiveClassify|BenchmarkServeQuery|BenchmarkBuildSnapshot|BenchmarkDurableTick|BenchmarkSegmentRead|BenchmarkSpilledClassify|BenchmarkWALAppend' -benchmem -count=3 -run='^$$' . ./internal/wal

# Every benchmark in the harness (tables, figures, scale sweeps, ablations).
bench-all:
	$(GO) test -bench=. -benchmem -run='^$$' .

# The CI perf gate's inputs: a run report from the seeded example world
# plus five passes over the gated benchmarks, which cmd/benchdiff folds to
# each benchmark's fastest ns/op and lowest allocs/op. Five passes of the
# list, not -count=5: -count repeats one benchmark back to back, and a busy
# phase on a shared box then covers all five repeats (measured: two of
# three gate runs red on unchanged code that way); a pass apart, the
# repeats of one benchmark are a minute apart. BENCHDIR defaults to a
# scratch dir so `make benchgate` leaves no tracked files behind.
BENCHDIR ?= /tmp/retrodns-bench
bench-report:
	mkdir -p $(BENCHDIR)
	$(GO) run ./cmd/retrodns -stable 80 -seed 1 -report-json $(BENCHDIR)/run-report.json 2>/dev/null >/dev/null
	rm -f $(BENCHDIR)/bench.txt
	for pass in 1 2 3 4 5; do $(GO) test -bench='BenchmarkIncrementalAppend$$|BenchmarkFingerprint|BenchmarkAddScan|BenchmarkScanCSVNext|BenchmarkBulkIngestCSV|BenchmarkIngestShards|BenchmarkSynthClassify|BenchmarkArchiveClassify|BenchmarkDeploymentAnyIP|BenchmarkServeQuery|BenchmarkBuildSnapshot|BenchmarkDurableTick|BenchmarkSegmentRead|BenchmarkSpilledClassify|BenchmarkWALAppend' -benchmem -count=1 -run='^$$' . ./internal/wal | tee -a $(BENCHDIR)/bench.txt; done

# Fail on funnel drift or a >20% perf regression against the committed
# baseline (see cmd/benchdiff).
benchgate: bench-report
	$(GO) run ./cmd/benchdiff -baseline BENCH_BASELINE.json -report $(BENCHDIR)/run-report.json -bench $(BENCHDIR)/bench.txt

# Regenerate the committed baseline after an intentional funnel or perf
# change; commit the resulting BENCH_BASELINE.json with the change.
bench-baseline: bench-report
	$(GO) run ./cmd/benchdiff -update -baseline BENCH_BASELINE.json -report $(BENCHDIR)/run-report.json -bench $(BENCHDIR)/bench.txt

# The benchmark of record (bench/, BENCHMARK.json): four paper-shaped
# workloads, end-to-end metrics plus the per-layer ledger. bench-record
# writes one results file; bench-compare judges two of them (exit 1 on a
# worse metric or a differing exact count):
#   make bench-record && cp $(BENCHDIR)/bench-of-record.json before.json
#   ... change something ...
#   make bench-record && make bench-compare A=before.json B=$(BENCHDIR)/bench-of-record.json
bench-record:
	mkdir -p $(BENCHDIR)
	$(GO) run ./bench run -seed 1 -out $(BENCHDIR)/bench-of-record.json

bench-compare:
	$(GO) run ./bench compare $(A) $(B)

# The same benchmark as a correctness gate: BENCHMARK.json's command once
# per workload, failing unless each run's verdict line says correct=true
# with zero failed operations. Timings are advisory here.
smoke-bench:
	./scripts/smoke_bench.sh

# CPU profile of the classification hot path: one uncached pipeline run
# over a 50k-domain synthetic corpus (no simulator in the profile). Open
# with `go tool pprof $(BENCHDIR)/classify.pprof`.
profile-classify:
	mkdir -p $(BENCHDIR)
	$(GO) run ./cmd/repro -synth-domains 50000 -cpuprofile $(BENCHDIR)/classify.pprof -quiet
	@echo "profile written to $(BENCHDIR)/classify.pprof"

# End-to-end daemon smoke: start retrodnsd on a small -follow world, poll
# /v1/healthz until a snapshot is live, hit every /v1 endpoint, and check
# the daemon drains cleanly on SIGTERM.
smoke-serve:
	./scripts/smoke_serve.sh

# Paper-scale smoke: 50k-domain streaming worldgen (byte-identical per
# seed), sharded ingest+classify with shards 1 vs 8 (identical findings),
# corpus gauges in the run report, all under a wall-clock budget.
smoke-scale:
	./scripts/smoke_scale.sh

# Durability smoke: the chaos harness kills or drains a live retrodnsd and
# damages its data dir with each internal/faults row (kill, torn, garble,
# duplicate, unrotated, stray-manifest, stray-garbage), or skews or tears
# its feed, then requires byte-identical recovery, exactly accounted
# fault counters, and a >=5x warm-restart speedup over a 50k-domain corpus.
smoke-chaos:
	./scripts/smoke_chaos.sh

# Load gate: cmd/loadgen against one retrodnsd on a 50k-domain corpus,
# every endpoint answering, a clean drain, and p99/QPS gated against the
# recorded LOAD_BASELINE.json (cmd/benchdiff).
smoke-load:
	./scripts/smoke_load.sh

# Re-record LOAD_BASELINE.json from a run on this box (benchdiff -update
# -baseline LOAD_BASELINE.json -load ...); commit the result. The numbers
# in that file are only ever written this way, never typed.
load-baseline:
	./scripts/smoke_load.sh record

# Out-of-core gate: a 200k-domain synthetic corpus classified three ways —
# fully resident, spilled to segments under a tight -mem-budget-mb, and
# reloaded from the saved corpus in a fresh process — with byte-identical
# findings and residency gauges in the run report; both peak RSS figures are
# printed (bench's batch-spilled / batch-archive peak_rss_mb gate the ratio).
smoke-spill:
	./scripts/smoke_spill.sh
