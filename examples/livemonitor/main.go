// Livemonitor demonstrates the paper's §7.1 future-work idea using the
// reactive package: reactive DNS measurement triggered by certificate
// issuance. A monitor watches the CT log; every new certificate for a
// watched domain triggers an immediate delegation + resolution measurement
// against a baseline, so a hijack is flagged within one CT polling
// interval instead of years later.
//
// The DNS hierarchy runs on real localhost UDP sockets to demonstrate the
// wire path end to end.
//
// With -follow the demo instead drives the incremental analysis engine:
// a simulated study is ingested scan-by-scan through Dataset.Append and
// the cached pipeline re-runs after every scan, printing each finding the
// week it first becomes detectable — the detection-latency view of the
// same continuous-monitoring idea.
//
//	go run ./examples/livemonitor
//	go run ./examples/livemonitor -follow
package main

import (
	"context"
	"flag"
	"fmt"
	"net/netip"
	"os"
	"time"

	"retrodns/internal/ca"
	"retrodns/internal/core"
	"retrodns/internal/ctlog"
	"retrodns/internal/dnscore"
	"retrodns/internal/dnsserver"
	"retrodns/internal/obsv"
	"retrodns/internal/reactive"
	"retrodns/internal/scanner"
	"retrodns/internal/simtime"
	"retrodns/internal/world"
)

var (
	rootIP    = netip.MustParseAddr("198.41.0.4")
	tldIP     = netip.MustParseAddr("203.0.113.1")
	legitNSIP = netip.MustParseAddr("203.0.113.10")
	legitIP   = netip.MustParseAddr("203.0.113.20")
	evilNSIP  = netip.MustParseAddr("198.51.100.66")
	evilIP    = netip.MustParseAddr("198.51.100.99")
)

func main() {
	follow := flag.Bool("follow", false, "replay a simulated study through the incremental analysis engine")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics and /debug/vars on this address while following")
	flag.Parse()
	if *follow {
		followStudy(*metricsAddr)
		return
	}
	reactiveDemo()
}

// followStudy replays a small simulated study scan-by-scan: each Append
// dirties only the cells the new scan touched, the cached pipeline
// re-analyzes just those, and findings print the week they first surface.
func followStudy(metricsAddr string) {
	cfg := world.DefaultConfig()
	cfg.StableDomains = 60
	cfg.TransitionDomains = 2
	cfg.NoisyDomains = 2
	w := world.New(cfg)
	fmt.Println("advancing the simulation clock over the study window...")
	w.RunClock()
	sc := w.Scanner()

	// The shared registry: ingest counters from the dataset, funnel and
	// stage series from the pipeline, query counters from the evidence
	// sources — scraped live while the study replays.
	metrics := obsv.NewRegistry()
	if metricsAddr != "" {
		bound, stop, err := obsv.ListenAndServeMetrics(metricsAddr, metrics, os.Stderr)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("metrics on http://%s/metrics\n", bound)
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			stop(ctx)
		}()
	}

	ds := scanner.NewDataset()
	ds.SetMetrics(metrics)
	pipe := w.Pipeline(ds, 0, core.NewClassifyCache(), metrics)

	seen := make(map[dnscore.Name]bool)
	var res *core.Result
	for _, date := range w.ScanDates() {
		ds.Append(date, sc.ScanWeek(date))
		res = pipe.Run()
		for _, f := range res.Findings() {
			if seen[f.Domain] {
				continue
			}
			seen[f.Domain] = true
			fmt.Printf("scan %s gen=%d (dirty=%d hits=%d misses=%d): NEW %s\n",
				date, res.Stats.Generation, res.Stats.DirtyCells,
				res.Stats.CacheHits, res.Stats.CacheMisses, f)
		}
	}
	fmt.Printf("\nstudy complete after %d scans: %d hijacked, %d targeted\n",
		len(w.ScanDates()), len(res.Hijacked), len(res.Targeted))
	fmt.Print(res.Stats)
}

// reactiveDemo is the original CT-triggered measurement walkthrough.
func reactiveDemo() {
	dnscore.RegisterPublicSuffix("gov.xx")

	root := dnscore.NewZone("")
	root.MustAdd(dnscore.NS("gov.xx", 86400, "ns.nic.gov.xx"))
	root.MustAdd(dnscore.A("ns.nic.gov.xx", 86400, tldIP))
	root.MustAdd(dnscore.NS("evil-dns.net", 86400, "ns1.evil-dns.net"))
	root.MustAdd(dnscore.A("ns1.evil-dns.net", 86400, evilNSIP))
	rootSrv := dnsserver.NewServer()
	rootSrv.AddZone(root)

	tld := dnscore.NewZone("gov.xx")
	tld.MustAdd(dnscore.NS("ministry.gov.xx", 3600, "ns1.ministry.gov.xx"))
	tld.MustAdd(dnscore.A("ns1.ministry.gov.xx", 3600, legitNSIP))
	tldSrv := dnsserver.NewServer()
	tldSrv.AddZone(tld)

	ministry := dnscore.NewZone("ministry.gov.xx")
	ministry.MustAdd(dnscore.NS("ministry.gov.xx", 3600, "ns1.ministry.gov.xx"))
	ministry.MustAdd(dnscore.A("ns1.ministry.gov.xx", 3600, legitNSIP))
	ministry.MustAdd(dnscore.A("mail.ministry.gov.xx", 300, legitIP))
	legitSrv := dnsserver.NewServer()
	legitSrv.AddZone(ministry)

	evilZone := dnscore.NewZone("ministry.gov.xx")
	evilZone.MustAdd(dnscore.NS("ministry.gov.xx", 300, "ns1.evil-dns.net"))
	evilZone.MustAdd(dnscore.A("mail.ministry.gov.xx", 300, evilIP))
	evilHome := dnscore.NewZone("evil-dns.net")
	evilHome.MustAdd(dnscore.A("ns1.evil-dns.net", 3600, evilNSIP))
	evilSrv := dnsserver.NewServer()
	evilSrv.AddZone(evilZone)
	evilSrv.AddZone(evilHome)

	// Serve everything over localhost UDP and map the simulated addresses.
	udp := dnsserver.NewUDPTransport()
	for _, pair := range []struct {
		sim netip.Addr
		srv *dnsserver.Server
	}{{rootIP, rootSrv}, {tldIP, tldSrv}, {legitNSIP, legitSrv}, {evilNSIP, evilSrv}} {
		listener, err := dnsserver.ListenUDP("127.0.0.1:0", pair.srv)
		must(err)
		defer listener.Close()
		udp.Map(pair.sim, listener.Addr())
		fmt.Printf("serving %s on %s\n", pair.sim, listener.Addr())
	}
	resolver := dnsserver.NewResolver(udp, []netip.Addr{rootIP})

	// CA, CT log, and the reactive monitor.
	log := ctlog.NewLog("live-log", 0)
	issuer := ca.New(ca.Config{Name: "Let's Encrypt", KeyID: "le-live", Seed: 5, ValidityDays: 90}, resolver, log)
	monitor := reactive.NewMonitor(log, resolver, 0)
	monitor.Watch("ministry.gov.xx", reactive.Baseline{
		NS:        []dnscore.Name{"ns1.ministry.gov.xx"},
		Addresses: map[dnscore.Name][]netip.Addr{"mail.ministry.gov.xx": {legitIP}},
	})

	now := simtime.MustParse("2021-02-01")
	fmt.Println("\n--- day 1: the legitimate owner renews a certificate ---")
	_, err := issuer.IssueDV(now, ca.ZoneSolver{Zone: ministry}, "mail.ministry.gov.xx")
	must(err)
	for _, alert := range monitor.Poll(now) {
		fmt.Printf("  %s\n", alert)
	}

	fmt.Println("\n--- day 2: registrar compromise; attacker swaps the delegation ---")
	must(tld.Replace("ministry.gov.xx", dnscore.TypeNS, dnscore.RRSet{
		dnscore.NS("ministry.gov.xx", 300, "ns1.evil-dns.net"),
	}))
	_, err = issuer.IssueDV(now+1, ca.ZoneSolver{Zone: evilZone}, "mail.ministry.gov.xx")
	must(err)
	for _, alert := range monitor.Poll(now + 1) {
		fmt.Printf("  %s\n", alert)
		fmt.Printf("    measured delegation: %v\n", alert.Delegation)
		fmt.Printf("    measured addresses:  %v\n", alert.Addresses)
	}
	fmt.Println("\nThe registrar-level hijack is caught at issuance time — the paper's")
	fmt.Println("T1 signature detected reactively instead of retroactively.")
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
