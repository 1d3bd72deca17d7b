// Quickstart: generate a small synthetic Internet with the paper's attack
// campaigns, run the five-step detection pipeline, and print the verdicts.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"os"

	"retrodns/internal/report"
	"retrodns/internal/world"
)

func main() {
	// A small world: 80 benign stable domains plus the full replay of the
	// paper's Table 2/3 campaigns.
	cfg := world.Config{
		Seed:              1,
		StableDomains:     80,
		TransitionDomains: 3,
		NoisyDomains:      2,
		BenignTransients:  3,
		PDNSCoverage:      0.85,
		Campaigns:         true,
	}
	w := world.New(cfg)
	fmt.Println("simulating four years of Internet history...")
	dataset := w.Run()
	if err := w.Err(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	domains, records := dataset.Size()
	fmt.Printf("collected %d weekly-scan records covering %d domains\n\n", records, domains)

	// The paper's methodology: deployment maps → pattern classification →
	// shortlist → inspection against pDNS and CT → pivot.
	res := w.Sources().Pipeline(dataset, 0, nil, nil).Run()

	fmt.Println(report.Funnel(res))
	fmt.Printf("first five hijacked findings:\n")
	for i, f := range res.Hijacked {
		if i == 5 {
			break
		}
		fmt.Printf("  %s\n", f)
	}
	fmt.Printf("\nfull tables: go run ./cmd/repro\n")
}
