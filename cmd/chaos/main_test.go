package main

import (
	"bytes"
	"fmt"
	"testing"

	"retrodns/internal/faults"
	"retrodns/internal/obsv"
	"retrodns/internal/scanner"
	"retrodns/internal/synth"
	"retrodns/internal/wal"
)

// TestCampaignTable: campaign names are unique, every data-dir fault row
// is driven by exactly one campaign, and each campaign either stops a
// daemon or damages the feed.
func TestCampaignTable(t *testing.T) {
	names, rows := map[string]bool{}, map[string]int{}
	for _, c := range campaigns {
		if names[c.name] {
			t.Errorf("campaign %q named twice", c.name)
		}
		names[c.name] = true
		if c.fault != nil {
			rows[c.fault.Name]++
		}
		if (c.stop == 0) == (c.feed == nil) {
			t.Errorf("campaign %q: stop %v, feed mutation %v; want exactly one", c.name, c.stop, c.feed != nil)
		}
	}
	for _, f := range faults.Rows {
		if rows[f.Name] != 1 {
			t.Errorf("fault row %q driven by %d campaigns, want 1", f.Name, rows[f.Name])
		}
	}
}

// TestFeedMutationsCount feeds each campaign's damaged corpus through a
// wal.Feeder, the gate the daemon's feed runs, and requires exactly the
// feed refusals the campaign expects, nothing else, and every scan of the
// corpus appended.
func TestFeedMutationsCount(t *testing.T) {
	g := synth.New(synth.Config{Domains: 30, Seed: 11, Scans: 3})
	var corpus bytes.Buffer
	if _, err := g.WriteCSV(&corpus); err != nil {
		t.Fatal(err)
	}
	for _, c := range campaigns {
		if c.feed == nil {
			continue
		}
		t.Run(c.name, func(t *testing.T) {
			feed, err := c.feed(bytes.Clone(corpus.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			reg := obsv.NewRegistry()
			ds := scanner.NewDatasetShards(2)
			f := wal.NewFeeder(bytes.NewReader(feed), ds, nil, reg)
			for {
				_, appended, err := f.Tick()
				if err != nil {
					t.Fatal(err)
				}
				if !appended {
					break
				}
			}
			f.Finish()
			if got := quarantined(reg.Snapshot(), wal.MetricFeedQuarantined); fmt.Sprint(got) != fmt.Sprint(c.fed) {
				t.Errorf("feed quarantine %v, want %v", got, c.fed)
			}
			if got, want := len(ds.ScanDates(0, 0)), len(g.ScanDates()); got != want {
				t.Errorf("%d scans appended, want %d", got, want)
			}
		})
	}
}
