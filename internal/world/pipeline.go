package world

import (
	"errors"
	"fmt"

	"retrodns/internal/core"
	"retrodns/internal/obsv"
	"retrodns/internal/scanner"
)

// Pipeline wires the detection pipeline over ds with every auxiliary
// source this world simulates — IP metadata, passive DNS, the CT log and
// the DNSSEC validation log — and attaches the passive-DNS and CT query
// counters to metrics. It is the one place a world-backed pipeline is
// built, so no binary can drop a source the others carry. cache and
// metrics may be nil (uncached, uninstrumented); workers <= 0 means
// GOMAXPROCS.
func (w *World) Pipeline(ds *scanner.Dataset, workers int, cache *core.ClassifyCache, metrics *obsv.Registry) *core.Pipeline {
	w.PDNSDB.SetMetrics(metrics)
	w.CT.SetMetrics(metrics)
	return &core.Pipeline{
		Params: core.DefaultParams(), Dataset: ds, Meta: w.Meta,
		PDNS: w.PDNSDB, CT: w.CT, DNSSEC: w.SecLog,
		Workers: workers, Cache: cache, Metrics: metrics,
	}
}

// Err folds the world-generation failures collected in Errors into one
// error, nil when generation was clean.
func (w *World) Err() error {
	if len(w.Errors) == 0 {
		return nil
	}
	return fmt.Errorf("world generation failed with %d errors:\n%w", len(w.Errors), errors.Join(w.Errors...))
}
