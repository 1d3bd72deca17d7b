package world

import (
	"errors"
	"fmt"

	"retrodns/internal/core"
)

// Sources returns the evidence this world simulates — IP metadata, passive
// DNS, the CT log and the DNSSEC validation log — for a pipeline over its
// scans (core.Sources.Pipeline) or the durable follow loop. Every binary
// and example takes a world's evidence here, so none can drop a source.
func (w *World) Sources() core.Sources {
	return core.Sources{Meta: w.Meta, PDNS: w.PDNSDB, CT: w.CT, DNSSEC: w.SecLog}
}

// Err folds the world-generation failures collected in Errors into one
// error, nil when generation was clean.
func (w *World) Err() error {
	if len(w.Errors) == 0 {
		return nil
	}
	return fmt.Errorf("world generation failed with %d errors:\n%w", len(w.Errors), errors.Join(w.Errors...))
}
