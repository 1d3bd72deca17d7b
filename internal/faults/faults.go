// Package faults is the one library of data-dir faults: each shape of
// damage a crash or a bad disk can leave in a retrodnsd data dir is one
// row, written once, with what recovery must count for it. Three harnesses
// run the rows: the restart rows of the root configuration table (an
// in-process daemon killed after a few appends), this package's tests (a
// store crashed after a whole synth corpus), and cmd/chaos (a real
// retrodnsd process, SIGKILLed mid-ingest).
package faults

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"retrodns/internal/scanner"
	"retrodns/internal/simtime"
	"retrodns/internal/wal"
)

// Fault is one data-dir fault class: how the killed daemon ran, the damage
// done to its dir, and what recovery must make of it.
type Fault struct {
	Name string
	// Counted is the wal.Fault* reason recovery counts the damage under
	// ("" for none): once, or once per frame the log held if PerFrame.
	Counted  string
	PerFrame bool
	// LostTail: the damage costs the log its last frame, so recovery lands
	// before the killed generation.
	LostTail bool
	// Snapshots: the killed daemon snapshotted as it ran (else never, so
	// the damage hits live frames). Spill: it had a spill dir.
	Snapshots, Spill bool
	// FromSnapshot: recovery must start from a snapshot.
	FromSnapshot bool
	// Damage damages the data dir opts names (and its spill dir, if any)
	// on disk. The daemon that owned it is gone.
	Damage func(opts wal.Options) error
}

// Rows are the data-dir fault classes.
var Rows = []Fault{
	{Name: "kill", Snapshots: true, Damage: func(wal.Options) error { return nil }},
	// A crash mid-write: the last frame's final bytes never reached disk.
	{Name: "torn", Counted: wal.FaultTornTail, LostTail: true, Damage: func(opts wal.Options) error {
		return rewriteLog(opts, func(log []byte) []byte { return log[:len(log)-7] })
	}},
	// One flipped byte inside the last frame's body: its CRC fails.
	{Name: "garble", Counted: wal.FaultCRCMismatch, LostTail: true, Damage: func(opts wal.Options) error {
		return rewriteLog(opts, func(log []byte) []byte {
			log[len(log)-10] ^= 0x41
			return log
		})
	}},
	// The whole log appended to itself: every second copy of a frame
	// carries a generation recovery already holds.
	{Name: "duplicate", Counted: wal.FaultDupGeneration, PerFrame: true, Damage: func(opts wal.Options) error {
		return rewriteLog(opts, func(log []byte) []byte { return append(log, log...) })
	}},
	// The crash window inside Store.Snapshot: the snapshot file is durable,
	// the log it covers not yet truncated.
	{Name: "unrotated", Counted: wal.FaultDupGeneration, PerFrame: true, FromSnapshot: true, Damage: unrotate},
	// Not a snapshot, not a segment, not the log: ignored, whether it parses
	// (and names a snapshot that never existed) or not.
	{Name: "stray-manifest", Snapshots: true, Spill: true, FromSnapshot: true, Damage: func(opts wal.Options) error {
		return stray(opts, `{"schema":"retrodns/wal-manifest/v1","snapshot":"snap-99999999.bin","generation":99999999,"shards":3,"last_generation":99999999}`)
	}},
	{Name: "stray-garbage", Snapshots: true, Spill: true, FromSnapshot: true, Damage: func(opts wal.Options) error {
		return stray(opts, "not a manifest at all")
	}},
}

// Want is the wal.Recovery.Faults recovery must report for f's damage to a
// log that held frames frames: f's reason counted, nothing else.
func (f Fault) Want(frames int) map[string]int64 {
	want := map[string]int64{}
	switch {
	case f.Counted == "":
	case f.PerFrame:
		want[f.Counted] = int64(frames)
	default:
		want[f.Counted] = 1
	}
	return want
}

// Frames counts the whole frames at the head of dir's log: what a PerFrame
// row counts.
func Frames(dir string) (int, error) {
	log, err := os.ReadFile(filepath.Join(dir, wal.LogName))
	if err != nil {
		return 0, err
	}
	n := 0
	_, err = wal.Replay(log, func(uint64, simtime.Date, []*scanner.Record) error {
		n++
		return nil
	})
	if errors.Is(err, wal.ErrTornTail) {
		err = nil // a kill may tear the frame it interrupted; the rest count
	}
	return n, err
}

// rewriteLog replaces opts' log with edit's result. It refuses a log
// shorter than 16 bytes, which holds no frame to cut or flip a byte of.
func rewriteLog(opts wal.Options, edit func(log []byte) []byte) error {
	path := filepath.Join(opts.Dir, wal.LogName)
	log, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if len(log) < 16 {
		return fmt.Errorf("faults: %s holds %d bytes, too few to damage", path, len(log))
	}
	return os.WriteFile(path, edit(log), 0o644)
}

// unrotate snapshots the dir as Store.Snapshot does, then puts back the log
// the snapshot covers.
func unrotate(opts wal.Options) error {
	path := filepath.Join(opts.Dir, wal.LogName)
	log, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	store, _, err := wal.Open(opts)
	if err != nil {
		return err
	}
	if err := errors.Join(store.Snapshot(), store.Close()); err != nil {
		return err
	}
	return os.WriteFile(path, log, 0o644)
}

// stray leaves a manifest.json holding doc in the data dir and the spill dir.
func stray(opts wal.Options, doc string) error {
	dirs := []string{opts.Dir}
	if opts.Spill != nil {
		dirs = append(dirs, opts.Spill.Dir)
	}
	for _, d := range dirs {
		if err := os.WriteFile(filepath.Join(d, "manifest.json"), []byte(doc), 0o644); err != nil {
			return err
		}
	}
	return nil
}
