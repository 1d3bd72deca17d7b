package segment

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// The segment store: one directory of immutable seg-<shard>-<gen>.bin
// files. Each file is CRC-framed, written atomically, and names its own
// (shard, generation), so the directory is its own index: callers hold the
// name of every segment they sealed (a dataset snapshot records them) and
// open by name. Anything else in the directory — including a
// manifest.json left by an older build — is ignored.

const (
	segPrefix = "seg-"
	segSuffix = ".bin"
)

// Info describes one sealed segment.
type Info struct {
	Shard int
	Gen   uint64
	File  string
	Bytes int64
}

// Store owns one spill directory. Safe for concurrent use: it holds no
// mutable state, and every write is an atomic rename.
type Store struct {
	dir string
}

// SegName renders the canonical segment file name for (shard, gen).
func SegName(shard int, gen uint64) string {
	return fmt.Sprintf("%s%d-%08d%s", segPrefix, shard, gen, segSuffix)
}

// parseSegName inverts SegName.
func parseSegName(name string) (shard int, gen uint64, ok bool) {
	if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
		return 0, 0, false
	}
	mid := strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix)
	if _, err := fmt.Sscanf(mid, "%d-%d", &shard, &gen); err != nil || SegName(shard, gen) != name {
		return 0, 0, false
	}
	return shard, gen, true
}

// OpenStore opens (creating if needed) the segment directory.
func OpenStore(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("segment: store dir required")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store directory.
func (st *Store) Dir() string { return st.dir }

// Seal writes the writer's segment atomically (tmp, fsync, rename,
// directory fsync) and returns its Info. The entries go to disk straight
// from the writer's buffer (WriteFrame). Re-sealing the same (shard, gen)
// replaces the file — the bytes are a pure function of the shard state,
// so the replacement is idempotent.
func (st *Store) Seal(w *Writer) (Info, error) {
	parts, err := w.render()
	if err != nil {
		return Info{}, err
	}
	name := SegName(w.Shard(), w.Gen())
	n, err := WriteFrame(st.dir, name, fileMagic, parts[:]...)
	if err != nil {
		return Info{}, err
	}
	return Info{Shard: w.Shard(), Gen: w.Gen(), File: name, Bytes: n}, nil
}

// OpenSeg opens a sealed segment for reading and cross-checks the sealed
// identity against the file name — a renamed or cross-copied file is
// refused as ErrBadSegment.
func (st *Store) OpenSeg(info Info, mode Mode) (*Reader, error) {
	r, err := OpenFile(filepath.Join(st.dir, info.File), mode)
	if err != nil {
		return nil, err
	}
	if r.Shard() != info.Shard || r.Gen() != info.Gen {
		r.Close()
		return nil, fmt.Errorf("%w: %s holds shard %d gen %d", ErrBadSegment, info.File, r.Shard(), r.Gen())
	}
	return r, nil
}

// OpenName opens a segment by file name, as referenced from a dataset
// snapshot.
func (st *Store) OpenName(name string, mode Mode) (*Reader, error) {
	shard, gen, ok := parseSegName(name)
	if !ok {
		return nil, fmt.Errorf("%w: bad segment name %q", ErrBadSegment, name)
	}
	return st.OpenSeg(Info{Shard: shard, Gen: gen, File: name}, mode)
}
