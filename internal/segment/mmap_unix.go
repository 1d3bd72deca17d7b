//go:build unix

package segment

import (
	"errors"
	"os"
	"syscall"
)

// errMmapUnsupported never escapes on unix; the stub build returns it so
// ModeAuto falls back to streaming reads.
var errMmapUnsupported = errors.New("segment: mmap unsupported")

// openMmap maps the whole segment file read-only and indexes it. Entry
// reads are then zero-copy subslices of file-backed pages, which the OS
// may evict under memory pressure — the property that makes mmap the
// preferred mode for a corpus larger than RAM.
func openMmap(path string) (*Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if st.Size() == 0 {
		f.Close()
		return nil, ErrBadFrame
	}
	mm, err := syscall.Mmap(int(f.Fd()), 0, int(st.Size()), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		f.Close()
		return nil, err
	}
	return newReader(mm, f, mm)
}

func munmap(b []byte) error { return syscall.Munmap(b) }
