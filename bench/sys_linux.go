// Peak RSS and the workdir's filesystem are read the Linux way (Maxrss in
// KB, statfs magic); the benchmark runs on Linux only.
package main

import (
	"fmt"
	"os"
	"syscall"
)

// processUsage reads a finished child's peak RSS (MB) and CPU seconds.
func processUsage(ps *os.ProcessState) (maxRSSMB, userS, sysS float64) {
	ru, ok := ps.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0, 0, 0
	}
	return float64(ru.Maxrss) / 1024, tvSeconds(ru.Utime), tvSeconds(ru.Stime)
}

func tvSeconds(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }

// filesystemOf names the filesystem under path by its statfs magic: the
// follow loop fsyncs per append, so where the workdir lives is part of the
// result.
func filesystemOf(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		if err = syscall.Statfs(".", &st); err != nil {
			return "unknown"
		}
	}
	names := map[int64]string{
		0xef53: "ext4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs",
		0x58465342: "xfs", 0x9123683e: "btrfs", 0x6969: "nfs", 0x2fc12fc1: "zfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}
