//go:build unix

package wal

import (
	"os"
	"syscall"
)

// mmapSupported selects the mapped append path: segment writes are plain
// stores into a shared file mapping, so a SIGKILL loses nothing the writer
// finished (the dirty pages belong to the page cache, not the process). The
// only syscall while a segment fills is releaseMapped's madvise, once per
// releaseBytes of log, and only on Linux.
const mmapSupported = true

// mapFile maps size bytes of f readable and writable, shared.
func mapFile(f *os.File, size int64) ([]byte, error) {
	return syscall.Mmap(int(f.Fd()), 0, int(size),
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
}

// unmapFile releases a mapFile mapping.
func unmapFile(data []byte) error { return syscall.Munmap(data) }
