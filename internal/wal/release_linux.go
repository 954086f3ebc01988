//go:build linux

package wal

import "syscall"

// releaseMapped drops data's page-table entries with MADV_DONTNEED. On a
// shared file mapping the pages themselves stay in the page cache, dirty
// until written back, so nothing appended is lost and a later read of the
// range faults the same bytes back in; only the process's resident set
// shrinks. data must start on a page boundary.
func releaseMapped(data []byte) error {
	return syscall.Madvise(data, syscall.MADV_DONTNEED)
}
