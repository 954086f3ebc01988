//go:build !linux

package wal

// releaseMapped is a no-op off Linux: the standard library has no madvise
// there, so a segment's written pages stay mapped until seal unmaps them.
func releaseMapped(data []byte) error { return nil }
