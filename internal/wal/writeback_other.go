//go:build !linux || arm

package wal

// startWriteback is a no-op where the syscall package has no
// sync_file_range(2): outside linux, and on 32-bit arm, where the call
// has another name and argument order. The fsync then writes the whole
// range itself.
func startWriteback(File, int64, int64) {}
