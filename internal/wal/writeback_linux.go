//go:build linux && !arm

package wal

import "syscall"

// syncFileRangeWrite is SYNC_FILE_RANGE_WRITE: start writeback of the
// range's dirty pages without waiting for it.
const syncFileRangeWrite = 0x2

// startWriteback asks the kernel to start writing [off, off+n) of f to
// disk now instead of when its dirty-page timers fire, so the fsync
// that later makes the range durable waits for little. It is advice:
// an error is dropped, because the fsync remains the durability point
// and reports any I/O failure. Files that are not OS files (no Fd) are
// left alone.
func startWriteback(f File, off, n int64) {
	if osf, ok := f.(interface{ Fd() uintptr }); ok {
		_ = syscall.SyncFileRange(int(osf.Fd()), off, n, syncFileRangeWrite)
	}
}
