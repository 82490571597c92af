//go:build !linux

package log

import "os"

// fdatasync falls back to a full fsync on platforms without fdatasync(2).
func fdatasync(f *os.File) error {
	return f.Sync()
}

// syncDir is a no-op where directories cannot be opened for fsync portably.
func syncDir(string) error { return nil }
