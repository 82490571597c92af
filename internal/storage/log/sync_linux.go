//go:build linux

package log

import (
	"os"
	"syscall"
)

// fdatasync flushes a file's data (not its metadata) to stable storage. On
// Linux this is fdatasync(2): segment appends only grow the file, so syncing
// the length update alongside the data is all the WAL needs, and skipping
// the mtime/atime inode flush saves a journal commit per sync.
func fdatasync(f *os.File) error {
	return syscall.Fdatasync(int(f.Fd()))
}

// syncDir fsyncs a directory, making the entries created, renamed or
// removed in it durable: a new segment file or a committed rename is not on
// disk until its directory is.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
