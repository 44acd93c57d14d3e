// Package atomicfile writes files atomically, so readers — and runs that
// resume from a file — never observe a partially written one.
package atomicfile

import (
	"io"
	"os"
	"path/filepath"
)

// Write writes path atomically: write runs against a temp file in path's
// directory (created as needed), which is renamed over path only after
// write and the close succeed. On any failure the temp file is removed and
// the previous file at path, if any, is left intact.
func Write(path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		os.Remove(f.Name())
	}
	return err
}
