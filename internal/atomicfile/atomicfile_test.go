package atomicfile

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

func writeString(s string) func(io.Writer) error {
	return func(w io.Writer) error {
		_, err := io.WriteString(w, s)
		return err
	}
}

// TestWriteReplaces checks that a successful write creates missing parent
// directories, replaces an existing file, and leaves only that file.
func TestWriteReplaces(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sub", "out.txt")
	for _, want := range []string{"first", "second"} {
		if err := Write(path, writeString(want)); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil || string(got) != want {
			t.Fatalf("after writing %q: read %q, %v", want, got, err)
		}
	}
	onlyFile(t, filepath.Dir(path), "out.txt")
}

// TestWriteFailureKeepsOldFile checks the atomicity contract: a writer
// that fails midway leaves the previous file intact and no temp file
// behind, and its error is returned.
func TestWriteFailureKeepsOldFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.txt")
	if err := Write(path, writeString("old")); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	err := Write(path, func(w io.Writer) error {
		if _, err := io.WriteString(w, "partial new content"); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Write returned %v, want the writer's error", err)
	}
	got, err := os.ReadFile(path)
	if err != nil || string(got) != "old" {
		t.Fatalf("old file after a failed write: %q, %v", got, err)
	}
	onlyFile(t, dir, "out.txt")
}

// onlyFile fails unless dir holds exactly the one entry name.
func onlyFile(t *testing.T, dir, name string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != name {
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Fatalf("directory holds %v, want only %s", names, name)
	}
}
