package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// TestGolden pins whole command lines: each testdata/NAME.golden holds the
// command's stdout, then "--- stderr" and its stderr, then "--- exit N".
// The files were recorded before the flags moved to internal/cliflags, so
// a diff means a command line changed its output. shards-dense pins that
// -shards with the default dense backend is a run error here, while
// leaderelect lets sharding override the backend.
func TestGolden(t *testing.T) {
	for _, c := range []struct {
		name string
		args []string
	}{
		{"phi-counts", []string{"-what", "phi", "-n", "2048", "-trials", "3", "-backend", "counts", "-workers", "1"}},
		{"reject-migration", []string{"-what", "phi", "-n", "2048", "-migration", "0.5", "-workers", "1"}},
		{"shards-dense", []string{"-what", "phi", "-n", "2048", "-trials", "1", "-shards", "4", "-workers", "1"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run(c.args, &stdout, &stderr)
			got := fmt.Sprintf("%s--- stderr\n%s--- exit %d\n", stdout.String(), stderr.String(), code)
			want, err := os.ReadFile(filepath.Join("testdata", c.name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("sweep %v:\ngot:\n%s\nwant:\n%s", c.args, got, want)
			}
		})
	}
}
