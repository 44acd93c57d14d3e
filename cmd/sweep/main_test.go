package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestGolden pins whole command lines: each testdata/NAME.golden holds the
// command's stdout, then "--- stderr" and its stderr, then "--- exit N".
// The files were recorded before the flags moved to internal/cliflags
// (reject-gamma when -gamma joined them), so a diff means a command line
// changed its output.
func TestGolden(t *testing.T) {
	for _, c := range []struct {
		name string
		args []string
	}{
		{"phi-counts", []string{"-what", "phi", "-n", "2048", "-trials", "3", "-backend", "counts", "-workers", "1"}},
		{"reject-gamma", []string{"-what", "phi", "-n", "1000", "-trials", "1", "-gamma", "7", "-workers", "1"}},
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

// TestShortStoreEntryIsError pins that a store hit holding fewer results
// than the cell's trial count fails the run instead of tabulating a
// smaller batch: the entries of a filled store are cut to one result each,
// and the second run must reject them.
func TestShortStoreEntryIsError(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-what", "psi", "-n", "1024", "-trials", "2", "-backend", "counts", "-workers", "1", "-store", dir}
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("filling run: exit %d\n%s", code, stderr.String())
	}
	cut := 0
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || filepath.Ext(path) != ".json" {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var env map[string]json.RawMessage
		if err := json.Unmarshal(data, &env); err != nil {
			return err
		}
		var results []json.RawMessage
		if err := json.Unmarshal(env["results"], &results); err != nil {
			return err
		}
		if env["results"], err = json.Marshal(results[:1]); err != nil {
			return err
		}
		if data, err = json.Marshal(env); err != nil {
			return err
		}
		cut++
		return os.WriteFile(path, data, 0o644)
	})
	if err != nil || cut == 0 {
		t.Fatalf("cutting entries: %d cut, err %v", cut, err)
	}
	stdout.Reset()
	stderr.Reset()
	if code := run(args, &stdout, &stderr); code != 1 || !strings.Contains(stderr.String(), "holds 1 results for 2 trials") {
		t.Fatalf("short entries: exit %d, stderr:\n%s", code, stderr.String())
	}
}
