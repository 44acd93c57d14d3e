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
// The files were recorded before the flags moved to internal/cliflags
// (reject-gamma when -gamma joined them; verbose, the only line that reads
// typed GSU19 states through a hook and an observer, before the engines
// dropped their state type parameter; scenario, the three perturbation
// flags together, before the perturbation interface became one value), so
// a diff means a command line changed its output. Every list fixes
// -workers, which fixes the engines' randomness consumption.
func TestGolden(t *testing.T) {
	for _, c := range []struct {
		name string
		long bool // skipped under -short
		args []string
	}{
		{"dense", false, []string{"-trials", "2", "-seed", "42", "-workers", "1"}},
		{"corrupt", true, []string{"-n", "16384", "-alg", "gs18", "-corrupt", "128@229376", "-probe-interval", "65536", "-seed", "3", "-workers", "1"}},
		{"bias", false, []string{"-n", "4096", "-alg", "gs18", "-bias", "0=2,1=0.5", "-seed", "5", "-workers", "1"}},
		{"scenario", false, []string{"-n", "4096", "-alg", "gs18", "-churn", "1e-4@40960", "-corrupt", "16@20480", "-bias", "0=2,1=0.5", "-seed", "5", "-workers", "1"}},
		{"reject-gamma", false, []string{"-n", "1000", "-gamma", "7", "-workers", "1"}},
		{"verbose", false, []string{"-n", "4096", "-alg", "gsu19", "-seed", "5", "-v", "-workers", "1"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			if c.long && testing.Short() {
				t.Skip("long election; skipped in -short mode")
			}
			var stdout, stderr bytes.Buffer
			code := run(c.args, &stdout, &stderr)
			got := fmt.Sprintf("%s--- stderr\n%s--- exit %d\n", stdout.String(), stderr.String(), code)
			want, err := os.ReadFile(filepath.Join("testdata", c.name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("leaderelect %v:\ngot:\n%s\nwant:\n%s", c.args, got, want)
			}
		})
	}
}
