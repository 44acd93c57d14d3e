package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// elapsed matches the wall-clock line after each experiment, the one part
// of the output that differs between runs.
var elapsed = regexp.MustCompile(`(?m)^\((\S+) finished in .*\)$`)

// TestGolden pins whole command lines: each testdata/NAME.golden holds the
// command's stdout (elapsed-time lines masked), then "--- stderr" and its
// stderr, then "--- exit N". The files were recorded before the flags
// moved to internal/cliflags, so a diff means a command line changed its
// output.
func TestGolden(t *testing.T) {
	for _, c := range []struct {
		name string
		args []string
	}{
		{"table1-thm82", []string{"-exp", "table1,thm82", "-smoke", "-workers", "1"}},
		{"reject-batch", []string{"-exp", "thm82", "-smoke", "-batch", "bogus", "-workers", "1"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run(c.args, &stdout, &stderr)
			out := elapsed.ReplaceAllString(stdout.String(), "($1 finished in …)")
			got := fmt.Sprintf("%s--- stderr\n%s--- exit %d\n", out, stderr.String(), code)
			want, err := os.ReadFile(filepath.Join("testdata", c.name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("paperbench %v:\ngot:\n%s\nwant:\n%s", c.args, got, want)
			}
		})
	}
}
