package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// resultSet is a recorded point of the performance ledger: runs of every
// workload on one commit, with the host they ran on.
type resultSet struct {
	Commit   string      `json:"commit"`
	Recorded string      `json:"recorded"`
	Seconds  float64     `json:"seconds"`
	Host     hostInfo    `json:"host"`
	Runs     []runRecord `json:"runs"`
	// SeedComparison compares the runs of seed 1 with those of seed 7.
	SeedComparison []compareRow `json:"seed_comparison,omitempty"`
}

type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
}

type runRecord struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Trace    int     `json:"trace"`
	WallS    float64 `json:"wall_s"`
	Result   result  `json:"result"`
	Detail   detail  `json:"detail"`
}

func currentHost() hostInfo {
	h := hostInfo{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), OS: runtime.GOOS, Arch: runtime.GOARCH}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(bytes.NewReader(data))
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// runChild runs one workload in a child process of this binary and parses
// its last two lines (detail, result).
func runChild(exe string, w string, seed uint64, secs float64, trace int) (runRecord, error) {
	rec := runRecord{Workload: w, Seed: seed, Trace: trace}
	cmd := exec.Command(exe, "-workload", w, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(secs, 'g', -1, 64), "-trace", strconv.Itoa(trace))
	cmd.Stderr = os.Stderr
	t0 := time.Now()
	out, err := cmd.Output()
	rec.WallS = time.Since(t0).Seconds()
	if err != nil {
		return rec, fmt.Errorf("%s seed %d: %w", w, seed, err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if len(lines) < 2 {
		return rec, fmt.Errorf("%s seed %d: want a detail and a result line, got %q", w, seed, out)
	}
	var det map[string]detail
	if err := json.Unmarshal([]byte(lines[len(lines)-2]), &det); err != nil {
		return rec, fmt.Errorf("%s seed %d: detail line: %w", w, seed, err)
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rec.Result); err != nil {
		return rec, fmt.Errorf("%s seed %d: result line: %w", w, seed, err)
	}
	rec.Detail = det["detail"]
	return rec, nil
}

// A result set holds runsPerSeed untraced runs of every workload for each
// of its two seeds, so that it carries a seed-to-seed comparison.
const runsPerSeed = 5

var seeds = [2]uint64{1, 7}

// recordSet runs every workload runsPerSeed times per seed (alternating
// the seeds) untraced, then once traced with the first seed, and writes
// the result set to path.
func recordSet(def benchmark, path, commit string, secs float64) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	set := resultSet{Commit: commit, Recorded: time.Now().UTC().Format(time.RFC3339), Seconds: secs, Host: currentHost()}
	add := func(w string, seed uint64, trace int) error {
		rec, err := runChild(exe, w, seed, secs, trace)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "popbench: %s seed %d trace %d: %.1f s, correct=%v\n", w, seed, trace, rec.WallS, rec.Result.Correct)
		set.Runs = append(set.Runs, rec)
		return nil
	}
	for _, w := range workloads {
		for range runsPerSeed {
			for _, s := range seeds {
				if err := add(w.name, s, 0); err != nil {
					return err
				}
			}
		}
		if err := add(w.name, seeds[0], 1); err != nil {
			return err
		}
	}
	bySeed := func(s uint64) []runRecord {
		var out []runRecord
		for _, r := range set.Runs {
			if r.Seed == s {
				out = append(out, r)
			}
		}
		return out
	}
	set.SeedComparison = compareRuns(def, bySeed(seeds[0]), bySeed(seeds[1]))
	data, err := json.MarshalIndent(set, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
