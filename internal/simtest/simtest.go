// Package simtest holds small test helpers shared by the packages that
// drive the simulation engine. (internal/sim's own in-package tests keep
// a local copy — importing this package from there would be a cycle.)
package simtest

import (
	"testing"

	"popelect/internal/sim"
)

// MustTrials returns an unwrapper for sim.RunTrials results in tests that
// use a known-good configuration:
//
//	rs := simtest.MustTrials(t)(sim.RunTrials(factory, cfg))
func MustTrials(t testing.TB) func([]sim.Result, error) []sim.Result {
	return func(rs []sim.Result, err error) []sim.Result {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return rs
	}
}
