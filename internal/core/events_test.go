package core

import (
	"strings"
	"testing"

	"popelect/internal/rng"
	"popelect/internal/sim"
)

func hasEvent(m uint32, e Event) bool { return m&(1<<e) != 0 }

func TestEventsOfClassifiesRules(t *testing.T) {
	pr := testProto(t)
	cases := []struct {
		name string
		r, i State
		want Event
	}{
		{"split zero", mkZero(earlyPhase), mkZero(earlyPhase), EvSplitZero},
		{"split x", mkX(earlyPhase), mkX(earlyPhase), EvSplitX},
		{"deactivate", mkZero(35), mkCoin(0, 1, true), EvDeactivate},
		{"coin climb", mkCoin(earlyPhase, 1, false), mkCoin(earlyPhase, 2, true), EvCoinClimb},
		{"coin stop", mkCoin(earlyPhase, 2, false), mkCoin(earlyPhase, 1, true), EvCoinStop},
		{"inhib advance", mkInhib(latePhase, 0, false, false), mkCoin(latePhase, 0, true), EvInhibAdvance},
		{"inhib stop", mkInhib(latePhase, 1, false, false), mkD(latePhase), EvInhibStop},
		{"elevation", mkInhib(earlyPhase, 2, true, false), mkLeader(earlyPhase, ModeActive, FlipNone, false, 0, 2), EvElevation},
		{"round reset", mkLeader(35, ModeActive, FlipHeads, true, 8, 0), mkD(0), EvRoundReset},
		{"flip heads", mkLeader(earlyPhase, ModeActive, FlipNone, false, 8, 0), mkCoin(earlyPhase, 3, true), EvFlipHeads},
		{"flip tails", mkLeader(earlyPhase, ModeActive, FlipNone, false, 8, 0), mkD(earlyPhase), EvFlipTails},
		{"heads spread", mkLeader(latePhase, ModeActive, FlipNone, false, 8, 0), mkLeader(latePhase, ModePassive, FlipTails, true, 8, 0), EvHeadsSpread},
		{"passivated", mkLeader(latePhase, ModeActive, FlipTails, false, 8, 0), mkLeader(latePhase, ModeWithdrawn, FlipNone, true, 8, 0), EvPassivated},
		{"drag tick", mkLeader(earlyPhase, ModeActive, FlipHeads, true, 0, 1), mkInhib(earlyPhase, 1, true, true), EvDragTick},
		{"rule 9", mkLeader(earlyPhase, ModePassive, FlipNone, false, 0, 1), mkLeader(earlyPhase, ModeWithdrawn, FlipNone, false, 0, 3), EvRule9},
		{"rule 11", mkLeader(earlyPhase, ModePassive, FlipNone, false, 5, 0), mkLeader(earlyPhase, ModeActive, FlipNone, false, 5, 0), EvRule11},
	}
	for _, c := range cases {
		nr, ni := pr.Delta(c.r, c.i)
		m := EventsOf(c.r, c.i, nr, ni)
		if !hasEvent(m, c.want) {
			t.Errorf("%s: events %b missing %v (states %v + %v → %v + %v)",
				c.name, m, c.want, c.r, c.i, nr, ni)
		}
	}
}

func TestEventsOfInitiatorRule11(t *testing.T) {
	pr := testProto(t)
	senior := mkLeader(earlyPhase, ModeActive, FlipNone, false, 5, 0)
	junior := mkLeader(earlyPhase, ModePassive, FlipNone, false, 5, 0)
	nr, ni := pr.Delta(senior, junior)
	m := EventsOf(senior, junior, nr, ni)
	if !hasEvent(m, EvRule11) {
		t.Fatal("initiator-side rule 11 loss not classified")
	}
}

func TestEventsOfNullInteraction(t *testing.T) {
	pr := testProto(t)
	a := mkD(earlyPhase)
	b := mkD(earlyPhase)
	nr, ni := pr.Delta(a, b)
	if m := EventsOf(a, b, nr, ni); m != 0 {
		t.Fatalf("null interaction classified as %b", m)
	}
}

func TestEventNames(t *testing.T) {
	for e := Event(0); e < NumEvents; e++ {
		if e.String() == "" || strings.HasPrefix(e.String(), "Event(") {
			t.Errorf("event %d has no name", e)
		}
	}
	if Event(200).String() == "" {
		t.Error("out-of-range events must still render")
	}
}

// TestRuleStatsFullRun accumulates statistics over a complete election and
// sanity-checks the rule mix.
func TestRuleStatsFullRun(t *testing.T) {
	pr := MustNew(DefaultParams(2048))
	r := sim.NewRunner(pr.Words(), rng.New(3))
	var stats RuleStats
	r.AddHook(func(step uint64, ri, ii int, oldR, oldI, newR, newI uint32) {
		stats.Record(State(oldR), State(oldI), State(newR), State(newI))
	})
	res := r.Run()
	if !res.Converged {
		t.Fatalf("%+v", res)
	}
	if stats.Total() == 0 {
		t.Fatal("no rule firings recorded")
	}
	// Every split creates exactly one leader candidate; leaders ≈ n/2.
	splits := stats.Counts[EvSplitZero]
	if splits < 400 || splits > 1024 {
		t.Fatalf("rule (1) 0+0 fired %d times, want ≈ 1024", splits)
	}
	// Coins and inhibitors come in pairs from the second split.
	if stats.Counts[EvSplitX] == 0 {
		t.Fatal("rule (1) X+X never fired")
	}
	// All but one candidate must have been withdrawn by rules 9/6→…/11.
	withdrawn := stats.Counts[EvRule9] + stats.Counts[EvRule11]
	if withdrawn != splits-1 {
		t.Fatalf("withdrawals %d, want splits-1 = %d", withdrawn, splits-1)
	}
	// Flips happen every round for every active candidate.
	if stats.Counts[EvFlipHeads]+stats.Counts[EvFlipTails] == 0 {
		t.Fatal("no coin flips recorded")
	}
	var sb strings.Builder
	if _, err := stats.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "rule(11)") {
		t.Fatalf("rendering missing rules:\n%s", sb.String())
	}
}
