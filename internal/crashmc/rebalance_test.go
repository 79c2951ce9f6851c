package crashmc

import (
	"testing"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/kvcluster"
)

// The issue's acceptance criterion: crashing a source or the destination
// shard in any enumerated admissible crash state inside any migration
// phase must recover with zero acked-write loss, no key readable from
// neither owner, and ring-consistent placement — on both barrier engines.
func TestRebalanceScenarioBarrierEnginesClean(t *testing.T) {
	if testing.Short() {
		t.Skip("rebalance model checking in -short mode")
	}
	cfg := Config{
		MaxStates: 2000,
		Samples:   64,
		Log:       func(f string, a ...any) { t.Logf(f, a...) },
	}
	for _, prof := range []func(device.Config) core.Profile{
		core.BFSDR, core.BFSMQ,
	} {
		res := rebalanceScenario(prof, 3, cfg)
		t.Log(res.String())
		if len(res.Points) != 2*len(RebalancePhases) {
			t.Fatalf("%s: expected %d crash points, got %d",
				res.Profile, 2*len(RebalancePhases), len(res.Points))
		}
		if !res.Ok() {
			for _, pt := range res.Points {
				for _, v := range pt.Violations {
					t.Errorf("%s phase=%v victim=%d [%s/%s] %s %s",
						res.Profile, pt.Phase, pt.Victim, v.Checker, v.Kind, v.State, v.Detail)
				}
			}
			t.Fatalf("%s rebalance: violations in admissible crash states", res.Profile)
		}
		if res.StatesExplored == 0 {
			t.Fatalf("%s rebalance: no states explored", res.Profile)
		}
		for _, pt := range res.Points {
			if pt.Phase == kvcluster.MigCatchUp && pt.Victim == 3 && pt.Volatile == 0 {
				t.Errorf("%s: destination crash in CatchUp captured no volatile writes — "+
					"the scenario is not exercising the dual-write window", res.Profile)
			}
		}
	}
}

// The coverage audit must actually bite: auditing with a fabricated acked
// key that no store holds must flag it in every image.
func TestRebalanceCheckerFlagsUncoveredKeys(t *testing.T) {
	if testing.Short() {
		t.Skip("rebalance model checking in -short mode")
	}
	cfg := Config{CrashAt: rebalanceDeadline, MaxStates: 500, Samples: 16,
		Log: func(f string, a ...any) { t.Logf(f, a...) }}
	res := Enumerate(rebalancePoint(core.BFSDR, 3, kvcluster.MigCatchUp, 3, "phantom-key"), cfg)
	if res.Durability == 0 {
		t.Fatal("fabricated uncovered acked key produced no durability violations")
	}
}
