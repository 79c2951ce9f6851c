package crashmc

import (
	"testing"

	"repro/internal/core"
	"repro/internal/device"
)

// The issue's acceptance criterion: killing M of N shards in any
// enumerated admissible crash state must recover with zero durability and
// zero prefix-ordering violations on the barrier engines.
func TestClusterScenarioBarrierEnginesClean(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster model checking in -short mode")
	}
	small := func(p core.Profile) core.Profile { return CompactJournal(p, 512) }
	cfg := Config{
		CrashAt:   at(20000),
		MaxStates: 2000,
		Samples:   64,
		Log:       func(f string, a ...any) { t.Logf(f, a...) },
	}
	for _, prof := range []core.Profile{
		small(core.BFSDR(device.PlainSSD())),
		small(core.BFSMQ(device.PlainSSD())),
	} {
		res := clusterScenario(prof, 3, 2, cfg)
		t.Log(res.String())
		if res.Killed != 2 || len(res.PerShard) != 2 {
			t.Fatalf("%s: expected 2 killed shards, got %+v", prof.Name, res)
		}
		if !res.Ok() {
			for _, shard := range res.PerShard {
				for _, v := range shard.Violations {
					t.Errorf("%s [%s/%s] %s %s", prof.Name, v.Checker, v.Kind, v.State, v.Detail)
				}
			}
			t.Fatalf("%s cluster: violations in admissible crash states", prof.Name)
		}
		if res.StatesExplored == 0 {
			t.Fatalf("%s cluster: no states explored", prof.Name)
		}
	}
}

// The routing audit must actually bite: auditing a shard's recovered image
// against the wrong ring position must flag every recovered key as
// misrouted.
func TestClusterCheckerFlagsMisroutedKeys(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster model checking in -short mode")
	}
	prof := CompactJournal(core.BFSDR(device.PlainSSD()), 512)
	cfg := Config{CrashAt: at(20000), MaxStates: 200, Samples: 16}
	ring, parts := clusterTraffic(3)
	// Replay shard 0's slice but audit it as if it were shard 1: every
	// durable key now "routes elsewhere".
	res := Enumerate(OnStack(prof, clusterShard(ring, 1, parts[0])), cfg)
	if res.Consistency == 0 {
		t.Fatal("expected misrouting consistency violations, got none")
	}
}
