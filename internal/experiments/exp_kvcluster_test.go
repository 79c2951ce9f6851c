package experiments

import "testing"

// The issue's acceptance criterion: at at least one offered-load point,
// BFS shards sustain higher goodput than EXT4 at the same p99 SLO, on the
// deterministic simulated sweep.
func TestKVClusterBarrierGoodputWins(t *testing.T) {
	res := KVCluster(Quick)
	t.Log("\n" + textOf(t, "kvcluster", rows(res.Rows, res.SLOms)))
	byCell := func(config string, kops int) (KVClusterRow, bool) {
		for _, r := range res.Rows {
			if r.Config == config && r.OfferedKops == kops {
				return r, true
			}
		}
		return KVClusterRow{}, false
	}
	wins := 0
	for _, r := range res.Rows {
		if r.Config != "BFS-DR" {
			continue
		}
		ext4, ok := byCell("EXT4-DR", r.OfferedKops)
		if !ok {
			t.Fatalf("missing EXT4-DR cell at %dk", r.OfferedKops)
		}
		if r.GoodputPerS > ext4.GoodputPerS {
			wins++
		}
	}
	if wins == 0 {
		t.Fatal("BFS-DR never beat EXT4-DR goodput at equal p99 SLO")
	}
	// Every cell must have seen measured traffic and report a latency tail.
	for _, r := range res.Rows {
		if r.OfferedPerS == 0 {
			t.Errorf("cell %s/%dk offered nothing", r.Config, r.OfferedKops)
		}
		if r.GoodputPerS > 0 && r.P99 <= 0 {
			t.Errorf("cell %s/%dk has goodput but no p99", r.Config, r.OfferedKops)
		}
	}
}
