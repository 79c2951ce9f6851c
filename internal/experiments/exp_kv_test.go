package experiments

import (
	"strings"
	"testing"
)

func TestKVShape(t *testing.T) {
	skipIfShort(t)
	res := KV(Quick)
	get := func(cfg string, clients int) KVRow {
		for _, r := range res.Rows {
			if r.Config == cfg && r.Clients == clients {
				return r
			}
		}
		t.Fatalf("missing %s/%d", cfg, clients)
		return KVRow{}
	}
	// The acceptance shape: barrier group commit beats transfer-and-flush
	// group commit under concurrency, on both block layers.
	if b, e := get("BFS-DR", 8), get("EXT4-DR", 8); b.OpsPerS <= e.OpsPerS {
		t.Errorf("8 clients: BFS-DR (%.0f ops/s) not above EXT4-DR (%.0f)", b.OpsPerS, e.OpsPerS)
	}
	if b, e := get("BFS-MQ", 8), get("EXT4-MQ", 8); b.OpsPerS <= e.OpsPerS {
		t.Errorf("8 clients: BFS-MQ (%.0f ops/s) not above EXT4-MQ (%.0f)", b.OpsPerS, e.OpsPerS)
	}
	// Group commit amortizes: more clients, bigger groups on the flush
	// engine (the leader drains a longer queue per sync).
	if g8, g2 := get("EXT4-DR", 8), get("EXT4-DR", 2); g8.GroupMean <= g2.GroupMean {
		t.Errorf("EXT4-DR group size did not grow with clients: %0.1f vs %0.1f",
			g8.GroupMean, g2.GroupMean)
	}
	// Latency percentiles are populated and monotone.
	for _, r := range res.Rows {
		if r.P50 <= 0 || r.P50 > r.P99 || r.P99 > r.P999 {
			t.Errorf("%s/%d: bad latency summary p50=%.3f p99=%.3f p99.9=%.3f",
				r.Config, r.Clients, r.P50, r.P99, r.P999)
		}
	}
	if !strings.Contains(textOf(t, "kv", rows(res.Rows)), "KV") {
		t.Error("render broken")
	}
}
