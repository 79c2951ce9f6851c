package experiments

import (
	"strings"
	"testing"
)

func TestMQScalingShape(t *testing.T) {
	skipIfShort(t)
	res := MQScaling(Quick)
	if len(res.Rows) != 8 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for i := 0; i < len(res.Rows); i += 2 {
		single, mq := res.Rows[i], res.Rows[i+1]
		if single.Config != "single-queue" || mq.Config != "blkmq" || single.Streams != mq.Streams {
			t.Fatalf("row pair %d mismatched: %+v / %+v", i, single, mq)
		}
		if mq.EpochsClosed == 0 || single.EpochsClosed == 0 {
			t.Errorf("streams=%d: no epochs closed (%d, %d)", single.Streams,
				single.EpochsClosed, mq.EpochsClosed)
		}
		if single.Streams == 1 {
			// One stream: per-stream epochs degrade to the global order.
			if mq.IOPS < single.IOPS*0.9 || mq.IOPS > single.IOPS*1.1 {
				t.Errorf("1 stream: blkmq %.0f vs single %.0f, want parity", mq.IOPS, single.IOPS)
			}
			continue
		}
		// Independent streams must beat the global total order measurably.
		if mq.IOPS < single.IOPS*1.2 {
			t.Errorf("streams=%d: blkmq %.0f IOPS not above single-queue %.0f",
				single.Streams, mq.IOPS, single.IOPS)
		}
	}
	// FS level: the MQ stacks must isolate foreground syncs from background
	// writeback on both journaling engines.
	get := func(name string) float64 {
		for _, r := range res.FS {
			if r.Config == name {
				return r.OpsPerS
			}
		}
		t.Fatalf("missing FS row %s", name)
		return 0
	}
	if get("EXT4-MQ") < get("EXT4-DR")*1.5 {
		t.Errorf("EXT4-MQ (%.0f) not above EXT4-DR (%.0f) under background load",
			get("EXT4-MQ"), get("EXT4-DR"))
	}
	if get("BFS-MQ") < get("BFS-DR")*1.5 {
		t.Errorf("BFS-MQ (%.0f) not above BFS-DR (%.0f) under background load",
			get("BFS-MQ"), get("BFS-DR"))
	}
	if !strings.Contains(textOf(t, "mq", Outcome{Rows: []any{res.Rows, res.FS}}), "blkmq") {
		t.Error("render broken")
	}
}
