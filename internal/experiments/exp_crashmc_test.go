package experiments

import (
	"strings"
	"testing"
)

func TestCrashMCShape(t *testing.T) {
	skipIfShort(t)
	res := CrashMC(Quick)
	if len(res.Rows) != 5*2 {
		t.Fatalf("rows = %d, want 5 profiles x 2 crash instants", len(res.Rows))
	}
	perConfig := make(map[string][]CrashMCRow)
	for _, row := range res.Rows {
		perConfig[row.Config] = append(perConfig[row.Config], row)
		if row.States < 1 {
			t.Errorf("%s@%dus: no states explored", row.Config, row.CrashAtUs)
		}
		if row.Consistency != 0 {
			t.Errorf("%s@%dus: %d metadata-consistency violations (journal atomicity broken)",
				row.Config, row.CrashAtUs, row.Consistency)
		}
	}
	// The protected stacks must model-check clean in every admissible
	// state; the nobarrier control must expose reachable ordering
	// violations at at least one instant, exhaustively (no cap).
	for _, cfg := range []string{"EXT4-DR", "BFS-DR", "EXT4-MQ", "BFS-MQ"} {
		for _, row := range perConfig[cfg] {
			if row.Durability+row.Ordering != 0 {
				t.Errorf("%s@%dus: %d durability / %d ordering violations on a protected stack",
					cfg, row.CrashAtUs, row.Durability, row.Ordering)
			}
		}
	}
	ordering := 0
	for _, row := range perConfig["EXT4-nobarrier"] {
		ordering += row.Ordering
		if row.Capped {
			t.Errorf("EXT4-nobarrier@%dus: bounded workload should enumerate exhaustively", row.CrashAtUs)
		}
	}
	if ordering == 0 {
		t.Error("EXT4-nobarrier never exposed an ordering violation across the sweep")
	}
	if !strings.Contains(textOf(t, "crashmc", rows(res.Rows)), "Crash-state model checking") {
		t.Error("render broken")
	}
}
