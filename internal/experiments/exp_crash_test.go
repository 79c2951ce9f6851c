package experiments

import (
	"reflect"
	"strings"
	"testing"
)

func TestCrashMCShape(t *testing.T) {
	skipIfShort(t)
	res := Crash(Quick)
	perWorkload := make(map[string]int)
	for _, row := range res.Rows {
		perWorkload[row.Workload]++
		where := row.Workload + "/" + row.Config
		if row.States < 1 {
			t.Errorf("%s@%dus: no states explored", where, row.CrashAtUs)
		}
		if row.Consistency != 0 {
			t.Errorf("%s@%dus: %d metadata-consistency violations (journal atomicity broken)",
				where, row.CrashAtUs, row.Consistency)
		}
		// The protected stacks must model-check clean in every admissible
		// state; the nobarrier control must expose reachable ordering
		// violations at every instant, exhaustively (no cap).
		if row.Config == "EXT4-nobarrier" {
			if row.Ordering == 0 || row.Capped {
				t.Errorf("%s@%dus: %d ordering violations (capped %v); the legacy control must violate, exhaustively",
					where, row.CrashAtUs, row.Ordering, row.Capped)
			}
		} else if row.Durability+row.Ordering != 0 {
			t.Errorf("%s@%dus: %d durability / %d ordering violations on a protected stack",
				where, row.CrashAtUs, row.Durability, row.Ordering)
		}
	}
	if want := map[string]int{"ordering": 5 * 2, "durability": 5 * 6, "kv": 4 * 6}; !reflect.DeepEqual(perWorkload, want) {
		t.Errorf("cells per workload = %v, want %v", perWorkload, want)
	}
	if !strings.Contains(textOf(t, "crash", rows(res.Rows)), "Crash-state model checking") {
		t.Error("render broken")
	}
}
