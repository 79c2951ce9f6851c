package crashmc

import (
	"testing"

	"repro/internal/core"
	"repro/internal/device"
)

// TestQuantifiersAgree runs every workload declared in this package through
// Enumerate at the same crash instant on two stacks. The one state the
// simulator produced is the enumeration's empty cut, so the sampled and the
// exhaustive answers cannot disagree by construction; what is left to
// assert is the contrast: every admissible state is clean on the barrier
// stack, and on a nobarrier mount over a legacy device the enumeration
// finds the loss.
func TestQuantifiersAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("kv model checking in -short mode")
	}
	for _, c := range []struct {
		name  string
		us    int
		parts []Part
	}{
		{"durability", 2500, []Part{Durability}},
		{"ordering", 2500, []Part{Ordering(0)}},
		{"kv", 20000, []Part{KV(2)}},
		{"ordering+sparse", 4000, []Part{Ordering(0), sparseWriter(nil)}},
	} {
		safe := Enumerate(OnStack(CompactJournal(core.BFSDR(device.PlainSSD()), 512), c.parts...), budget(t, at(c.us)))
		t.Logf("%s: %v", c.name, safe)
		requireClean(t, safe)
		unsafe := Enumerate(OnStack(CompactJournal(core.EXT4OD(device.LegacySSD()), 512), c.parts...), budget(t, at(c.us)))
		t.Logf("%s: %v", c.name, unsafe)
		if unsafe.Ok() {
			t.Errorf("%s: no admissible state of the unsafe stack violates anything: %v", c.name, unsafe)
		}
	}
}
