package crashmc

import (
	"testing"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/sim"
)

// PLP-failure model checking: the supercap dies mid-drain, so the cache
// persists only a transfer-order prefix. CaptureConstraints expresses that
// as a single chain over all streams — the admissible crash states are
// exactly the prefixes, nothing else — and the model checker audits every
// one of them.

func TestPLPPartialDrainConstraintIsChain(t *testing.T) {
	dev := plpFailureDevice(device.SupercapSSD(), 11)
	// Lazy writeback keeps the workload's writes cache-resident, so the
	// captured chain is non-trivial.
	dev.EagerWriteback = false
	k := sim.NewKernel()
	defer k.Close()
	s := core.NewStack(k, smallJournal(core.BFSDR(dev)))
	Ordering(0)(k, s)
	k.RunUntil(at(2500))
	cons := s.Dev.CaptureConstraints()
	if !cons.PLPPartial || cons.PLP {
		t.Fatalf("want PLPPartial constraint, got PLP=%v PLPPartial=%v", cons.PLP, cons.PLPPartial)
	}
	if len(cons.Writes) == 0 {
		t.Fatal("no volatile writes captured at the crash instant")
	}
	if len(cons.Preds[0]) != 0 {
		t.Fatalf("chain head has predecessors: %v", cons.Preds[0])
	}
	for i := 1; i < len(cons.Writes); i++ {
		if cons.Writes[i].Seq <= cons.Writes[i-1].Seq {
			t.Fatalf("writes not in transfer order at %d", i)
		}
		if len(cons.Preds[i]) != 1 || cons.Preds[i][0] != i-1 {
			t.Fatalf("Preds[%d] = %v, want [%d]: partial drain must be a chain", i, cons.Preds[i], i-1)
		}
	}
}

func TestPLPPartialDrainProtectedStacksClean(t *testing.T) {
	// The protected stacks drain the cache eagerly and in transfer order,
	// so once the drain window passes every acknowledged write has left the
	// cache: no drain prefix — however short — can lose acked data or break
	// ordering. Dozens of writes are still volatile (the recent tail), so
	// the clean verdict covers a real state space, not an empty one.
	for _, mk := range []func(device.Config) core.Profile{core.BFSDR, core.EXT4DR} {
		res := orderingAt(t, mk(plpFailureDevice(device.SupercapSSD(), 11)), 2500, 0)
		requireClean(t, res)
		if res.StatesExplored < 2 {
			t.Fatalf("%s: trivial state space: %s", res.Profile, res.String())
		}
	}
	// Even inside the drain window — acked pages still programming when the
	// supercap dies — the barrier stack's *ordering* contract survives every
	// prefix: the drain follows transfer order, and the stack transfers in
	// issue order. Only PLP-backed durability is exposed.
	early := orderingAt(t, core.BFSDR(plpFailureDevice(device.SupercapSSD(), 11)), 300, 0)
	if early.Ordering != 0 || early.Consistency != 0 {
		t.Fatalf("BFS-DR mid-drain: ordering/consistency must survive every prefix: %s", early.String())
	}
}

func TestPLPPartialDrainNobarrierLosesAckedData(t *testing.T) {
	// A nobarrier mount on a lazy-batching supercap device trusts PLP for
	// everything: fsync acknowledges at transfer, so when the supercap dies
	// while the acknowledged preallocation is still cache-resident, short
	// drain prefixes lose acked data — the audit must surface durability
	// violations (and, prefix drains being ordered, nothing else).
	dev := plpFailureDevice(device.SupercapSSD(), 11)
	dev.Name = "supercap-lazy"
	dev.EagerWriteback = false
	res := orderingAt(t, core.EXT4OD(dev), 300, 6)
	if res.Durability == 0 {
		t.Fatalf("dying supercap on a nobarrier stack hid acked-data loss: %s", res.String())
	}
	if res.Ordering != 0 {
		t.Fatalf("prefix drains are ordered; unexpected ordering violations: %s", res.String())
	}
}
