package device

// Persistence-constraint recorder: the capture half of the crash-state
// model checker (internal/crashmc). Instead of committing the writeback
// cache to one arbitrary persisted state at a sampled crash instant, the
// recorder snapshots the volatile cache contents together with the partial
// order the device's semantics impose on their persistence. The model
// checker then enumerates every downward-closed cut of that order — every
// disk image a legal controller could leave behind at this instant.
//
// The order is the device's *contract*, not the simulator's concrete drain
// schedule: a barrier device promises that epochs persist in order within a
// stream (cache-barrier semantics, §3.2) but is free to reorder within an
// epoch and across streams; a legacy device promises nothing at all about
// cached pages, which is exactly why the legacy stack needs
// transfer-and-flush. Checking the contract rather than the implementation
// makes a clean pass the strongest possible statement: no state the device
// is *allowed* to produce violates the invariant.

// VolatileWrite is one at-risk page in the writeback cache at the capture
// instant: a write that device recovery can genuinely lose. Entries whose
// NAND programs already completed inside the FTL's contiguous durable
// prefix are *not* volatile even before the reaper retires them — the
// first-hole recovery scan keeps them — so capture folds them into the
// durable base instead (a candidate image could not be materialized
// without them anyway, since images overlay the recovered base).
type VolatileWrite struct {
	Seq    uint64 // cache arrival order == transfer order
	LPA    uint64
	Data   any
	Stream uint64 // ordering domain (blkmq stream; 0 on single-queue hosts)
	Epoch  uint64 // write epoch within the stream (barrier count)
}

// Constraint is the captured persistence state: the volatile writes in
// transfer order plus, for each, the writes that must also have persisted
// in any crash state where it persisted. Every downward-closed subset of
// Writes under Preds is an admissible persisted set; the corresponding disk
// image is that subset (newest write per LPA) overlaid on the durable base.
type Constraint struct {
	Writes []VolatileWrite // ascending Seq
	// Preds[i] lists indices j such that Writes[i] persisted implies
	// Writes[j] persisted. Only immediate predecessors are recorded (the
	// previous epoch group of the stream); downward closure supplies the
	// transitive chain.
	Preds [][]int
	// Ordered records whether the device honors cache-barrier ordering
	// (epoch edges). Legacy devices leave Preds empty: any subset of the
	// cache may persist.
	Ordered bool
	// PLP marks a power-loss-protected device: the cache survives, so the
	// only admissible crash state is "everything persisted" — which device
	// recovery already folds into the durable base. Writes is empty.
	PLP bool
	// PLPPartial marks a PLP device whose fault plan models the supercap
	// dying mid-drain: the cache persists only a transfer-order prefix, so
	// Preds form a single chain over all streams (every prefix of the
	// drain order is admissible, nothing else), instead of PLP's single
	// full state or the barrier contract's per-stream epoch DAG.
	PLPPartial bool
}

// CaptureConstraints snapshots the device's volatile writeback-cache
// contents and persistence partial order. Call it at the crash instant
// (just before or after Crash; Crash does not disturb the cache snapshot).
// The returned constraint is independent of the device's later life.
func (d *Device) CaptureConstraints() Constraint {
	c := Constraint{Ordered: d.cfg.BarrierSupport, PLP: d.cfg.PLP}
	if d.cfg.PLP && !d.inj.PLPFailure() {
		// The supercap drains the cache on power failure; Recover replays
		// it into the durable base, so no write is at risk.
		return c
	}
	// The cache list holds exactly the not-yet-retired pages; whatever the
	// reaper retired is on the storage surface and part of the base.
	for e := d.cacheHead; e != nil; e = e.next {
		if e.idx < d.f.DurableIdx() {
			// Program completed inside the contiguous durable prefix: the
			// reaper has not retired the entry yet, but the page already
			// survives the FTL's first-hole recovery scan, so it belongs
			// to the durable base — no crash state can lose it. (Started
			// entries at or beyond the prefix stay volatile: in-flight
			// programs die with the power cut and completed ones beyond
			// the hole are discarded by the scan.)
			continue
		}
		c.Writes = append(c.Writes, VolatileWrite{
			Seq: e.seq, LPA: e.lpa, Data: e.data,
			Stream: e.stream, Epoch: e.epoch,
		})
	}
	c.Preds = make([][]int, len(c.Writes))
	if d.cfg.PLP {
		// PLP-failure model: the supercap drains the cache in transfer
		// order and may die after any number of entries. The admissible
		// crash states are exactly the transfer-order prefixes, expressed
		// as a single chain over all streams.
		c.PLP, c.PLPPartial, c.Ordered = false, true, true
		for i := 1; i < len(c.Writes); i++ {
			c.Preds[i] = []int{i - 1}
		}
		return c
	}
	if !c.Ordered {
		return c
	}
	// Group each stream's writes into epoch runs. Entries arrive in
	// transfer order and a stream's epoch counter only grows, so within
	// byStream[s] the epochs are non-decreasing; a run of equal epochs is
	// one barrier group. Edges: every member of a group requires the whole
	// previous group (epoch boundary); within a group there are no edges —
	// the contract lets the controller reorder inside an epoch even though
	// this simulator's drain happens to preserve transfer order, and the
	// checker must cover the contract, not one implementation.
	//
	// FUA contributes no extra edges here: its ordering force is
	// durability-at-completion, and a *completed* FUA write is durable by
	// definition — already folded into the base above. A FUA write still
	// volatile at the crash was never acknowledged to anyone, so the
	// contract makes no promise about it beyond its epoch's.
	byStream := make(map[uint64][]int)
	for i, w := range c.Writes {
		byStream[w.Stream] = append(byStream[w.Stream], i)
	}
	for _, idxs := range byStream {
		var prev, cur []int
		var curEpoch uint64
		for n, i := range idxs {
			w := c.Writes[i]
			if n == 0 || w.Epoch != curEpoch {
				if n > 0 {
					prev = cur
				}
				cur = nil
				curEpoch = w.Epoch
			}
			if len(prev) > 0 {
				c.Preds[i] = append([]int(nil), prev...)
			}
			cur = append(cur, i)
		}
	}
	return c
}
