package crashmc

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/kvcluster"
	"repro/internal/kvwal"
	"repro/internal/sim"
)

// Rebalance crash checking: drive a replicated kvcluster into a live ring
// resize, crash one shard's device at an enumerated crash state *inside* a
// chosen migration phase (Copying, CatchUp, Cutover), and model-check every
// admissible image of the victim against the rebalancing contract:
//
//   - the victim's own store audit (durability of durably-acked writes,
//     per-key prefix ordering) — KVChecker semantics;
//   - ring placement: every key recovered on the victim must route to the
//     victim within the replica successor list of the old ring OR the
//     migration's target ring — anything else is a write persisted where no
//     reader (pre- or post-cutover) will ever look;
//   - coverage: every write the *cluster* acknowledged and did not later
//     delete must still be readable from some owner — live on a surviving
//     replica, or recovered live in the victim's image. A key readable from
//     neither owner is an acked-write loss.
//
// Unlike clusterScenario, replication makes invariants span shards — but
// only one shard crashes, so the surviving shards' state is the host-side
// truth (their stores never lose anything) and the state space is still the
// victim's enumeration alone. The dual-write window is exactly what this
// audits: if CatchUp or Cutover wrote new-only, a key's sole copy would sit
// on the destination, and crashing the destination inside those phases
// would surface it as a coverage violation in some admissible image.

// RebalancePhases are the migration phases a rebalanceScenario crashes in.
var RebalancePhases = []kvcluster.MigrationState{
	kvcluster.MigCopying, kvcluster.MigCatchUp, kvcluster.MigCutover,
}

// RebalanceChecker audits one victim image against the rebalancing
// contract. It carries the host-side truth: the rings, the cluster-level
// acked history, and the surviving stores.
type RebalanceChecker struct {
	Old, New *kvcluster.Ring
	Replicas int
	Victim   int
	Store    *kvwal.Store    // the victim's store (for its own audit)
	Survivor []*kvwal.Store  // by shard; Survivor[Victim] is ignored
	Acked    map[string]bool // cluster-acked live keys (put, no later delete)
}

// Name implements Checker.
func (c *RebalanceChecker) Name() string { return "rebalance" }

// Check implements Checker.
func (c *RebalanceChecker) Check(st *State) []Violation {
	rec := c.Store.Recover(st.View)
	kv := &KVChecker{Store: c.Store}
	out := kv.CheckRecovered(rec)

	// Ring placement: recovered keys must belong to the victim under the
	// old or the target ring.
	keys := make([]string, 0, len(rec.Keys))
	for key := range rec.Keys {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		if hasShard(c.Old.ShardsFor(key, c.Replicas), c.Victim) ||
			hasShard(c.New.ShardsFor(key, c.Replicas), c.Victim) {
			continue
		}
		out = append(out, Violation{Kind: KindConsistency,
			Detail: fmt.Sprintf("key %q recovered on shard %d but owned by it under neither ring (old=%v new=%v R=%d)",
				key, c.Victim, c.Old.ShardsFor(key, c.Replicas), c.New.ShardsFor(key, c.Replicas), c.Replicas)})
	}

	// Coverage: every cluster-acked live key must be readable from some
	// owner. Surviving stores never crashed, so Peek is their truth; the
	// victim contributes whatever this image recovered.
	acked := make([]string, 0, len(c.Acked))
	for key := range c.Acked {
		acked = append(acked, key)
	}
	sort.Strings(acked)
	for _, key := range acked {
		if e, ok := rec.Keys[key]; ok && !e.Del {
			continue
		}
		covered := false
		for s, st := range c.Survivor {
			if s == c.Victim || st == nil {
				continue
			}
			if _, ok := st.Peek(key); ok {
				covered = true
				break
			}
		}
		if !covered {
			out = append(out, Violation{Kind: KindDurability,
				Detail: fmt.Sprintf("acked key %q readable from no owner (victim image %s)",
					key, st.ID)})
		}
	}
	return out
}

func hasShard(owners []int, s int) bool {
	for _, o := range owners {
		if o == s {
			return true
		}
	}
	return false
}

// RebalanceResult is the outcome of a rebalanceScenario: the totals (the
// embedded Result) over one enumeration per (phase, victim) crash point.
type RebalanceResult struct {
	Result
	Shards int
	Points []RebalancePoint
}

// RebalancePoint is one (phase, victim) crash point's result.
type RebalancePoint struct {
	Phase  kvcluster.MigrationState
	Victim int
	Result
}

func (r RebalanceResult) String() string {
	return fmt.Sprintf("%s resize %d->%d: %d crash points, %d states / %d images — %s",
		r.Profile, r.Shards, r.Shards+1, len(r.Points), r.StatesExplored, r.ImagesChecked,
		r.verdict("every admissible crash state recovers clean"))
}

// rebalanceDeadline is the virtual time by which every migration phase
// has come and gone; a crash point not reached by then never will be.
const rebalanceDeadline = sim.Time(200 * sim.Millisecond)

// rebalanceScenario grows an N-shard replicated cluster to N+1 under a
// deterministic write stream, and for every phase in RebalancePhases
// crashes each of {a source shard, the new destination shard} at the
// moment the migration first occupies that phase, enumerating the victim's
// admissible images. Each crash point is an independent sim, so the
// enumeration per point stays the victim's own state space.
func rebalanceScenario(prof func(device.Config) core.Profile, shards int, cfg Config) RebalanceResult {
	cfg.CrashAt = rebalanceDeadline
	out := RebalanceResult{Shards: shards}
	for _, phase := range RebalancePhases {
		for _, victim := range []int{0, shards} { // a source and the new shard
			res := Enumerate(rebalancePoint(prof, shards, phase, victim, ""), cfg)
			out.Points = append(out.Points, RebalancePoint{Phase: phase, Victim: victim, Result: res})
			out.add(res)
			out.Profile = res.Profile
		}
	}
	return out
}

// rebalancePoint is the workload of one crash point: a fresh cluster runs
// to the first instant the migration occupies phase with no client write
// in flight, and victim loses power there. phantom, if non-empty, is
// injected into the acked set without ever being written — a self-test
// that the coverage audit bites.
func rebalancePoint(prof func(device.Config) core.Profile, shards int,
	phase kvcluster.MigrationState, victim int, phantom string) Workload {
	return func(k *sim.Kernel) func() (*core.Stack, []Checker) {
		// Compact journal + tiny memtable + small chunks keep the victim's
		// volatile write set — and with it the enumerated state space —
		// small enough for exhaustive coverage.
		rc := kvcluster.ReplicaConfig{
			Shards:   shards,
			Replicas: 2,
			Profile: func(d device.Config) core.Profile {
				return CompactJournal(prof(d), 512)
			},
			Store: kvwal.Config{
				WALPages: 128, MemtableCap: 8, CompactFanIn: 3, CheckpointEvery: 4,
			},
			Migrate: kvcluster.MigrateConfig{
				ChunkKeys: 6, ChunkEvery: 120 * sim.Microsecond,
			},
		}

		var cl *kvcluster.Cluster
		var mig *kvcluster.Migration
		acked := make(map[string]bool)
		stop := false
		idle := true
		k.Spawn("reb/client", func(p *sim.Proc) {
			c, err := kvcluster.OpenCluster(p, rc)
			if err != nil {
				panic(err)
			}
			cl = c
			// Deterministic write stream: small Zipf-free keyspace so
			// overwrites and deletes collide across the migrating ranges.
			for n := 0; !stop; n++ {
				idle = false
				key := fmt.Sprintf("mk%03d", n%96)
				if n%7 == 3 {
					if err := c.Delete(p, key); err == nil {
						delete(acked, key)
					}
				} else {
					if err := c.Put(p, key); err == nil {
						acked[key] = true
					}
				}
				idle = true
				p.Sleep(40 * sim.Microsecond)
			}
		})
		k.Spawn("reb/resize", func(p *sim.Proc) {
			for cl == nil {
				p.Sleep(50 * sim.Microsecond)
			}
			p.Sleep(800 * sim.Microsecond) // preload before the ring grows
			m, err := cl.Resize(p, shards+1)
			if err != nil {
				panic(err)
			}
			mig = m
		})
		// The crash instant is a polled condition: look every 2us until the
		// migration occupies the target phase at an instant with no client
		// write mid-commit (a write wedged on the crashed victim would
		// otherwise stall the audit), and stop the kernel there.
		k.Spawn("reb/watch", func(p *sim.Proc) {
			for mig == nil || (!mig.Done() && !(idle && mig.InState(phase))) {
				p.Sleep(2 * sim.Microsecond)
			}
			k.Stop()
		})

		return func() (*core.Stack, []Checker) {
			if mig == nil || !mig.InState(phase) {
				panic(fmt.Sprintf("crashmc: rebalance: migration never reached %v (now %v)", phase, k.Now()))
			}
			stop = true
			if phantom != "" {
				acked[phantom] = true
			}
			survivors := make([]*kvwal.Store, shards+1)
			for s := 0; s <= shards; s++ {
				if s != victim {
					survivors[s] = cl.Store(s)
				}
			}
			stack := cl.Stack(victim)
			// The rings are read now: recovery runs the kernel idle, which
			// lets the migration finish and swaps the cluster ring to the
			// target.
			return stack, append([]Checker{&RebalanceChecker{
				Old: cl.Ring(), New: mig.Target(), Replicas: rc.Replicas,
				Victim: victim, Store: cl.Store(victim),
				Survivor: survivors, Acked: acked,
			}}, journalAndFS(stack)...)
		}
	}
}
