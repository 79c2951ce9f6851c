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
//
// Copying can be shorter than one client write (a write may wait out a
// replica's checkpoint flush), so it may hold no such instant at all. A
// dry run of the same scenario therefore names the first write not started
// before the migration opens, and the crash run holds that one write:
// until the opening for the later phases, and to the crash for Copying.
// Everything before the opening is the dry run's history. CatchUp opens at
// the opening itself on every range with nothing to copy, before any
// client write reaches the destination; its crash point waits for the
// first dual-write to complete and holds the client's next write to the
// crash, so the destination always holds a write of the dual-write window.
func rebalancePoint(prof func(device.Config) core.Profile, shards int,
	phase kvcluster.MigrationState, victim int, phantom string) Workload {
	// Compact journal + tiny memtable + small chunks keep the victim's
	// volatile write set — and with it the enumerated state space — small
	// enough for exhaustive coverage.
	rc := kvcluster.Config{
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
	dry := sim.NewKernel()
	r := startRebalance(dry, rc, kvcluster.MigCopying, -1)
	dry.RunUntil(rebalanceDeadline)
	hold := r.writes // the first write not started before the opening
	if !r.idle {
		hold-- // the one in flight there
	}
	dry.Close()
	return func(k *sim.Kernel) func() (*core.Stack, []Checker) {
		r := startRebalance(k, rc, phase, hold)
		return func() (*core.Stack, []Checker) {
			cl, mig := r.cl, r.mig
			if mig == nil || !mig.InState(phase) || !r.idle {
				panic(fmt.Sprintf("crashmc: rebalance: migration never reached %v between client writes (now %v)", phase, k.Now()))
			}
			if phantom != "" {
				r.acked[phantom] = true
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
				Survivor: survivors, Acked: r.acked,
			}}, journalAndFS(stack)...)
		}
	}
}

// rebalanceRun is one run of the rebalance scenario: the host-side truth
// its client and watcher keep.
type rebalanceRun struct {
	cl      *kvcluster.Cluster
	mig     *kvcluster.Migration
	acked   map[string]bool // cluster-acked live keys
	writes  int             // client writes started
	idle    bool            // no client write in flight
	dual    bool            // a client dual-write has completed
	crashed bool            // the kernel stopped at the crash instant
}

// startRebalance spawns the scenario on k: a client writing one key every
// 40us into a fresh cluster, and a resize to one more shard 800us after it
// opens. The client holds write number hold as rebalancePoint says, and in
// CatchUp every write after the first dual-write; a dry run (hold -1) stops
// the kernel at the opening. Otherwise the kernel stops, for the power to
// fail, at the first 2us tick at which the migration occupies phase with no
// client write in flight (a write wedged on the crashed victim would
// otherwise stall the audit).
func startRebalance(k *sim.Kernel, rc kvcluster.Config, phase kvcluster.MigrationState, hold int) *rebalanceRun {
	r := &rebalanceRun{acked: make(map[string]bool), idle: true}
	opened := sim.NewCond(k)
	crashIf := func(now bool) {
		if now && !r.crashed {
			r.crashed = true
			k.Stop()
		}
	}
	k.Spawn("reb/client", func(p *sim.Proc) {
		c, err := kvcluster.OpenCluster(p, rc)
		if err != nil {
			panic(err)
		}
		r.cl = c
		// Deterministic write stream: small Zipf-free keyspace so
		// overwrites and deletes collide across the migrating ranges.
		for n := 0; ; n++ {
			for n == hold && (r.mig == nil || phase == kvcluster.MigCopying) ||
				r.dual && phase == kvcluster.MigCatchUp {
				opened.Wait(p)
			}
			if r.crashed {
				return
			}
			r.writes++
			r.idle = false
			key := fmt.Sprintf("mk%03d", n%96)
			if n%7 == 3 {
				if err := c.Delete(p, key); err == nil {
					delete(r.acked, key)
				}
			} else {
				if err := c.Put(p, key); err == nil {
					r.acked[key] = true
				}
			}
			r.idle = true
			r.dual = r.mig != nil && r.mig.Stats().DualWrites > 0
			p.Sleep(40 * sim.Microsecond)
		}
	})
	k.Spawn("reb/resize", func(p *sim.Proc) {
		for r.cl == nil {
			p.Sleep(50 * sim.Microsecond)
		}
		p.Sleep(800 * sim.Microsecond) // preload before the ring grows
		m, err := r.cl.Resize(p, rc.Shards+1)
		if err != nil {
			panic(err)
		}
		r.mig = m
		crashIf(hold < 0) // the dry run ends at the opening
		opened.Broadcast()
	})
	k.Spawn("reb/watch", func(p *sim.Proc) {
		for !r.crashed && (r.mig == nil || !r.mig.Done() && !(r.idle && r.occupied(phase))) {
			p.Sleep(2 * sim.Microsecond)
		}
		crashIf(true)
	})
	return r
}

// occupied reports whether the migration is where phase's crash point
// wants it. Copying's is mid-copy, once the destination has ingested a
// chunk; CatchUp's once a client dual-write has completed.
func (r *rebalanceRun) occupied(phase kvcluster.MigrationState) bool {
	switch phase {
	case kvcluster.MigCopying:
		if r.mig.Stats().KeysCopied == 0 {
			return false
		}
	case kvcluster.MigCatchUp:
		if !r.dual {
			return false
		}
	}
	return r.mig.InState(phase)
}
