package kvcluster

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Ring.Diff must agree with the owner lists point by point: every key whose
// successor list changes between the rings lies inside a move carrying
// exactly those lists, and every key inside a move actually changes owners.
func TestRingDiffMatchesOwnerLists(t *testing.T) {
	old := NewRing(3)
	target := NewRing(4)
	moves := old.Diff(target, 2)
	if len(moves) == 0 {
		t.Fatal("growing 3->4 moved no ranges")
	}
	if got := old.Diff(old, 2); len(got) != 0 {
		t.Fatalf("diff of identical rings is non-empty: %d moves", len(got))
	}
	findMove := func(h uint64) *RangeMove {
		for i := range moves {
			if moves[i].Contains(h) {
				return &moves[i]
			}
		}
		return nil
	}
	for i := 0; i < 4000; i++ {
		key := fmt.Sprintf("u%07d", i)
		h := fnv1a(key)
		before := old.ShardsFor(key, 2)
		after := target.ShardsFor(key, 2)
		mv := findMove(h)
		if reflect.DeepEqual(before, after) {
			if mv != nil {
				t.Fatalf("key %s owners unchanged %v but inside move %+v", key, before, *mv)
			}
			continue
		}
		if mv == nil {
			t.Fatalf("key %s moves %v->%v but no move contains it", key, before, after)
		}
		if !reflect.DeepEqual(mv.Old, before) || !reflect.DeepEqual(mv.New, after) {
			t.Fatalf("key %s: move lists %v->%v, ring lists %v->%v",
				key, mv.Old, mv.New, before, after)
		}
	}
}

func TestRingReplacePlanCoversShard(t *testing.T) {
	r := NewRing(4)
	plan := r.ReplacePlan(2, 2)
	if len(plan) == 0 {
		t.Fatal("replace plan for an owner shard is empty")
	}
	for _, mv := range plan {
		if !slices.Contains(mv.New, 2) {
			t.Fatalf("plan range %+v does not own shard 2", mv)
		}
		if slices.Contains(mv.Old, 2) {
			t.Fatalf("plan range %+v sources from the dead shard", mv)
		}
	}
	for i := 0; i < 2000; i++ {
		key := fmt.Sprintf("u%07d", i)
		if !slices.Contains(r.ShardsFor(key, 2), 2) {
			continue
		}
		found := false
		for _, mv := range plan {
			if mv.Contains(fnv1a(key)) {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("key %s owned by shard 2 but outside the replace plan", key)
		}
	}
}

func resizeTraffic(rate float64) Traffic {
	return Traffic{
		Arrivals:  workload.ArrivalConfig{RatePerS: rate, Seed: 23},
		Mix:       workload.Mix{ReadPct: 50, DeletePct: 5},
		KeySpace:  2048,
		ZipfTheta: 0.9,
		Tenants:   2,
		Warmup:    4 * sim.Millisecond,
		Duration:  12 * sim.Millisecond,
	}
}

// The headline invariant: a live 3->4 resize under open-loop load loses
// zero acked writes, actually moves data (copies, dual-writes, cutovers),
// and keeps the worst during-migration p99 bin within a stated bound of
// steady state.
func TestResizeUnderLoadNoAckedLoss(t *testing.T) {
	rc := Config{Shards: 3, Replicas: 2, Store: smallStore()}
	spec := ResizeSpec{ResizeAt: sim.Time(6 * sim.Millisecond), NewShards: 4, Bins: 12}
	res := RunResize(rc, resizeTraffic(40_000), spec)

	if res.AckedKeys == 0 {
		t.Fatal("no acked writes to audit")
	}
	if res.AckedLost != 0 {
		t.Fatalf("%d of %d acked writes lost across the resize", res.AckedLost, res.AckedKeys)
	}
	if res.Failed {
		t.Fatalf("migration failed: %+v", res.Migration)
	}
	if res.MigEnd == 0 {
		t.Fatal("migration never finished")
	}
	mig := res.Migration
	if mig.KeysCopied == 0 || mig.Cutovers == 0 {
		t.Fatalf("migration moved nothing: %+v", mig)
	}
	if mig.DualWrites == 0 {
		t.Errorf("no dual-writes recorded during CatchUp: %+v", mig)
	}
	phase := func(name string) PhaseAgg {
		for _, ph := range res.Phases {
			if ph.Phase == name {
				return ph
			}
		}
		return PhaseAgg{Phase: name}
	}
	before, during := phase("before"), phase("during")
	if before.Done == 0 || during.Done == 0 {
		t.Fatalf("timeline phases empty: before %+v during %+v", before, during)
	}
	// Stated bound: migration may at most quadruple the worst-bin p99 (with
	// a floor for near-zero baselines). The sim is deterministic, so this is
	// a regression tripwire, not a flaky statistical assertion.
	bound := 4*before.P99 + 0.25
	if during.P99 > bound {
		t.Errorf("during-migration p99 %.3fms exceeds bound %.3fms (steady %.3fms)",
			during.P99, bound, before.P99)
	}
}

// Same seed, same fault plan, two runs: identical migration schedules and
// identical cells (the determinism contract bench.db rests on).
func TestResizeDeterministicSchedule(t *testing.T) {
	run := func() ResizeResult {
		rc := Config{Shards: 3, Replicas: 2, Store: smallStore()}
		spec := ResizeSpec{ResizeAt: sim.Time(5 * sim.Millisecond), NewShards: 4}
		return RunResize(rc, resizeTraffic(30_000), spec)
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a.Events, b.Events) {
		t.Fatalf("migration schedules differ: %d vs %d events", len(a.Events), len(b.Events))
	}
	if a.Migration != b.Migration {
		t.Fatalf("migration stats differ: %+v vs %+v", a.Migration, b.Migration)
	}
	if a.Good != b.Good || a.Done != b.Done || a.Shed != b.Shed {
		t.Fatalf("traffic outcomes differ: %+v vs %+v", a.Result, b.Result)
	}
	if !reflect.DeepEqual(a.Timeline, b.Timeline) {
		t.Fatal("timelines differ between identical runs")
	}
}

// Concurrent Get/Put during an active resize (run under -race in CI):
// clients keep mutating while the migration copies under them; every acked
// key must remain readable after the ring swap.
func TestConcurrentOpsDuringResize(t *testing.T) {
	cfg := Config{
		Shards: 3, Replicas: 2, Store: smallStore(),
		Migrate: MigrateConfig{ChunkKeys: 8, ChunkEvery: 100 * sim.Microsecond},
	}
	k := sim.NewKernel()
	defer k.Close()
	var cl *Cluster
	var mig *Migration
	ready := false
	k.Spawn("opener", func(p *sim.Proc) {
		c, err := OpenCluster(p, cfg)
		if err != nil {
			t.Error(err)
			return
		}
		cl = c
		ready = true
	})
	const workers, perWorker = 8, 24
	acked := make([][]string, workers)
	for w := 0; w < workers; w++ {
		w := w
		k.SpawnIdx("worker", w, func(p *sim.Proc) {
			for !ready {
				p.Sleep(100 * sim.Microsecond)
			}
			for i := 0; i < perWorker; i++ {
				key := fmt.Sprintf("w%d-%05d", w, i)
				if err := cl.Put(p, key); err != nil {
					continue
				}
				acked[w] = append(acked[w], key)
				if _, _, err := cl.Get(p, key); err != nil {
					t.Errorf("read-your-write %s during resize: %v", key, err)
				}
			}
		})
	}
	k.Spawn("resizer", func(p *sim.Proc) {
		for !ready {
			p.Sleep(100 * sim.Microsecond)
		}
		p.Advance(1 * sim.Millisecond)
		m, err := cl.Resize(p, 4)
		if err != nil {
			t.Error(err)
			return
		}
		mig = m
	})
	k.Run()

	audited := false
	k.Spawn("audit", func(p *sim.Proc) {
		if mig == nil {
			t.Error("resize never started")
			return
		}
		mig.Wait(p)
		for w := range acked {
			for _, key := range acked[w] {
				if _, ok, err := cl.Get(p, key); err != nil || !ok {
					t.Errorf("acked key %s unreadable after resize: ok=%v err=%v", key, ok, err)
				}
			}
		}
		audited = true
	})
	k.Run()
	if !audited {
		t.Fatal("audit proc never ran")
	}
	if !mig.Done() || mig.Failed() {
		t.Fatalf("migration did not land cleanly: done=%v failed=%v", mig.Done(), mig.Failed())
	}
	if cl.Ring().Shards() != 4 {
		t.Fatalf("ring did not swap: %d shards", cl.Ring().Shards())
	}
}

// Kill a shard, rebuild it in place: ReplaceShard re-replicates its ranges
// from the survivors and the rebuilt store ends up holding data.
func TestReplaceShardRebuildsDeadShard(t *testing.T) {
	cfg := Config{Shards: 3, Replicas: 2, Store: smallStore()}
	k := sim.NewKernel()
	defer k.Close()
	var keys []string
	done := false
	k.Spawn("client", func(p *sim.Proc) {
		cl, err := OpenCluster(p, cfg)
		if err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < 128; i++ {
			key := fmt.Sprintf("r%05d", i)
			if err := cl.Put(p, key); err == nil {
				keys = append(keys, key)
			}
		}
		cl.KillShard(1)
		mig, err := cl.ReplaceShard(p, 1)
		if err != nil {
			t.Error(err)
			return
		}
		mig.Wait(p)
		if mig.Failed() {
			t.Errorf("replace migration failed: %+v", mig.Stats())
		}
		if mig.Stats().KeysCopied == 0 {
			t.Errorf("replace copied nothing: %+v", mig.Stats())
		}
		if cl.Ring().Shards() != 3 {
			t.Errorf("replace changed the ring: %d shards", cl.Ring().Shards())
		}
		rebuilt := 0
		for _, key := range keys {
			if _, ok := cl.Store(1).Peek(key); ok {
				rebuilt++
			}
		}
		if rebuilt == 0 {
			t.Error("rebuilt shard holds no keys after re-replication")
		}
		for _, key := range keys {
			if _, ok, err := cl.Get(p, key); err != nil || !ok {
				t.Errorf("key %s unreadable after rebuild: ok=%v err=%v", key, ok, err)
			}
		}
		done = true
	})
	k.Run()
	if !done {
		t.Fatal("client proc never finished")
	}
}

// Destination death mid-copy: the affected ranges abort, roll back to
// their old owners, and re-replicate onto the next live successor; nothing
// acked is lost and the migration still lands.
func TestResizeRetargetsWhenDestinationDies(t *testing.T) {
	cfg := Config{
		Shards: 3, Replicas: 2, Store: smallStore(),
		// Slow the copy down so the kill lands mid-Copying.
		Migrate: MigrateConfig{ChunkKeys: 4, ChunkEvery: 300 * sim.Microsecond},
	}
	k := sim.NewKernel()
	defer k.Close()
	done := false
	k.Spawn("client", func(p *sim.Proc) {
		cl, err := OpenCluster(p, cfg)
		if err != nil {
			t.Error(err)
			return
		}
		var keys []string
		for i := 0; i < 256; i++ {
			key := fmt.Sprintf("d%05d", i)
			if err := cl.Put(p, key); err == nil {
				keys = append(keys, key)
			}
		}
		mig, err := cl.Resize(p, 4)
		if err != nil {
			t.Error(err)
			return
		}
		p.Sleep(500 * sim.Microsecond) // mid-Copying
		cl.KillShard(3)
		mig.Wait(p)
		if mig.Stats().Aborts == 0 {
			t.Errorf("destination death caused no aborts: %+v", mig.Stats())
		}
		if mig.Failed() {
			// With 3 live shards left the promoted successors must absorb
			// every range; a hard failure means retarget logic is broken.
			t.Fatalf("migration pinned failed despite live successors: %+v", mig.Stats())
		}
		for _, key := range keys {
			if _, ok, err := cl.Get(p, key); err != nil || !ok {
				t.Errorf("acked key %s lost after dest death: ok=%v err=%v", key, ok, err)
			}
		}
		done = true
	})
	k.Run()
	if !done {
		t.Fatal("client proc never finished")
	}
}

// A read of a migrating range whose first old owner is dead fails over once:
// the dead owner is skipped, the live old owner serves the read, and that is
// the one failover counted.
func TestDeadOldOwnerChargesOneFailover(t *testing.T) {
	reg := metrics.NewRegistry()
	cfg := Config{
		Shards: 3, Replicas: 2, Store: smallStore(), Metrics: reg,
		Migrate: MigrateConfig{ChunkKeys: 1, ChunkEvery: sim.Second},
	}
	k := sim.NewKernel()
	defer k.Close()
	done := false
	k.Spawn("client", func(p *sim.Proc) {
		defer k.Stop()
		cl, err := OpenCluster(p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var keys []string
		for i := 0; i < 256; i++ {
			key := fmt.Sprintf("f%05d", i)
			if err := cl.Put(p, key); err != nil {
				t.Fatalf("put %s: %v", key, err)
			}
			keys = append(keys, key)
		}
		mig, err := cl.Resize(p, 4)
		if err != nil {
			t.Fatal(err)
		}
		i := slices.IndexFunc(keys, func(key string) bool { return mig.rangeOf(key) != nil })
		if i < 0 {
			t.Fatal("no key inside a migrating range")
		}
		rm := mig.rangeOf(keys[i])
		cl.KillShard(rm.mv.Old[0])
		if _, ok, err := cl.Get(p, keys[i]); err != nil || !ok {
			t.Errorf("get %s past dead old owner %d (range %v -> %v): ok=%v err=%v",
				keys[i], rm.mv.Old[0], rm.mv.Old, rm.mv.New, ok, err)
		}
		if got := reg.Counter("kvcluster/failovers").Value(); got != 1 {
			t.Errorf("%d failovers counted, want 1", got)
		}
		done = true
	})
	k.Run()
	if !done {
		t.Fatal("client proc never finished")
	}
}

// The all-replicas-dead path: capped replication sheds and counts instead
// of panicking or misrouting.
func TestAllReplicasDeadShedsDegraded(t *testing.T) {
	reg := metrics.NewRegistry()
	shed := reg.Counter("kvcluster/degraded.shed")
	cfg := Config{Shards: 2, Replicas: 2, Store: smallStore(), Metrics: reg}
	k := sim.NewKernel()
	defer k.Close()
	done := false
	k.Spawn("client", func(p *sim.Proc) {
		cl, err := OpenCluster(p, cfg)
		if err != nil {
			t.Error(err)
			return
		}
		if err := cl.Put(p, "alive"); err != nil {
			t.Errorf("healthy put failed: %v", err)
		}
		cl.KillShard(0)
		// One survivor: writes commit degraded (capped below R) and count.
		if err := cl.Put(p, "degraded"); err != nil {
			t.Errorf("degraded put refused with a live replica: %v", err)
		}
		if got := shed.Value(); got != 1 {
			t.Errorf("capped-replication write counted %d sheds, want 1", got)
		}
		cl.KillShard(1)
		if err := cl.Put(p, "dead"); err != ErrUnavailable {
			t.Errorf("put with all replicas dead: got %v, want ErrUnavailable", err)
		}
		if _, _, err := cl.Get(p, "alive"); err != ErrUnavailable {
			t.Errorf("get with all replicas dead: got %v, want ErrUnavailable", err)
		}
		// The unavailable put and get shed one each.
		if got := shed.Value(); got != 3 {
			t.Errorf("mass failure not accounted: %d sheds, want 3", got)
		}
		done = true
	})
	k.Run()
	if !done {
		t.Fatal("client proc never finished")
	}
}
