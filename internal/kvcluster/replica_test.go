package kvcluster

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/fault"
	"repro/internal/kvwal"
	"repro/internal/metrics"
	"repro/internal/reqtrace"
	"repro/internal/sim"
)

func TestShardsForPlacement(t *testing.T) {
	r := NewRing(5)
	for i := 0; i < 2000; i++ {
		key := fmt.Sprintf("u%07d", i)
		owners := r.ShardsFor(key, 3)
		if len(owners) != 3 {
			t.Fatalf("key %s: want 3 owners, got %v", key, owners)
		}
		if owners[0] != r.Shard(key) {
			t.Fatalf("key %s: primary %d != Shard() %d", key, owners[0], r.Shard(key))
		}
		seen := map[int]bool{}
		for _, s := range owners {
			if seen[s] {
				t.Fatalf("key %s: duplicate owner in %v", key, owners)
			}
			seen[s] = true
		}
		// Deterministic across rings.
		again := NewRing(5).ShardsFor(key, 3)
		for j := range owners {
			if owners[j] != again[j] {
				t.Fatalf("key %s: placement not deterministic: %v vs %v", key, owners, again)
			}
		}
	}
	// Clamp: asking for more replicas than shards.
	if got := r.ShardsFor("k", 99); len(got) != 5 {
		t.Fatalf("want clamp to 5 shards, got %v", got)
	}
}

// Marking a shard down must only promote the next distinct owner for keys
// it served; every other key's replica list is untouched — the consistent
// hashing stability property carried over to failover routing.
func TestShardsForUpStableUnderShardDeath(t *testing.T) {
	r := NewRing(5)
	const dead = 2
	down := func(s int) bool { return s == dead }
	for i := 0; i < 2000; i++ {
		key := fmt.Sprintf("u%07d", i)
		full := r.ShardsFor(key, 2)
		up := r.ShardsForUp(key, 2, down)
		if len(up) != 2 {
			t.Fatalf("key %s: want 2 live owners, got %v", key, up)
		}
		for _, s := range up {
			if s == dead {
				t.Fatalf("key %s: dead shard routed: %v", key, up)
			}
		}
		touched := full[0] == dead || full[1] == dead
		if !touched {
			// Keys that never lived on the dead shard must keep their exact
			// replica list.
			if up[0] != full[0] || up[1] != full[1] {
				t.Fatalf("key %s: untouched key remapped: %v -> %v", key, full, up)
			}
			continue
		}
		// Touched keys: the surviving owners stay, in order.
		want := []int{}
		for _, s := range r.ShardsFor(key, 3) {
			if s != dead {
				want = append(want, s)
			}
		}
		for j := range up {
			if up[j] != want[j] {
				t.Fatalf("key %s: failover promotion wrong: got %v want %v", key, up, want[:2])
			}
		}
	}
}

// uncPlan gives a device certain media errors: every host read attempt
// draws an uncorrectable sector, plus GC-interference latency windows.
func uncPlan(seed uint64) *fault.Plan {
	return &fault.Plan{
		Seed:            seed,
		ReadUNCProb:     1.0,
		ReadRetryLadder: []sim.Duration{20 * sim.Microsecond, 40 * sim.Microsecond},
		ReadRetryProb:   0.5,
		GCPeriod:        2 * sim.Millisecond,
		GCDuration:      200 * sim.Microsecond,
		GCReadFactor:    4,
		GCProgramFactor: 2,
	}
}

// retrying is the default shard profile with the block layer's bounded
// command retry armed.
func retrying(d device.Config) core.Profile {
	prof := core.BFSDR(d)
	prof.Retry = true
	return prof
}

// smallStore keeps the memtable tiny so keys reach segment files (where
// media-error injection bites reads) quickly.
func smallStore() kvwal.Config {
	cfg := kvwal.DefaultConfig()
	cfg.MemtableCap = 8
	cfg.WALPages = 128
	cfg.EvictSegments = true
	return cfg
}

// The acceptance scenario: a 3-shard, R=2 cluster whose shard-0 device
// certainly corrupts every host read. Replication must hide it — every
// acknowledged write stays readable (zero acked loss), failovers and
// block-layer retries show up in the counters — while the unreplicated
// baseline surfaces hard read errors for the same plan.
func TestReplicatedClusterSurvivesMediaErrors(t *testing.T) {
	reg := metrics.NewRegistry()
	cfg := ReplicaConfig{
		Shards:   3,
		Replicas: 2,
		Device: func(i int) device.Config {
			d := device.NVMeSSD()
			if i == 0 {
				d.Fault = uncPlan(42)
			}
			return d
		},
		Profile: retrying,
		Store:   smallStore(),
		Metrics: reg,
	}

	k := sim.NewKernel()
	defer k.Close()
	acked := map[string]uint64{}
	var lost, readErrs int
	k.Spawn("client", func(p *sim.Proc) {
		cl, err := OpenCluster(p, cfg)
		if err != nil {
			t.Error(err)
			return
		}
		const n = 64
		for i := 0; i < n; i++ {
			key := fmt.Sprintf("k%05d", i)
			if err := cl.Put(p, key); err != nil {
				t.Errorf("put %s: %v", key, err)
				return
			}
			// Write-both acknowledged: record the key as durable-or-ordered.
			acked[key] = uint64(i + 1)
		}
		// Let flushes push keys into segment files on all shards.
		p.Sleep(5 * sim.Millisecond)
		for key := range acked {
			_, ok, err := cl.Get(p, key)
			if err != nil || !ok {
				lost++
				t.Errorf("acked key %s lost: ok=%v err=%v", key, ok, err)
			}
		}
	})
	k.Run()

	if lost != 0 {
		t.Fatalf("%d acknowledged keys lost", lost)
	}
	if got, want := reg.Counter("kvcluster/replica.writes").Value(), 2*int64(len(acked)); len(acked) == 0 || got != want {
		t.Errorf("write-both accounting: %d replica writes for %d acked puts, want %d", got, len(acked), want)
	}
	if reg.Counter("kvcluster/failovers").Value() == 0 {
		t.Error("expected read failovers on the faulty primary")
	}
	if reg.Counter("kvcluster/read.repairs").Value() == 0 {
		t.Error("expected read repairs after failover")
	}
	if got := reg.Counter("block/retries").Value(); got == 0 {
		t.Errorf("block-layer retries not visible in metrics")
	}
	if got := reg.Counter("block/io.errors").Value(); got == 0 {
		t.Errorf("hard IO errors not visible in metrics")
	}

	// Unreplicated baseline, same fault plan: hard read errors reach the
	// client.
	base := cfg
	base.Shards = 1
	base.Replicas = 1
	base.Metrics = metrics.NewRegistry()
	k2 := sim.NewKernel()
	defer k2.Close()
	k2.Spawn("client", func(p *sim.Proc) {
		cl, err := OpenCluster(p, base)
		if err != nil {
			t.Error(err)
			return
		}
		const n = 64
		for i := 0; i < n; i++ {
			cl.Put(p, fmt.Sprintf("k%05d", i))
		}
		p.Sleep(5 * sim.Millisecond)
		for i := 0; i < n; i++ {
			if _, _, err := cl.Get(p, fmt.Sprintf("k%05d", i)); err != nil {
				readErrs++
			}
		}
	})
	k2.Run()
	if readErrs == 0 {
		t.Fatalf("unreplicated baseline hid every media error")
	}
}

// Shard death mid-traffic: routing stays deterministic, in-flight and
// subsequent operations complete on the survivors, and acked writes that
// had a live replica remain readable. Run under -race in CI: many client
// procs mutate through the cluster while the killer marks a shard down.
func TestClusterConcurrentOpsDuringFailover(t *testing.T) {
	reg := metrics.NewRegistry()
	cfg := ReplicaConfig{
		Shards:   3,
		Replicas: 2,
		Store:    smallStore(),
		Metrics:  reg,
	}
	k := sim.NewKernel()
	defer k.Close()
	var cl *Cluster
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
					continue // no live replica pair — not acked, no promise
				}
				acked[w] = append(acked[w], key)
				if _, _, err := cl.Get(p, key); err != nil {
					t.Errorf("read-your-write %s: %v", key, err)
				}
			}
		})
	}
	k.Spawn("killer", func(p *sim.Proc) {
		for !ready {
			p.Sleep(100 * sim.Microsecond)
		}
		p.Advance(2 * sim.Millisecond)
		cl.KillShard(1)
	})
	k.Run()

	// Post-mortem in a fresh proc: every acked key must still be readable
	// with one shard dead (its replica survives).
	k3 := false
	k.Spawn("audit", func(p *sim.Proc) {
		for w := range acked {
			for _, key := range acked[w] {
				if _, ok, err := cl.Get(p, key); err != nil || !ok {
					t.Errorf("acked key %s unreadable after shard death: ok=%v err=%v", key, ok, err)
				}
			}
		}
		k3 = true
	})
	k.Run()
	if !k3 {
		t.Fatal("audit proc never ran")
	}
	if reg.Counter("kvcluster/failovers").Value() == 0 {
		t.Error("no failovers recorded despite shard death")
	}
}

func TestRunReplicatedTraffic(t *testing.T) {
	reg := metrics.NewRegistry()
	rc := ReplicaConfig{Shards: 2, Replicas: 2, Store: smallStore(), InflightCap: 6, Metrics: reg}
	// At 60k offered six requests are never in flight at once.
	tr := smallTraffic(80_000)
	res := RunReplicated(rc, tr)
	if res.Offered == 0 || res.Done == 0 {
		t.Fatalf("no measured traffic: %+v", res)
	}
	if res.Mode != Replicated {
		t.Errorf("mode %v, want replicated", res.Mode)
	}
	if res.Shed == 0 {
		t.Errorf("expected shedding at a 6-request admission window: %+v", res)
	}
	if res.Admitted+res.Shed != res.Offered {
		t.Errorf("admission accounting broken: %+v", res)
	}
	// The cluster-wide runner's instruments count the whole run, warm-up
	// included: every generated arrival was either admitted or shed, and
	// nothing is left in flight.
	admitted := reg.Counter("kvcluster/cluster/admitted").Value()
	shed := reg.Counter("kvcluster/cluster/shed").Value()
	if offered := int64(len(tr.Generate())); admitted+shed != offered || shed < res.Shed {
		t.Errorf("instruments: admitted %d + shed %d != offered %d (measured shed %d)",
			admitted, shed, offered, res.Shed)
	}
	if got := reg.Gauge("kvcluster/cluster/inflight").Value(); got != 0 {
		t.Errorf("inflight gauge %d after drain, want 0", got)
	}
	rc.Metrics = metrics.NewRegistry()
	res2 := RunReplicated(rc, tr)
	if res.Good != res2.Good || res.Done != res2.Done {
		t.Errorf("replicated run not deterministic: good %d vs %d, done %d vs %d",
			res.Good, res2.Good, res.Done, res2.Done)
	}
}

// A replicated write carries its trace context to the first live owner
// only: with R = 2 the secondary's store commits untraced. The secondary
// sits on a far slower device, so a stamp from its commit would push the
// last device completion past the primary's durability return.
func TestTraceRidesFirstOwnerOnly(t *testing.T) {
	cfg := ReplicaConfig{
		Shards: 2, Replicas: 2, Profile: core.EXT4DR,
		Device: func(i int) device.Config {
			if i == 1 {
				return device.UFS()
			}
			return device.NVMeSSD()
		},
	}
	key := "k0"
	for i := 1; NewRing(2).Shard(key) != 0; i++ {
		key = fmt.Sprintf("k%d", i)
	}
	smp := reqtrace.NewSampler(reqtrace.Config{Uniform: 1})
	k := sim.NewKernel()
	defer k.Close()
	k.Spawn("client", func(p *sim.Proc) {
		cl, err := OpenCluster(p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		c := smp.Admit(p.Now())
		reqtrace.With(p, c)
		if err := cl.Put(p, key); err != nil {
			t.Fatal(err)
		}
		if got := reqtrace.Of(p); got != c {
			t.Fatalf("Put left the slot at %+v, want the caller's %+v", got, c)
		}
		smp.Finish(c, p.Now())
	})
	k.Run()
	exs := smp.Take()
	if len(exs) != 1 {
		t.Fatalf("kept %d exemplars, want 1", len(exs))
	}
	e := exs[0]
	for _, s := range []reqtrace.Stage{reqtrace.StageGCEnqueue, reqtrace.StageDurDone, reqtrace.StageDevDone} {
		if !e.Has(s) {
			t.Fatalf("primary's commit left no %v stamp", s)
		}
	}
	if done, dur := e.At(reqtrace.StageDevDone), e.At(reqtrace.StageDurDone); done > dur {
		t.Fatalf("last device completion %v after the primary's durability return %v: the secondary's commit was traced",
			done, dur)
	}
}
