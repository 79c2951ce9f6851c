package kvcluster

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/fault"
	"repro/internal/kvwal"
	"repro/internal/metrics"
	"repro/internal/par"
	"repro/internal/sim"
	"repro/internal/workload"
)

func TestRingDeterministicAndBalanced(t *testing.T) {
	a, b := NewRing(4), NewRing(4)
	counts := make([]int, 4)
	for i := 0; i < 10_000; i++ {
		key := fmt.Sprintf("u%07d", i)
		if a.Shard(key) != b.Shard(key) {
			t.Fatalf("ring not deterministic for %s", key)
		}
		counts[a.Shard(key)]++
	}
	for s, c := range counts {
		if c < 1500 || c > 3500 {
			t.Errorf("shard %d owns %d of 10000 keys, want near 2500", s, c)
		}
	}
}

// TestOwnersAtAllocatesItsResultOnly pins what one successor walk costs the
// host: the owner slice it returns. Its seen-set is a map that does not
// escape, which stays on the stack while it holds at most 8 owners; a walk
// for more replicas than that allocates the map too.
func TestOwnersAtAllocatesItsResultOnly(t *testing.T) {
	r := NewRing(16)
	down := func(s int) bool { return s == 1 }
	for _, n := range []int{1, 2, 3, 8} {
		if a := testing.AllocsPerRun(100, func() { r.ownersAt(12345, n, down) }); a != 1 {
			t.Errorf("ownersAt for %d owners: %v allocations, want 1", n, a)
		}
	}
}

// TestClusterRequestAllocates pins what one Put and one Get on an opened
// two-shard, two-replica cluster cost the host, every layer below
// included: a Put allocates the owner slice ownersAt returns and apply's
// batches slice, a Get the owner slice alone. downFn's closure costs
// nothing: it is inlined at both call sites, where it does not escape.
func TestClusterRequestAllocates(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	var put, get float64 = -1, -1
	k.Spawn("client", func(p *sim.Proc) {
		defer k.Stop()
		c, err := OpenCluster(p, Config{Shards: 2, Replicas: 2})
		if err != nil {
			t.Error(err)
			return
		}
		keys := make([]string, 16)
		for i := range keys {
			keys[i] = fmt.Sprintf("k%02d", i)
			if err := c.Put(p, keys[i]); err != nil {
				t.Error(err)
				return
			}
		}
		i := 0
		put = testing.AllocsPerRun(64, func() { c.Put(p, keys[i%len(keys)]); i++ })
		get = testing.AllocsPerRun(64, func() { c.Get(p, keys[i%len(keys)]); i++ })
	})
	k.Run()
	if put != 2 || get != 1 {
		t.Errorf("one Put: %v allocations, one Get: %v; want 2 and 1", put, get)
	}
}

// Consistent hashing's point: dropping one shard must remap only roughly
// that shard's share of the keyspace, not reshuffle everything.
func TestRingStabilityUnderResize(t *testing.T) {
	big, small := NewRing(8), NewRing(7)
	moved := 0
	const keys = 10_000
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("u%07d", i)
		sb, ss := big.Shard(key), small.Shard(key)
		if sb != 7 && sb != ss {
			moved++
		}
	}
	// Keys not owned by the removed shard should mostly stay put (vnode
	// granularity leaks a little).
	if frac := float64(moved) / keys; frac > 0.05 {
		t.Errorf("%.1f%% of surviving keys moved on resize, want < 5%%", frac*100)
	}
}

func TestTrafficGenerate(t *testing.T) {
	tr := Traffic{
		Arrivals:  workload.ArrivalConfig{RatePerS: 100_000, Seed: 3},
		Mix:       workload.Mix{ReadPct: 30, DeletePct: 10},
		KeySpace:  4096,
		ZipfTheta: 0.99,
		Tenants:   3,
		Warmup:    2 * sim.Millisecond,
		Duration:  10 * sim.Millisecond,
	}
	a, b := tr.Generate(), tr.Generate()
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("generate not deterministic: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("request %d differs: %+v vs %+v", i, a[i], b[i])
		}
		if i > 0 && a[i].At < a[i-1].At {
			t.Fatalf("stream not ascending at request %d", i)
		}
	}
}

// Every shard replays the one generated stream and skips what the ring
// routes elsewhere: each shard's runner must serve exactly its own requests,
// in arrival order, and count exactly its own measured requests as offered.
func TestShardRunnersServeTheirRoute(t *testing.T) {
	const shards = 3
	tr := smallTraffic(60_000).withDefaults()
	reqs := tr.Generate()
	ring := NewRing(shards)
	route := routes(reqs, ring)
	end := sim.Time(tr.Warmup + tr.Duration)

	want := make([][]Request, shards)
	wantOffered := make([]int64, shards)
	for _, r := range reqs {
		s := ring.Shard(r.Key)
		want[s] = append(want[s], r)
		if r.measured(tr) {
			wantOffered[s]++
		}
	}
	for s := range shards {
		if len(want[s]) == 0 {
			t.Fatalf("ring routes no request to shard %d", s)
		}
		k := sim.NewKernel()
		var got []Request
		run := &runner{reqs: reqs, route: route, tr: tr, idx: s, cap: 64, slo: sim.Millisecond}
		run.spawn(k, nil, func(*sim.Proc) (serveFunc, error) {
			return func(_ *sim.Proc, r Request) error {
				got = append(got, r)
				return nil
			}, nil
		})
		drive(k, []*runner{run}, end)
		k.Close()
		if !reflect.DeepEqual(got, want[s]) {
			t.Errorf("shard %d served %d requests, the ring routes it %d (or in another order)",
				s, len(got), len(want[s]))
		}
		var offered int64
		for _, n := range run.offered {
			offered += n
		}
		if offered != wantOffered[s] || int64(cap(run.samples)) != wantOffered[s] {
			t.Errorf("shard %d: offered %d, samples sized %d; the ring routes it %d measured requests",
				s, offered, cap(run.samples), wantOffered[s])
		}
	}

	for _, mode := range []Mode{ShardedStacks, MQStreams} {
		prof := core.BFSDR
		if mode == MQStreams {
			prof = core.BFSMQ
		}
		res := Run(Config{Shards: shards, Mode: mode, Profile: prof}, tr)
		for s, st := range res.PerShard {
			if st.Offered != wantOffered[s] {
				t.Errorf("%v shard %d: Offered %d, the ring routes it %d measured requests",
					mode, s, st.Offered, wantOffered[s])
			}
		}
	}
}

// aggregate sizes every recorder before it fills one, so its allocations do
// not grow with the sample count.
func TestAggregateAllocationsFlatInSamples(t *testing.T) {
	tr := smallTraffic(10_000).withDefaults()
	allocs := func(samples int) float64 {
		runs := make([]*runner, 2)
		for i := range runs {
			run := &runner{tr: tr, slo: sim.Millisecond, offered: make([]int64, tr.Tenants)}
			for n := range samples / len(runs) {
				tenant := n % tr.Tenants
				run.offered[tenant]++
				run.samples = append(run.samples, latSample{
					tenant: tenant, d: sim.Duration(n%997) * sim.Microsecond, good: n%3 != 0,
				})
			}
			runs[i] = run
		}
		return testing.AllocsPerRun(5, func() { aggregate(Result{}, runs) })
	}
	if small, large := allocs(1_000), allocs(64_000); small != large {
		t.Errorf("aggregate allocates %.0f times for 1 000 samples, %.0f for 64 000", small, large)
	}
}

func smallTraffic(rate float64) Traffic {
	return Traffic{
		Arrivals:  workload.ArrivalConfig{RatePerS: rate, Seed: 11},
		Mix:       workload.Mix{ReadPct: 20, DeletePct: 10},
		KeySpace:  2048,
		ZipfTheta: 0.9,
		Tenants:   2,
		Warmup:    4 * sim.Millisecond,
		Duration:  10 * sim.Millisecond,
	}
}

func TestClusterShardedStacksRuns(t *testing.T) {
	cfg := Config{Shards: 2, Profile: core.BFSDR}
	res := Run(cfg, smallTraffic(40_000))
	if res.Offered == 0 || res.Done == 0 {
		t.Fatalf("no measured traffic: %+v", res)
	}
	if res.Admitted+res.Shed != res.Offered {
		t.Errorf("admission accounting broken: admitted %d + shed %d != offered %d",
			res.Admitted, res.Shed, res.Offered)
	}
	if res.Done > res.Admitted {
		t.Errorf("done %d exceeds admitted %d", res.Done, res.Admitted)
	}
	if res.Latency.P99 <= 0 {
		t.Errorf("no latency distribution: %+v", res.Latency)
	}
	if len(res.PerShard) != 2 || len(res.PerTenant) != 2 {
		t.Errorf("missing breakdowns: %d shards, %d tenants",
			len(res.PerShard), len(res.PerTenant))
	}
	// Deterministic end to end.
	res2 := Run(cfg, smallTraffic(40_000))
	if res.Good != res2.Good || res.Done != res2.Done || res.Shed != res2.Shed {
		t.Errorf("run not deterministic: %+v vs %+v", res, res2)
	}
}

var recycleRuns int

// A closed shard's flash page store is the next shard's: two back-to-back
// runs of the kv-service shape, the first on fresh arrays and the second on
// the recycled ones, must report the same Result. The shards run on par.For
// goroutines that share the nand free list, so run this under -race too.
func TestRecycledArraysKeepRunsIdentical(t *testing.T) {
	defer par.SetEnabled(par.Enabled())
	par.SetEnabled(true)
	// More blocks per chip than any other test's (or an earlier -count
	// repeat's) NVMe array, so the first run cannot find a store of its
	// size already free.
	recycleRuns++
	dev := func() device.Config {
		c := device.NVMeSSD()
		c.Geometry.BlocksPerChip += recycleRuns
		return c
	}
	cfg := Config{Shards: 2, Mode: ShardedStacks, Profile: core.BFSDR, Device: dev,
		Store: kvwal.DefaultConfig(), InflightCap: 64, SLO: 2 * sim.Millisecond}
	tr := Traffic{
		Arrivals:  workload.ArrivalConfig{Kind: workload.ArrivalPoisson, RatePerS: 30_000, Seed: 1},
		Mix:       workload.Mix{ReadPct: 20, DeletePct: 12},
		KeySpace:  8192,
		ZipfTheta: 0.99,
		Tenants:   2,
		Warmup:    5 * sim.Millisecond,
		Duration:  20 * sim.Millisecond,
	}
	run := func() (Result, uint64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res := Run(cfg, tr)
		runtime.ReadMemStats(&after)
		return res, after.TotalAlloc - before.TotalAlloc
	}
	fresh, freshAlloc := run()
	recycled, recycledAlloc := run()
	if fresh.Done == 0 {
		t.Fatalf("no measured traffic: %+v", fresh)
	}
	if !reflect.DeepEqual(fresh, recycled) {
		t.Errorf("recycled arrays changed the result:\nfresh    %+v\nrecycled %+v", fresh, recycled)
	}
	store := uint64(dev().Geometry.TotalPages()) * 32 // PageMeta + interface word pair
	if freshAlloc < recycledAlloc+store {
		t.Errorf("second run allocated %d B against the first's %d B: no %d B store recycled",
			recycledAlloc, freshAlloc, store)
	}
}

func TestClusterMQStreamsRuns(t *testing.T) {
	cfg := Config{Shards: 3, Mode: MQStreams, Profile: core.BFSMQ}
	res := Run(cfg, smallTraffic(30_000))
	if res.Offered == 0 || res.Done == 0 {
		t.Fatalf("no measured traffic: %+v", res)
	}
	if res.Admitted+res.Shed != res.Offered {
		t.Errorf("admission accounting broken: %+v", res)
	}
	if got := len(res.PerShard); got != 3 {
		t.Errorf("want 3 shard rows, got %d", got)
	}
	for _, s := range res.PerShard {
		if s.Done == 0 {
			t.Errorf("shard %d executed nothing (stream isolation broken?)", s.Shard)
		}
	}
}

// Overload with a tiny admission window must shed rather than queue without
// bound, and everything still has to add up.
func TestAdmissionControlSheds(t *testing.T) {
	cfg := Config{Shards: 1, Profile: core.EXT4DR, InflightCap: 2}
	res := Run(cfg, smallTraffic(120_000))
	if res.Shed == 0 {
		t.Fatalf("expected shedding under overload: %+v", res)
	}
	if res.Admitted+res.Shed != res.Offered {
		t.Errorf("admission accounting broken: %+v", res)
	}
}

// A read whose segment page fails hard is a failed request, not a good one:
// on a device that corrupts nine host reads in ten, with segments evicted so
// reads face the medium, the unreplicated service must report Good < Done.
func TestShardedRunCountsFailedReads(t *testing.T) {
	reg := metrics.NewRegistry()
	store := kvwal.DefaultConfig()
	store.MemtableCap = 16
	store.EvictSegments = true
	res := Run(Config{
		Shards: 2,
		Mode:   ShardedStacks,
		Device: func() device.Config {
			d := device.NVMeSSD()
			d.Fault = &fault.Plan{Seed: 101, ReadUNCProb: 0.9}
			return d
		},
		Store:   store,
		Metrics: reg,
	}, Traffic{
		Arrivals: workload.ArrivalConfig{RatePerS: 40_000, Seed: 1},
		Mix:      workload.Mix{ReadPct: 60},
		KeySpace: 256, // small, so most reads find their key in a segment
		Duration: 10 * sim.Millisecond,
	})
	errs := reg.Counter("device/read.errors").Value()
	t.Logf("device/read.errors = %d, done = %d, good = %d", errs, res.Done, res.Good)
	if errs == 0 {
		t.Fatal("the fault plan surfaced no read error; the probe tests nothing")
	}
	if res.Done == 0 || res.Good >= res.Done {
		t.Errorf("done = %d, good = %d: hard read errors counted as successes", res.Done, res.Good)
	}
}

// TestKeyNames: every generated request names its key in the
// fmt.Sprintf("u%07d") form, with the key inside the key space.
func TestKeyNames(t *testing.T) {
	tr := smallTraffic(200_000)
	reqs := tr.Generate()
	if len(reqs) == 0 {
		t.Fatal("no requests generated")
	}
	for i, r := range reqs {
		var k int
		if _, err := fmt.Sscanf(r.Key, "u%07d", &k); err != nil || k < 0 || k >= tr.KeySpace {
			t.Fatalf("request %d: key %q is not u%%07d below %d", i, r.Key, tr.KeySpace)
		}
		if want := fmt.Sprintf("u%07d", k); r.Key != want {
			t.Fatalf("request %d: key %q, want %q", i, r.Key, want)
		}
	}
}
