// Package kvcluster is a sharded, barrier-enabled key-value service under
// open-loop planetary traffic: N kvwal stores behind a consistent-hash
// router, each shard group-committing on its own barrier-enabled IO stack.
// One Config describes the service; its Mode maps the shards onto hardware:
//
//   - ShardedStacks: one simulated device + stack per shard (one kernel
//     each, fanned out with internal/par) — the scale-out rack.
//   - MQStreams: every shard is a filesystem mounted on ONE multi-queue
//     device, each with its own journal area and its own block-layer order
//     stream (block.OrderStream(i)), so per-shard barriers constrain only
//     that shard's epoch stream — the paper's multi-stream SSD shape.
//   - Replicated: every shard is a full stack in ONE kernel behind a
//     Cluster that writes each key to Replicas successor-list replicas,
//     fails reads over past media errors and dead shards, and rebalances
//     live (Resize, ReplaceShard).
//
// Traffic is open loop: arrivals are offered at their own pace (Poisson or
// bursty), keys are Zipfian, and an admission controller bounds
// inflight requests, shedding (and counting) the excess instead of letting
// the closed-loop illusion hide queueing collapse. One runner (runner.go)
// plays that loop for every shape — per shard for the first two, cluster
// wide for the third; Run and RunResize only build the backend it serves
// from and fold its samples into a Result. The payoff under test: at equal
// p99 SLO, barrier-engine shards sustain more goodput than
// Transfer-and-Flush shards, because each group commit costs a dispatch
// instead of a flush round trip.
package kvcluster

import (
	"fmt"
	"runtime"
	"strconv"
	"strings"

	"repro/internal/block"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/fs"
	"repro/internal/kvwal"
	"repro/internal/metrics"
	"repro/internal/par"
	"repro/internal/reqtrace"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Mode selects how shards map onto simulated hardware.
type Mode int

// Deployment shapes.
const (
	// ShardedStacks gives every shard its own device and IO stack in its
	// own kernel.
	ShardedStacks Mode = iota
	// MQStreams mounts every shard as a filesystem on one shared
	// multi-queue device, each on its own order stream.
	MQStreams
	// Replicated runs every shard as a full stack in one kernel with
	// Replicas-way successor-list replication, served through a Cluster
	// (OpenCluster, RunResize).
	Replicated
)

func (m Mode) String() string {
	switch m {
	case MQStreams:
		return "mq-streams"
	case Replicated:
		return "replicated"
	}
	return "sharded"
}

// mqShardStride is the LPA stride between shard filesystems in MQStreams
// mode: shard i's journal superblock sits at i*stride and its data area
// grows within the stride (1M pages ≈ 4 GiB, far beyond any run here).
const mqShardStride uint64 = 1 << 20

// Config parameterizes a cluster in any Mode.
type Config struct {
	// Shards is the shard count (default 4).
	Shards int
	// Mode is the deployment shape.
	Mode Mode
	// Replicas is the replication factor of the Replicated shape: each key
	// lives on Replicas distinct shards, primary first (default 2, clamped
	// to Shards).
	Replicas int
	// Profile builds the per-shard stack profile (default core.BFSDR; in
	// MQStreams mode MQQueues is forced on if the profile leaves it 0).
	Profile func(device.Config) core.Profile
	// Device builds a device config (default device.NVMeSSD).
	Device func() device.Config
	// ShardDevice, when non-nil, builds shard i's device in the shapes where
	// a shard owns one (ShardedStacks, Replicated) in place of Device, so
	// fault personalities can differ — e.g. media errors on the primary only.
	ShardDevice func(i int) device.Config
	// Store is the per-shard kvwal configuration.
	Store kvwal.Config
	// Migrate bounds live-rebalancing copy bandwidth (see MigrateConfig).
	Migrate MigrateConfig
	// InflightCap is the admission controller's outstanding request bound:
	// per shard in the sharded shapes, cluster-wide in Replicated. Arrivals
	// beyond it are shed and counted (default 64).
	InflightCap int
	// SLO is the per-request latency objective goodput is measured
	// against (default 2ms).
	SLO sim.Duration
	// Metrics is an explicit observability registry; nil falls back to
	// the process-wide live registry. Shards register their admission
	// instruments under a "kvcluster/shard=<i>/" prefix, a Replicated
	// cluster's runner under "kvcluster/cluster/".
	Metrics *metrics.Registry
	// NewKernel builds the run's kernels (default sim.NewKernel); the
	// experiment driver injects its span-capturing choke point here.
	NewKernel func(label string) *sim.Kernel
	// Trace, when non-nil, samples per-request causal traces: the
	// dispatcher allocates a context at admission for write-class requests,
	// the context rides the whole IO stack (in Replicated, the first live
	// replica's), and the runner's sampler keeps tail-biased exemplars (see
	// internal/reqtrace). Nil disables tracing and compiles to the
	// zero-context no-op paths.
	Trace *reqtrace.Config
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 4
	}
	if c.Replicas <= 0 {
		c.Replicas = 2
	}
	c.Replicas = min(c.Replicas, c.Shards)
	if c.Profile == nil {
		c.Profile = core.BFSDR
	}
	if c.Device == nil {
		c.Device = device.NVMeSSD
	}
	if c.Store.WALPages == 0 {
		c.Store = kvwal.DefaultConfig()
	}
	if c.InflightCap <= 0 {
		c.InflightCap = 64
	}
	if c.SLO <= 0 {
		c.SLO = 2 * sim.Millisecond
	}
	if c.NewKernel == nil {
		c.NewKernel = func(string) *sim.Kernel { return sim.NewKernel() }
	}
	return c
}

// shardDevice builds shard i's device: ShardDevice's when set, else Device's.
func (c Config) shardDevice(i int) device.Config {
	if c.ShardDevice != nil {
		return c.ShardDevice(i)
	}
	return c.Device()
}

// ShardStats is one shard's measured-window admission and latency outcome.
type ShardStats struct {
	Shard    int
	Offered  int64
	Admitted int64
	Shed     int64
	Done     int64
	Good     int64 // completed within SLO
	P99      float64
}

// TenantStats is one tenant's SLO accounting: shed requests count against
// the SLO (an unserved request cannot have met it).
type TenantStats struct {
	Tenant  int
	Offered int64
	Good    int64
	P50     float64
	P99     float64
	SLOPct  float64
}

// Result is one cluster run's measured-window outcome.
type Result struct {
	Engine      string
	Mode        Mode
	Shards      int
	OfferedPerS float64
	SLOms       float64
	Offered     int64
	Admitted    int64
	Shed        int64
	Done        int64
	Good        int64
	GoodputPerS float64
	SLOPct      float64
	Latency     metrics.Summary
	PerShard    []ShardStats
	PerTenant   []TenantStats
	// Exemplars are the sampled request traces (empty unless the run
	// enabled tracing); TraceDropped counts keeps lost to the sampler cap.
	Exemplars    []reqtrace.Exemplar
	TraceDropped int
}

// Report renders a human-readable SLO report.
func (r Result) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "kvcluster %s (%s, %d shards) offered %.0f req/s, SLO %.2fms\n",
		r.Engine, r.Mode, r.Shards, r.OfferedPerS, r.SLOms)
	fmt.Fprintf(&b, "  offered=%d admitted=%d shed=%d done=%d good=%d\n",
		r.Offered, r.Admitted, r.Shed, r.Done, r.Good)
	fmt.Fprintf(&b, "  goodput %.0f req/s  SLO-attainment %.1f%%  p50=%.3fms p99=%.3fms p99.9=%.3fms\n",
		r.GoodputPerS, r.SLOPct, r.Latency.Median, r.Latency.P99, r.Latency.P999)
	for _, s := range r.PerShard {
		fmt.Fprintf(&b, "  shard %d: offered=%d shed=%d good=%d p99=%.3fms\n",
			s.Shard, s.Offered, s.Shed, s.Good, s.P99)
	}
	for _, t := range r.PerTenant {
		fmt.Fprintf(&b, "  tenant %d: offered=%d good=%d p50=%.3fms p99=%.3fms slo=%.1f%%\n",
			t.Tenant, t.Offered, t.Good, t.P50, t.P99, t.SLOPct)
	}
	return b.String()
}

// spawnShard wires shard idx's runner into k, serving from a kvwal store
// opened on mount. Shards sample traces into a sampler each.
func (c Config) spawnShard(k *sim.Kernel, idx int, reqs []Request, route []uint8, tr Traffic, mount *fs.FS) *runner {
	run := &runner{
		reqs: reqs, route: route, tr: tr, idx: idx,
		instruments: "kvcluster/shard=" + strconv.Itoa(idx) + "/",
		cap:         c.InflightCap, slo: c.SLO,
	}
	if c.Trace != nil {
		run.smp = reqtrace.NewSampler(*c.Trace)
	}
	// The opener captures the store config alone: Config is larger than the
	// 128 bytes a closure captures by value, so capturing c would move it
	// to the heap.
	store := c.Store
	run.spawn(k, c.Metrics, func(p *sim.Proc) (serveFunc, error) {
		st, err := kvwal.OpenFS(p, mount, store)
		if err != nil {
			return nil, err
		}
		return func(p *sim.Proc, r Request) error {
			switch r.Class {
			case workload.ClassGet:
				_, _, err := st.GetE(p, r.Key) // a hard media error fails the request
				return err
			case workload.ClassDelete:
				st.Apply(p, []kvwal.Op{{Kind: kvwal.Delete, Key: r.Key}})
			default:
				st.Apply(p, []kvwal.Op{{Kind: kvwal.Put, Key: r.Key}})
			}
			return nil
		}, nil
	})
	return run
}

// Run drives one cluster under one traffic description and reports the
// measured-window outcome. Everything is deterministic under the traffic
// seed: the request stream is pre-generated and replayed open loop — per
// shard in the sharded shapes, each shard skipping the requests the ring
// routes elsewhere, and by one cluster-wide runner in Replicated.
func Run(cfg Config, tr Traffic) Result {
	if cfg.Mode == Replicated {
		cr := newClusterRun(cfg, tr, "replicated")
		defer cr.k.Close()
		cr.drive()
		return cr.result()
	}
	cfg = cfg.withDefaults()
	tr = tr.withDefaults()
	reqs := tr.Generate()
	route := routes(reqs, NewRing(cfg.Shards))
	runs := make([]*runner, cfg.Shards)
	end := sim.Time(tr.Warmup + tr.Duration)

	if cfg.Mode == MQStreams {
		runMQStreams(cfg, tr, reqs, route, runs, end)
	} else {
		sh := &shardRuns{cfg: cfg, tr: tr, reqs: reqs, route: route, end: end, runs: runs}
		par.ForWith(cfg.Shards, sh, (*shardRuns).run)
	}
	res := Result{Engine: cfg.Profile(cfg.Device()).Name, Mode: cfg.Mode, Shards: cfg.Shards}
	return aggregate(res, runs)
}

// shardRuns is what the shard runs of one sharded Run share, handed to each
// by pointer: a closure over Config, which is wider than the 128 bytes a
// closure captures by value, would move it to the heap besides itself.
type shardRuns struct {
	cfg   Config
	tr    Traffic
	reqs  []Request
	route []uint8
	end   sim.Time
	runs  []*runner
}

// run runs shard idx and keeps its runner.
func (sh *shardRuns) run(idx int) {
	sh.runs[idx] = sh.runShardStack(idx)
	if !par.Enabled() {
		// One after another: the flash page store of a closed shard is the
		// next shard's (nand recycles it), but the rest of the machine —
		// stack, caches, store, traces — is garbage the moment its kernel
		// closes. Collect it here, not when the pacer next fires: a
		// collection still marking at this instant counts the dead machine
		// and the next one as live together, the heap goal stays that much
		// higher for the whole next shard, and kv-service's peak memory
		// reads 56 MB rather than 42.
		runtime.GC()
	}
}

// runShardStack runs shard idx on its own device, stack and kernel.
func (sh *shardRuns) runShardStack(idx int) *runner {
	cfg := &sh.cfg
	prof := cfg.Profile(cfg.shardDevice(idx))
	if prof.Metrics == nil {
		prof.Metrics = cfg.Metrics
	}
	k := cfg.NewKernel(fmt.Sprintf("kvcluster/%s/shard%d", prof.Name, idx))
	defer k.Close()
	run := cfg.spawnShard(k, idx, sh.reqs, sh.route, sh.tr, core.NewStack(k, prof).FS)
	drive(k, []*runner{run}, sh.end)
	return run
}

// runMQStreams runs every shard as a filesystem on one shared multi-queue
// device: shard i's journal lives at LPA i*stride and rides order stream
// block.OrderStream(i), so barriers order only their own shard's epochs
// while all shards share the device's hardware queues.
func runMQStreams(cfg Config, tr Traffic, reqs []Request, route []uint8, runs []*runner, end sim.Time) {
	prof := cfg.Profile(cfg.Device())
	if prof.MQQueues == 0 {
		prof.MQQueues = 4
	}
	if prof.Metrics == nil {
		prof.Metrics = cfg.Metrics
	}
	k := cfg.NewKernel(fmt.Sprintf("kvcluster/%s/mq-streams", prof.Name))
	defer k.Close()
	s := core.NewStack(k, prof)
	for i := range runs {
		mount := s.FS
		if i > 0 {
			opts := prof.FS
			base := uint64(i) * mqShardStride
			opts.Journal.SuperLPA = base
			opts.Journal.Start = base + 1
			opts.Journal.Stream = block.OrderStream(i)
			mount = fs.New(k, s.Front, opts)
		}
		runs[i] = cfg.spawnShard(k, i, reqs, route, tr, mount)
	}
	drive(k, runs, end)
}

// aggregate folds the runners' samples into res, which arrives carrying the
// run's identity (Engine, Mode, Shards). The runners of one run share their
// traffic description and SLO. A first pass counts every recorder's samples,
// so each is filled at its final size.
func aggregate(res Result, runs []*runner) Result {
	tr := runs[0].tr
	res.SLOms = float64(runs[0].slo) / float64(sim.Millisecond)
	tenantOffered := make([]int64, tr.Tenants)
	tenantDone := make([]int, len(tenantOffered))
	done := 0
	for _, out := range runs {
		for t, n := range out.offered {
			tenantOffered[t] += n
		}
		for _, s := range out.samples {
			tenantDone[s.tenant]++
		}
		done += len(out.samples)
	}
	cluster := metrics.NewLatencyRecorder("kvcluster/latency")
	cluster.Grow(done)
	tenantGood := make([]int64, len(tenantOffered))
	tenantRec := make([]*metrics.LatencyRecorder, len(tenantOffered))
	for i := range tenantRec {
		tenantRec[i] = metrics.NewLatencyRecorder("kvcluster/tenant=" + strconv.Itoa(i))
		tenantRec[i].Grow(tenantDone[i])
	}
	res.PerShard = make([]ShardStats, 0, len(runs))
	for i, out := range runs {
		shardRec := metrics.NewLatencyRecorder("kvcluster/shard=" + strconv.Itoa(i))
		shardRec.Grow(len(out.samples))
		var offered, good int64
		for _, n := range out.offered {
			offered += n
		}
		for _, s := range out.samples {
			cluster.Record(s.d)
			shardRec.Record(s.d)
			tenantRec[s.tenant].Record(s.d)
			if s.good {
				good++
				tenantGood[s.tenant]++
			}
		}
		res.Offered += offered
		res.Admitted += out.admitted
		res.Shed += out.shed
		res.Done += int64(len(out.samples))
		res.Good += good
		res.Exemplars = append(res.Exemplars, out.smp.Take()...)
		res.TraceDropped += out.smp.Dropped()
		res.PerShard = append(res.PerShard, ShardStats{
			Shard: i, Offered: offered, Admitted: out.admitted,
			Shed: out.shed, Done: int64(len(out.samples)), Good: good,
			P99: shardRec.Summarize().P99,
		})
	}
	res.Latency = cluster.Summarize()
	res.OfferedPerS = metrics.Rate(res.Offered, tr.Duration)
	res.GoodputPerS = metrics.Rate(res.Good, tr.Duration)
	if res.Offered > 0 {
		res.SLOPct = 100 * float64(res.Good) / float64(res.Offered)
	}
	res.PerTenant = make([]TenantStats, 0, len(tenantOffered))
	for t := range tenantOffered {
		sum := tenantRec[t].Summarize()
		ts := TenantStats{
			Tenant: t, Offered: tenantOffered[t], Good: tenantGood[t],
			P50: sum.Median, P99: sum.P99,
		}
		if ts.Offered > 0 {
			ts.SLOPct = 100 * float64(ts.Good) / float64(ts.Offered)
		}
		res.PerTenant = append(res.PerTenant, ts)
	}
	return res
}
