package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/kvcluster"
	"repro/internal/kvwal"
	"repro/internal/reqtrace"
	"repro/internal/sim"
	"repro/internal/workload"
)

// kv-service: the sharded KV service (kvcluster.Run, two stack-per-shard
// BFS-DR shards on the NVMe-class device) under open-loop Poisson arrivals,
// Zipf 0.99 over 8192 keys (the hot set fits memtable and page cache), about
// 70 % put / 20 % get / 10 % delete, two tenants, 64 requests in flight per
// shard, latency limit p99 <= 2 ms measured from each request's due time.
// Arrivals are generated ahead of the run in virtual time, so the generator
// is never late. One op is one offered request. The timed rung is
// kvsTimedRate; throughput is goodput at the kvsOverload rung, beyond
// saturation, where admission sheds. The baseline is EXT4-DR.
//
// Why: the only workload where kvcluster admission, dispatch and workers and
// kvwal group commit carry the load, and the one open-loop workload, where
// queueing makes latency rise before throughput stops.
const (
	kvsShards      = 2
	kvsTimedRate   = 30000
	kvsOverload    = 160000
	kvsWarmup      = 50 * sim.Millisecond
	kvsTimedWindow = 800 * sim.Millisecond
	kvsRungWindow  = 150 * sim.Millisecond
	kvsSLO         = 2 * sim.Millisecond
)

// kvsLadder is the rate ladder of the traced run, in requests per second.
var kvsLadder = []int{30000, 40000, 50000, 60000, 70000, 80000, 100000, 120000, kvsOverload}

func rungName(rate int) string { return fmt.Sprintf("r%dk", rate/1000) }

func kvsTraffic(seed int64, rate int, window sim.Duration) kvcluster.Traffic {
	return kvcluster.Traffic{
		Arrivals:  workload.ArrivalConfig{Kind: workload.ArrivalPoisson, RatePerS: float64(rate), Seed: seed},
		Mix:       workload.Mix{ReadPct: 20, DeletePct: 12},
		KeySpace:  8192,
		ZipfTheta: 0.99,
		Tenants:   2,
		Warmup:    kvsWarmup,
		Duration:  window,
	}
}

func kvsConfig(baseline bool) kvcluster.Config {
	cfg := kvcluster.Config{Shards: kvsShards, Mode: kvcluster.ShardedStacks, Profile: core.BFSDR,
		Device: device.NVMeSSD, Store: kvwal.DefaultConfig(), InflightCap: 64, SLO: kvsSLO}
	if baseline {
		cfg.Profile = core.EXT4DR
	}
	return cfg
}

// kvsRung runs one untimed rung and returns its result.
func kvsRung(seed int64, rate int, window sim.Duration, baseline bool) kvcluster.Result {
	return kvcluster.Run(kvsConfig(baseline), kvsTraffic(seed, rate, window))
}

// kvsThroughput is kv-service's sim_ops_per_s: goodput at the overload rung.
func kvsThroughput(seed int64, scale float64, baseline bool) float64 {
	return kvsRung(seed, kvsOverload, kvsRungWindow.Scale(scale), baseline).GoodputPerS
}

func runKVService(seed int64, scale float64, mode passMode) *pass {
	ps := newPass(mode, kvsTimedWindow.Scale(scale))
	cfg := kvsConfig(mode == passBaseline)
	tr := kvsTraffic(seed, kvsTimedRate, ps.win)
	if ps.traced() {
		cfg.Metrics, cfg.Store.Metrics = ps.reg, ps.reg
		cfg.Trace = &reqtrace.Config{Uniform: 1, Max: 1 << 20}
	}
	// Run owns its kernels; the one hook it offers fires as each shard's
	// kernel is built, which splits the call's CPU time into traffic
	// generation, shard 0, and shard 1 with the aggregation.
	var marks []time.Duration
	cfg.NewKernel = func(string) *sim.Kernel {
		marks = append(marks, cpuNow())
		return sim.NewKernel()
	}
	// Set-up is a run of its own that stops where the measured window would
	// begin: traffic generation, stacks, store open, warm-up.
	if !ps.traced() {
		probe := tr
		probe.Duration = sim.Microsecond
		start := readHost()
		kvcluster.Run(cfg, probe)
		ps.setup = readHost().since(start)
		marks = marks[:0]
	}

	start := readHost()
	res := kvcluster.Run(cfg, tr)
	ps.window = readHost().since(start)
	marks = append(marks, start.cpu+ps.window.cpu)
	last := start.cpu
	for _, m := range marks {
		ps.chunks = append(ps.chunks, m-last)
		last = m
	}

	ps.ops = res.Offered
	ps.attempted = res.Offered
	ps.failed = res.Shed + (res.Admitted - res.Done)
	if res.Offered != res.Admitted+res.Shed {
		ps.fail("kv-service: offered %d != admitted %d + shed %d", res.Offered, res.Admitted, res.Shed)
	}
	if res.Done != res.Admitted {
		ps.fail("kv-service: %d admitted requests, %d done after the drain", res.Admitted, res.Done)
	}
	ps.p50, ps.p99, ps.samples = res.Latency.Median*1000, res.Latency.P99*1000, int64(res.Latency.Count)
	ps.dg.i64(res.Offered, res.Admitted, res.Shed, res.Done, res.Good)
	ps.dg.f64(res.Latency.Mean, res.Latency.Median, res.Latency.P99, res.Latency.Max)
	for _, sh := range res.PerShard {
		ps.dg.i64(sh.Offered, sh.Done, sh.Good)
		ps.dg.f64(sh.P99)
	}
	if ps.traced() {
		kvsLayers(ps, res, int64(len(tr.Generate())))
	}
	ps.seal()
	return ps
}

// kvsLayers fills the per-layer metrics of the traced rung. The stacks are
// private to Run, so counts come from the registry and cover the whole call
// (store open, warm-up and window): they are divided by every request
// offered, all of them, not only the measured ones. Latencies and shares come
// from the request-trace exemplars of the write-class requests.
func kvsLayers(ps *pass, res kvcluster.Result, offeredAll int64) {
	n := float64(offeredAll)
	c := func(name string) float64 { return float64(ps.reg.Counter(name).Value()) }
	ks := countKernel(ps.reg.KernelStats())
	walPages := c("kvwal/wal.bytes") / 4096
	ps.userPages = int64(walPages)
	ps.nandPrograms = int64(c("device/writes")) // see README: device page writes stand in on this workload
	m := map[string]float64{
		"sim.events_per_op":            ratio(float64(ks.events()), n),
		"sim.goroutine_dispatch_share": ratio(float64(ks.goroutine), float64(ks.events())),
		"sim.stale_events_per_op":      ratio(float64(ks.stale), n),
		"sim.pool_misses":              float64(ks.poolMisses),
		"device.writes_per_op":         ratio(c("device/writes"), n),
		"device.flushes_per_op":        ratio(c("device/flushes"), n),
		"device.barriers_per_op":       ratio(c("device/barriers"), n),
		"device.fua_per_op":            ratio(c("device/fua"), n),
		"device.reads_per_op":          ratio(c("device/reads"), n),
		"block.retries":                c("block/retries"),
		"block.io_errors":              c("block/io.errors"),
		"jbd.commits_per_op":           ratio(c("jbd/commits"), n),
		"jbd.checkpoints":              c("jbd/checkpoints"),
		"jbd.conflict_parks":           c("jbd/conflict.parks"),
		"jbd.conflict_blocks":          c("jbd/conflict.blocks"),
		"fs.pdflush_runs":              c("fs/pdflush.runs"),
		"kvwal.group_size_mean":        ps.reg.Hist("kvwal/group.size").Mean(),
		"kvwal.group_commits_per_op":   ratio(c("kvwal/group.commits"), n),
		"kvwal.wal_bytes_per_op":       ratio(c("kvwal/wal.bytes"), n),
		"kvwal.compactions":            c("kvwal/compactions"),
	}
	var maxOffered, sumOffered int64
	for _, sh := range res.PerShard {
		maxOffered = max(maxOffered, sh.Offered)
		sumOffered += sh.Offered
	}
	m["kvcluster.shard_imbalance"] = ratio(float64(maxOffered), float64(sumOffered)/float64(len(res.PerShard)))
	for _, st := range reqtrace.AnalyzeTop(res.Exemplars) {
		m["kvcluster."+st.Stage+"_share"] = st.SharePct / 100
	}
	for _, st := range reqtrace.AnalyzeSub(res.Exemplars) {
		m["kvcluster.dur_"+st.Stage+"_share"] = st.SharePct / 100
	}

	var queue, inflight, service, total latencies
	for i, e := range res.Exemplars {
		total = append(total, e.Total)
		q, d, done := e.At(reqtrace.StageBlockQueue), e.At(reqtrace.StageBlockDispatch), e.At(reqtrace.StageDevDone)
		if e.Has(reqtrace.StageBlockQueue) && e.Has(reqtrace.StageBlockDispatch) && q <= d {
			queue = append(queue, d.Sub(q))
			if e.Has(reqtrace.StageDevDone) && d <= done {
				inflight = append(inflight, done.Sub(q))
				service = append(service, done.Sub(d))
			}
		}
		if i < maxTraceSpans/8 {
			ps.tr.exemplarSpans(e)
		}
	}
	m["kvwal.put_us_p99"] = total.pct(99)
	m["block.queue_us_p50"], m["block.queue_us_p99"] = queue.pct(50), queue.pct(99)
	m["block.inflight_us_p50"], m["block.inflight_us_p99"] = inflight.pct(50), inflight.pct(99)
	m["device.service_us_p50"], m["device.service_us_p99"] = service.pct(50), service.pct(99)
	ps.layers = m
}

// kvsLadderLayers runs the rate ladder once and reports shed share and p99
// per rung, and the highest rate at which at least 99 % of the requests
// offered completed within the latency limit. A request shed or left undone
// counts as a miss; admission bounds the backlog, so overload shows as shed.
func kvsLadderLayers(m map[string]float64, seed int64, scale float64) {
	best := 0
	for _, rate := range kvsLadder {
		res := kvsRung(seed, rate, kvsRungWindow.Scale(scale), false)
		m["kvcluster.shed_pct."+rungName(rate)] = 100 * ratio(float64(res.Shed), float64(res.Offered))
		m["kvcluster.p99_us."+rungName(rate)] = res.Latency.P99 * 1000
		if float64(res.Good) >= 0.99*float64(res.Offered) && rate > best {
			best = rate
		}
	}
	m[metricMaxRate] = float64(best)
}
