// Package repro_test holds the benchmark harness: one testing.B benchmark
// per table/figure of the paper's evaluation. The benchmarks report
// simulated-workload metrics (IOPS, ops/s, Tx/s, µs latency, context
// switches) via b.ReportMetric; wall-clock ns/op measures simulator speed,
// not storage performance.
//
// Regenerate everything with:
//
//	go test -bench=. -benchmem
package repro_test

import (
	"fmt"
	"runtime"
	"sort"
	"testing"
	"time"

	"repro/internal/blkmq"
	"repro/internal/block"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/experiments"
	"repro/internal/fs"
	"repro/internal/kvcluster"
	"repro/internal/kvwal"
	"repro/internal/metrics"
	"repro/internal/oltp"
	"repro/internal/sim"
	"repro/internal/sqlmini"
	"repro/internal/workload"
)

// BenchmarkFig1 sweeps the seven devices of Fig. 1, reporting the
// ordered/buffered IOPS ratio.
func BenchmarkFig1(b *testing.B) {
	for i := 0; i < device.NumFig1Devices; i++ {
		i := i
		cfg := device.Fig1Device(i)
		b.Run(cfg.Name, func(b *testing.B) {
			var ratio, buffered float64
			for n := 0; n < b.N; n++ {
				res := experiments.Fig1Device(i)
				ratio, buffered = res.RatioPercent, res.BufferedIOPS
			}
			b.ReportMetric(ratio, "ordered/buffered-%")
			b.ReportMetric(buffered, "buffered-IOPS")
		})
	}
}

// BenchmarkFig9 runs the 4KB random-write matrix.
func BenchmarkFig9(b *testing.B) {
	devices := map[string]func() device.Config{
		"UFS": device.UFS, "plainSSD": device.PlainSSD, "supercapSSD": device.SupercapSSD,
	}
	for devName, dev := range devices {
		for _, po := range []workload.Policy{workload.PolicyXnF, workload.PolicyX, workload.PolicyB, workload.PolicyP} {
			po := po
			dev := dev
			b.Run(fmt.Sprintf("%s/%s", devName, po), func(b *testing.B) {
				var last workload.RandWriteResult
				for n := 0; n < b.N; n++ {
					last = randWriteOnce(dev(), po)
				}
				b.ReportMetric(last.PerS, "IOPS")
				b.ReportMetric(last.MeanQD, "meanQD")
			})
		}
	}
}

func randWriteOnce(cfg device.Config, po workload.Policy) workload.RandWriteResult {
	var prof core.Profile
	switch po {
	case workload.PolicyXnF:
		prof = core.EXT4DR(cfg)
	case workload.PolicyX:
		prof = core.EXT4OD(cfg)
	case workload.PolicyB:
		prof = core.BFSOD(cfg)
	default:
		prof = core.EXT4OD(cfg)
	}
	k := sim.NewKernel()
	defer k.Close()
	s := core.NewStack(k, prof)
	wcfg := workload.DefaultRandWrite(po)
	wcfg.Duration = 60 * sim.Millisecond
	wcfg.Warmup = 10 * sim.Millisecond
	wcfg.FilePages = 512
	return workload.RandWrite(k, s, wcfg)
}

// BenchmarkTable1 measures fsync latency on each (device, filesystem) pair;
// each b.N iteration is one write+fsync in virtual time.
func BenchmarkTable1(b *testing.B) {
	cases := []struct {
		name string
		prof core.Profile
	}{
		{"UFS/EXT4", core.EXT4DR(device.UFS())},
		{"UFS/BFS", core.BFSDR(device.UFS())},
		{"plainSSD/EXT4", core.EXT4DR(device.PlainSSD())},
		{"plainSSD/BFS", core.BFSDR(device.PlainSSD())},
		{"supercapSSD/EXT4", core.EXT4DR(device.SupercapSSD())},
		{"supercapSSD/BFS", core.BFSDR(device.SupercapSSD())},
	}
	for _, c := range cases {
		c := c
		b.Run(c.name, func(b *testing.B) {
			k := sim.NewKernel()
			defer k.Close()
			s := core.NewStack(k, c.prof)
			rec := metrics.NewLatencyRecorder(c.name)
			k.Spawn("app", func(p *sim.Proc) {
				f, err := s.FS.Create(p, s.FS.Root(), "bench.dat")
				if err != nil {
					panic(err)
				}
				for i := 0; i < b.N; i++ {
					s.FS.Write(p, f, int64(i))
					t0 := p.Now()
					s.FS.Fsync(p, f)
					rec.Record(sim.Duration(p.Now() - t0))
				}
				k.Stop()
			})
			k.Run()
			b.ReportMetric(rec.Mean().Micros(), "sim-µs/fsync")
			b.ReportMetric(rec.Percentile(99).Micros(), "sim-µs/p99")
		})
	}
}

// BenchmarkFig11 reports voluntary context switches per sync call.
func BenchmarkFig11(b *testing.B) {
	cases := []struct {
		name string
		prof core.Profile
	}{
		{"EXT4-DR", core.EXT4DR(device.UFS())},
		{"BFS-DR", core.BFSDR(device.UFS())},
		{"EXT4-OD", core.EXT4OD(device.UFS())},
		{"BFS-OD", core.BFSOD(device.UFS())},
	}
	for _, c := range cases {
		c := c
		b.Run(c.name, func(b *testing.B) {
			k := sim.NewKernel()
			defer k.Close()
			s := core.NewStack(k, c.prof)
			var meter metrics.SwitchMeter
			k.Spawn("app", func(p *sim.Proc) {
				f, err := s.FS.Create(p, s.FS.Root(), "bench.dat")
				if err != nil {
					panic(err)
				}
				s.FS.Write(p, f, 0)
				s.FS.Fsync(p, f)
				for i := 0; i < b.N; i++ {
					s.FS.Write(p, f, 0)
					meter.Begin(p)
					s.Sync(p, f)
					meter.End(p)
				}
				k.Stop()
			})
			k.Run()
			b.ReportMetric(meter.PerOp(), "switches/op")
		})
	}
}

// BenchmarkFig12 reports peak queue depth under fsync vs fbarrier.
func BenchmarkFig12(b *testing.B) {
	var res experiments.Fig12Result
	for n := 0; n < b.N; n++ {
		res = experiments.Fig12(experiments.Quick)
	}
	b.ReportMetric(res.FsyncPeakQD, "fsync-peakQD")
	b.ReportMetric(res.FbarrierPeakQD, "fbarrier-peakQD")
}

// BenchmarkFig10 reports the mean queue depth of the two Fig. 10 modes.
func BenchmarkFig10(b *testing.B) {
	var rs []experiments.Fig10Result
	for n := 0; n < b.N; n++ {
		rs = experiments.Fig10(experiments.Quick)
	}
	b.ReportMetric(rs[0].XMeanQD, "WoT-meanQD")
	b.ReportMetric(rs[0].BMeanQD, "barrier-meanQD")
}

// BenchmarkFig8 reports the inter-commit interval of the four journaling
// modes.
func BenchmarkFig8(b *testing.B) {
	var res experiments.Fig8Result
	for n := 0; n < b.N; n++ {
		res = experiments.Fig8(experiments.Quick)
	}
	units := []string{"barrierfs-µs", "noflush-µs", "quickflush-µs", "fullflush-µs"}
	for i, row := range res.Rows {
		b.ReportMetric(row.IntervalUs, units[i])
	}
}

// BenchmarkFig13 runs the DWSL scalability points.
func BenchmarkFig13(b *testing.B) {
	for _, mk := range []struct {
		name string
		prof func(device.Config) core.Profile
	}{{"EXT4-DR", core.EXT4DR}, {"BFS-DR", core.BFSDR}} {
		for _, th := range []int{1, 4, 8} {
			mk, th := mk, th
			b.Run(fmt.Sprintf("%s/threads=%d", mk.name, th), func(b *testing.B) {
				var ops float64
				for n := 0; n < b.N; n++ {
					k := sim.NewKernel()
					s := core.NewStack(k, mk.prof(device.PlainSSD()))
					cfg := workload.DefaultDWSL(th)
					cfg.Duration = 60 * sim.Millisecond
					cfg.Warmup = 10 * sim.Millisecond
					ops = workload.DWSL(k, s, cfg).PerS
					k.Close()
				}
				b.ReportMetric(ops, "ops/s")
			})
		}
	}
}

// BenchmarkFig14 runs the SQLite matrix.
func BenchmarkFig14(b *testing.B) {
	cases := []struct {
		name string
		prof core.Profile
		mode sqlmini.JournalMode
		dur  sqlmini.Durability
	}{
		{"UFS/EXT4-DR/persist", core.EXT4DR(device.UFS()), sqlmini.Persist, sqlmini.Durable},
		{"UFS/BFS-DR/persist", core.BFSDR(device.UFS()), sqlmini.Persist, sqlmini.Durable},
		{"UFS/EXT4-DR/wal", core.EXT4DR(device.UFS()), sqlmini.WAL, sqlmini.Durable},
		{"UFS/BFS-DR/wal", core.BFSDR(device.UFS()), sqlmini.WAL, sqlmini.Durable},
		{"plainSSD/EXT4-OD/persist", core.EXT4OD(device.PlainSSD()), sqlmini.Persist, sqlmini.OrderingOnly},
		{"plainSSD/OptFS/persist", core.OptFS(device.PlainSSD()), sqlmini.Persist, sqlmini.OrderingOnly},
		{"plainSSD/BFS-OD/persist", core.BFSOD(device.PlainSSD()), sqlmini.Persist, sqlmini.OrderingOnly},
		{"plainSSD/EXT4-DR/persist", core.EXT4DR(device.PlainSSD()), sqlmini.Persist, sqlmini.Durable},
	}
	for _, c := range cases {
		c := c
		b.Run(c.name, func(b *testing.B) {
			var tx float64
			for n := 0; n < b.N; n++ {
				k := sim.NewKernel()
				s := core.NewStack(k, c.prof)
				tx = sqlmini.Bench(k, s, sqlmini.DefaultConfig(c.mode, c.dur), 60*sim.Millisecond).PerS
				k.Close()
			}
			b.ReportMetric(tx, "Tx/s")
		})
	}
}

// BenchmarkFig15 runs varmail and OLTP-insert across the five stacks.
func BenchmarkFig15(b *testing.B) {
	profiles := []struct {
		name string
		mk   func(device.Config) core.Profile
	}{
		{"EXT4-DR", core.EXT4DR}, {"BFS-DR", core.BFSDR}, {"OptFS", core.OptFS},
		{"EXT4-OD", core.EXT4OD}, {"BFS-OD", core.BFSOD},
	}
	for _, pr := range profiles {
		pr := pr
		b.Run("varmail/"+pr.name, func(b *testing.B) {
			var ops float64
			for n := 0; n < b.N; n++ {
				k := sim.NewKernel()
				s := core.NewStack(k, pr.mk(device.PlainSSD()))
				cfg := workload.DefaultVarmail()
				cfg.Threads, cfg.Files = 8, 32
				cfg.Duration, cfg.Warmup = 60*sim.Millisecond, 10*sim.Millisecond
				ops = workload.Varmail(k, s, cfg).PerS
				k.Close()
			}
			b.ReportMetric(ops, "ops/s")
		})
		b.Run("oltp/"+pr.name, func(b *testing.B) {
			var tx float64
			for n := 0; n < b.N; n++ {
				k := sim.NewKernel()
				s := core.NewStack(k, pr.mk(device.PlainSSD()))
				cfg := oltp.DefaultConfig()
				cfg.Clients = 4
				tx = oltp.Bench(k, s, cfg, 60*sim.Millisecond).PerS
				k.Close()
			}
			b.ReportMetric(tx, "Tx/s")
		})
	}
}

// BenchmarkMQScaling compares the single-queue layer's device-global total
// order against the multi-queue layer's per-stream epochs (internal/blkmq)
// at each stream count: raw ordered 4KB writes, a barrier every eight
// writes, on the NVMe-class device.
func BenchmarkMQScaling(b *testing.B) {
	for _, streams := range []int{1, 2, 4, 8} {
		for _, mode := range []struct {
			name string
			hwq  func(streams int) int
		}{
			{"single-queue", func(int) int { return 0 }},
			{"blkmq", func(s int) int { return s }},
		} {
			streams, mode := streams, mode
			b.Run(fmt.Sprintf("streams=%d/%s", streams, mode.name), func(b *testing.B) {
				var iops float64
				var epochs int64
				for n := 0; n < b.N; n++ {
					iops, epochs = experiments.MQPoint(streams, mode.hwq(streams), 12*sim.Millisecond)
				}
				b.ReportMetric(iops, "IOPS")
				b.ReportMetric(float64(epochs), "epochs")
			})
		}
	}
}

// BenchmarkKV measures the barrier-enabled KV store (internal/kvwal):
// acknowledged mutations per second and commit-latency percentiles for
// concurrent group-committing clients, per stack profile. allocs/simop is
// the host allocations of the whole loop per mutation the windows
// completed: unlike allocs/op, it does not rise when a faster store fits
// more mutations into the fixed 40 ms window (CI gates it).
func BenchmarkKV(b *testing.B) {
	for _, mk := range []struct {
		name string
		prof func(device.Config) core.Profile
	}{
		{"EXT4-DR", core.EXT4DR}, {"BFS-DR", core.BFSDR},
		{"EXT4-MQ", core.EXT4MQ}, {"BFS-MQ", core.BFSMQ},
	} {
		for _, clients := range []int{1, 8} {
			mk, clients := mk, clients
			b.Run(fmt.Sprintf("%s/clients=%d", mk.name, clients), func(b *testing.B) {
				var res kvwal.BenchResult
				var ops int64
				var m0, m1 runtime.MemStats
				runtime.ReadMemStats(&m0)
				for n := 0; n < b.N; n++ {
					k := sim.NewKernel()
					s := core.NewStack(k, mk.prof(device.NVMeSSD()))
					res = kvwal.Bench(k, s, clients, 40*sim.Millisecond)
					k.Close()
					ops += res.Ops
				}
				runtime.ReadMemStats(&m1)
				b.ReportMetric(float64(m1.Mallocs-m0.Mallocs)/float64(ops), "allocs/simop")
				b.ReportMetric(res.PerS, "ops/s")
				b.ReportMetric(res.Latency.P99, "p99-ms")
				b.ReportMetric(res.GroupMean, "ops/group")
			})
		}
	}
}

// BenchmarkKVCluster measures the host cost of the sharded KV service: one
// kvcluster.Run of two stack-per-shard BFS-DR shards on the NVMe-class
// device under Poisson arrivals at 30 000 req/s, Zipf 0.99 over 8 192 keys,
// for a 100 ms window after 10 ms of warm-up. allocs/req and B/req are the
// host allocations and bytes of the whole run per request offered in its
// window (CI gates them at 2 % and 5 %): the traffic is seeded, so they
// repeat to about three digits.
func BenchmarkKVCluster(b *testing.B) {
	cfg := kvcluster.Config{Shards: 2, Mode: kvcluster.ShardedStacks, Profile: core.BFSDR,
		Device: device.NVMeSSD, Store: kvwal.DefaultConfig(), InflightCap: 64}
	tr := kvcluster.Traffic{
		Arrivals: workload.ArrivalConfig{Kind: workload.ArrivalPoisson, RatePerS: 30000, Seed: 1},
		Mix:      workload.Mix{ReadPct: 20, DeletePct: 12},
		KeySpace: 8192, ZipfTheta: 0.99, Tenants: 2,
		Warmup: 10 * sim.Millisecond, Duration: 100 * sim.Millisecond,
	}
	var reqs int64
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for n := 0; n < b.N; n++ {
		reqs += kvcluster.Run(cfg, tr).Offered
	}
	runtime.ReadMemStats(&m1)
	b.ReportMetric(float64(m1.Mallocs-m0.Mallocs)/float64(reqs), "allocs/req")
	b.ReportMetric(float64(m1.TotalAlloc-m0.TotalAlloc)/float64(reqs), "B/req")
}

// BenchmarkNewStack measures what building a simulated machine costs the
// host: one NVMe-class BFS-DR stack built, run for 1 µs of virtual time and
// closed. Every experiment cell, crash state and kvcluster shard pays this
// once; allocs/op is a count that repeats exactly (CI gates it at
// threshold 0).
func BenchmarkNewStack(b *testing.B) {
	prof := core.BFSDR(device.NVMeSSD())
	b.ReportAllocs()
	for n := 0; n < b.N; n++ {
		k := sim.NewKernel()
		core.NewStack(k, prof)
		k.RunUntil(sim.Time(sim.Microsecond))
		k.Close()
	}
}

// BenchmarkDeviceOrdered drives the peel ladder's device rung — 4000 4 KB
// writes in epochs of eight, the eighth an ordered barrier write, straight
// into the NVMe-class device — and reports what one command costs the
// simulator. events/IO is a seeded count that repeats exactly (CI gates it
// at threshold 0); ns/IO and allocs/IO are the host cost it buys.
func BenchmarkDeviceOrdered(b *testing.B) {
	benchOrderedWrites(b, func(_ *sim.Kernel, d *device.Device) func(p *sim.Proc, i int, last bool) {
		var free []*device.Command
		recycle := func(_ sim.Time, c *device.Command) { free = append(free, c) }
		return func(p *sim.Proc, i int, last bool) {
			var c *device.Command
			if m := len(free); m > 0 {
				c, free = free[m-1], free[:m-1]
			} else {
				c = new(device.Command)
			}
			*c = device.Command{Kind: device.CmdWrite, LPA: uint64(i % 2048), Data: devicePayload, Done: recycle}
			if last {
				c.Barrier, c.Prio = true, device.PrioOrdered
			}
			for !d.Submit(c) {
				d.WaitSpace(p)
			}
		}
	})
}

// BenchmarkBlockOrdered is the block rung of the same ladder: the stream of
// BenchmarkDeviceOrdered submitted as ordered requests, the eighth a barrier
// request, through each block-layer front-end on stream 0. The two are one
// dispatch engine in two shapes, so their events/IO are equal (allocs/IO to
// two digits: the per-stream shape opens a queue); CI gates events/IO at
// threshold 0.
func BenchmarkBlockOrdered(b *testing.B) {
	const tD = 2 * sim.Microsecond
	fronts := []struct {
		name string
		mk   func(k *sim.Kernel, d *device.Device) block.Submitter
	}{
		{"single-queue", func(k *sim.Kernel, d *device.Device) block.Submitter {
			return block.NewLayer(k, d, block.NewEpochScheduler(block.NewNOOP()),
				block.LayerConfig{DispatchOverhead: tD})
		}},
		{"blkmq", func(k *sim.Kernel, d *device.Device) block.Submitter {
			return blkmq.New(k, d, blkmq.Config{HWQueues: 4, DispatchOverhead: tD})
		}},
	}
	for _, f := range fronts {
		b.Run(f.name, func(b *testing.B) {
			benchOrderedWrites(b, func(k *sim.Kernel, d *device.Device) func(p *sim.Proc, i int, last bool) {
				front := f.mk(k, d)
				var free []*block.Request
				recycle := func(_ sim.Time, r *block.Request) { free = append(free, r) }
				return func(p *sim.Proc, i int, last bool) {
					var r *block.Request
					if m := len(free); m > 0 {
						r, free = free[m-1], free[:m-1]
					} else {
						r = new(block.Request)
					}
					flags := block.FlagOrdered
					if last {
						flags |= block.FlagBarrier
					}
					*r = block.Request{Op: block.OpWrite, LPA: uint64(i % 2048), Data: devicePayload,
						Flags: flags, OnComplete: recycle}
					front.Submit(p, r)
				}
			})
		})
	}
}

// benchOrderedWrites times b.N runs of 4000 writes in epochs of eight into a
// fresh NVMe-class device: mk builds the stack under test over it and returns
// the host's per-write body (last marks an epoch's eighth write). It reports
// the kernel events, host nanoseconds and allocations one write costs.
func benchOrderedWrites(b *testing.B, mk func(k *sim.Kernel, d *device.Device) func(p *sim.Proc, i int, last bool)) {
	const n = 4000
	var events, allocs int64
	var elapsed time.Duration
	for i := 0; i < b.N; i++ {
		k := sim.NewKernel()
		ks := &sim.KernelStats{}
		k.AttachStats(ks)
		d := device.New(k, device.NVMeSSD())
		write := mk(k, d)
		k.Spawn("host", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				write(p, i, i%8 == 7)
			}
		})
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		start := time.Now()
		k.Run()
		elapsed += time.Since(start)
		runtime.ReadMemStats(&m1)
		k.Close()
		if got := d.Stats().Writes; got != n {
			b.Fatalf("%d of %d writes serviced", got, n)
		}
		events += ks.HandlerDispatches.Load() + ks.GoroutineDispatches.Load()
		allocs += int64(m1.Mallocs - m0.Mallocs)
	}
	ios := float64(b.N) * n
	b.ReportMetric(float64(events)/ios, "events/IO")
	b.ReportMetric(float64(elapsed.Nanoseconds())/ios, "ns/IO")
	b.ReportMetric(float64(allocs)/ios, "allocs/IO")
}

// devicePayload is the one page content the ordered-write benchmarks write;
// boxing it once keeps the host from allocating per write.
var devicePayload any = uint64(1)

// fsyncAppendCost grows one file on BFS-DR over the plain SSD to pages pages
// and returns what one further append+fsync costs the host: the medians of
// the runtime.MemStats deltas over fsyncAppends of them. The median, because
// the device's per-LPA maps (FTL mapping, read map) regrow every few thousand
// new pages and charge the whole table to whichever fsync crosses the
// threshold; that cost follows the pages ever written, not the file's size.
func fsyncAppendCost(pages int64) (bytesPerFsync, allocsPerFsync float64) {
	k := sim.NewKernel()
	defer k.Close()
	s := core.NewStack(k, core.BFSDR(device.PlainSSD()))
	bytes := make([]float64, 0, fsyncAppends)
	allocs := make([]float64, 0, fsyncAppends)
	k.Spawn("app", func(p *sim.Proc) {
		defer k.Stop()
		create := func(name string) *fs.Inode {
			f, err := s.FS.Create(p, s.FS.Root(), name)
			if err != nil {
				panic(err)
			}
			return f
		}
		// Warm the pools and the journal's checkpoint cycle on a scratch file,
		// so both file sizes are measured in the same steady state.
		w := create("warm.dat")
		for idx := int64(0); idx < 4*fsyncAppends; idx++ {
			s.FS.Write(p, w, idx)
			s.FS.Fsync(p, w)
		}
		f := create("grow.dat")
		for idx := int64(0); idx < pages; idx++ {
			s.FS.Write(p, f, idx)
			if idx%64 == 63 {
				s.FS.Fsync(p, f)
			}
		}
		var m0, m1 runtime.MemStats
		for idx := pages; idx < pages+fsyncAppends; idx++ {
			runtime.ReadMemStats(&m0)
			s.FS.Write(p, f, idx)
			s.FS.Fsync(p, f)
			runtime.ReadMemStats(&m1)
			bytes = append(bytes, float64(m1.TotalAlloc-m0.TotalAlloc))
			allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs))
		}
	})
	k.Run()
	sort.Float64s(bytes)
	sort.Float64s(allocs)
	return bytes[len(bytes)/2], allocs[len(allocs)/2]
}

// fsyncAppends is the number of fsyncs fsyncAppendCost measures.
const fsyncAppends = 128

// BenchmarkFsyncAppend reports the host cost of one journaled fsync at two
// file sizes. The journal freezes an inode by aliasing its block map, and
// every record a commit writes is carved from a slab, so the median fsync
// allocates nothing at either size: 0 B/fsync and 0 allocs/fsync (CI gates
// both).
func BenchmarkFsyncAppend(b *testing.B) {
	for _, pages := range []int64{64, 4096} {
		b.Run(fmt.Sprintf("pages=%d", pages), func(b *testing.B) {
			var bytes, allocs float64
			for i := 0; i < b.N; i++ {
				by, al := fsyncAppendCost(pages)
				bytes, allocs = bytes+by, allocs+al
			}
			b.ReportMetric(bytes/float64(b.N), "B/fsync")
			b.ReportMetric(allocs/float64(b.N), "allocs/fsync")
		})
	}
}

// TestFsyncHostBytesFlatInFileSize pins the allocation-free Dual-Mode commit
// and, with it, the O(1) journal freeze: the median append+fsync allocates
// nothing, neither bytes nor objects, on a 64-page file and on a 4096-page
// one. With a block-map copy per commit a 4096-page fsync allocated about
// twenty times what a 64-page one did; with boxed journal records each fsync
// made 7 allocations (432 B).
func TestFsyncHostBytesFlatInFileSize(t *testing.T) {
	for _, pages := range []int64{64, 4096} {
		bytes, allocs := fsyncAppendCost(pages)
		t.Logf("%d pages: %.0f B/fsync, %.0f allocs/fsync", pages, bytes, allocs)
		if bytes != 0 || allocs != 0 {
			t.Errorf("fsync of a %d-page file allocates: %.0f B, %.0f allocs (median), want 0", pages, bytes, allocs)
		}
	}
}

// BenchmarkSimKernel measures raw simulator event throughput (ablation: the
// substrate's own cost). allocs/op is the headline: the by-value event
// queue schedules with zero allocations per event in steady state. ns/op is
// one blocking proc's round trip through the dispatch loop and back.
func BenchmarkSimKernel(b *testing.B) {
	k := sim.NewKernel()
	defer k.Close()
	k.Spawn("ticker", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(sim.Microsecond)
		}
		k.Stop()
	})
	b.ReportAllocs()
	b.ResetTimer()
	k.Run()
}

// BenchmarkSimKernelMixedHorizons drives the hierarchical timer wheel
// across all of its levels plus the overflow heap: sleeps from 1µs to
// beyond the ~1s wheel horizon, from eight concurrent procs.
func BenchmarkSimKernelMixedHorizons(b *testing.B) {
	k := sim.NewKernel()
	defer k.Close()
	horizons := []sim.Duration{
		sim.Microsecond, 50 * sim.Microsecond, sim.Millisecond,
		20 * sim.Millisecond, 300 * sim.Millisecond, 2 * sim.Second,
	}
	per := b.N/len(horizons) + 1
	for i, d := range horizons {
		i, d := i, d
		k.Spawn(fmt.Sprintf("sleeper%d", i), func(p *sim.Proc) {
			for n := 0; n < per; n++ {
				p.Sleep(d)
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	k.Run()
}

// BenchmarkSimKernelDepth measures the event queue at a fixed depth: procs
// handlers, each always holding one pending timer 1-500µs out (the stack's
// horizon), so ns/op is one push and one pop with that many events queued.
// It is the measurement behind eventq.go's "why the timer wheel stays":
// stackbench's workloads hold 7 to 88 events on average, 265 at most.
func BenchmarkSimKernelDepth(b *testing.B) {
	for _, procs := range []int{8, 64, 256, 1024} {
		b.Run(fmt.Sprintf("procs=%d", procs), func(b *testing.B) {
			k := sim.NewKernel()
			defer k.Close()
			n := 0
			for i := 0; i < procs; i++ {
				d := sim.Microsecond + sim.Duration(i*7919%499)*sim.Microsecond
				k.SpawnHandlerIdx("timer", i, func(h *sim.Proc) {
					if n++; n >= b.N {
						k.Stop()
						return
					}
					h.WakeIn(d)
				})
			}
			b.ReportAllocs()
			b.ResetTimer()
			k.Run()
		})
	}
}

// BenchmarkSimHandlerEvent measures run-to-completion dispatch: a handler
// rescheduling itself via WakeIn, one event per op with no coroutine
// switch and zero allocations — the fast path the device/NAND-side
// components run on.
func BenchmarkSimHandlerEvent(b *testing.B) {
	k := sim.NewKernel()
	defer k.Close()
	n := 0
	k.SpawnHandler("ticker", func(h *sim.Proc) {
		n++
		if n >= b.N {
			k.Stop()
			return
		}
		h.WakeIn(sim.Microsecond)
	})
	b.ReportAllocs()
	b.ResetTimer()
	k.Run()
}

// BenchmarkSimHandlerPingPong measures two handlers waking each other
// through a Cond — the handler analogue of BenchmarkSimHandoff, with the
// coroutine switches gone.
func BenchmarkSimHandlerPingPong(b *testing.B) {
	k := sim.NewKernel()
	defer k.Close()
	ping := sim.NewCond(k)
	pong := sim.NewCond(k)
	n := 0
	k.SpawnHandler("pong", func(h *sim.Proc) {
		pong.Signal()
		ping.Park(h)
	})
	k.SpawnHandler("ping", func(h *sim.Proc) {
		n++
		if n >= b.N {
			k.Stop()
			return
		}
		ping.Signal()
		pong.Park(h)
	})
	b.ReportAllocs()
	b.ResetTimer()
	k.Run()
}

// BenchmarkSimHandoff measures the blocking-proc context switch: two procs
// ping-ponging through Suspend/Resume, two dispatches per op, each a yield
// to the dispatch loop and a resume from it.
func BenchmarkSimHandoff(b *testing.B) {
	k := sim.NewKernel()
	defer k.Close()
	var ping, pong *sim.Proc
	// pong spawns first so it is parked in Suspend before ping's first Resume.
	pong = k.Spawn("pong", func(p *sim.Proc) {
		for {
			p.Suspend()
			k.Resume(ping)
		}
	})
	ping = k.Spawn("ping", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			k.Resume(pong)
			p.Suspend()
		}
		k.Stop()
	})
	b.ReportAllocs()
	b.ResetTimer()
	k.Run()
}

// BenchmarkSimSpawnChurn measures short-lived proc churn: each op spawns,
// starts (one coroutine, 12 allocations), runs and joins a proc. Nothing in
// the stack spawns at run time, so nothing pools them.
func BenchmarkSimSpawnChurn(b *testing.B) {
	k := sim.NewKernel()
	defer k.Close()
	k.Spawn("driver", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			child := k.Spawn("leader", func(c *sim.Proc) { c.Advance(sim.Microsecond) })
			p.Join(child)
		}
		k.Stop()
	})
	b.ReportAllocs()
	b.ResetTimer()
	k.Run()
}

// BenchmarkAblationBarrierCommand compares the paper's barrier-as-flag
// design against encoding the barrier as a standalone command (§3.2): the
// command form pays a queue slot and an extra dispatch per epoch.
func BenchmarkAblationBarrierCommand(b *testing.B) {
	for _, mode := range []struct {
		name      string
		asCommand bool
	}{{"flag", false}, {"command", true}} {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			var iops float64
			for n := 0; n < b.N; n++ {
				prof := core.BFSOD(device.UFS())
				prof.BarrierAsCommand = mode.asCommand
				k := sim.NewKernel()
				s := core.NewStack(k, prof)
				cfg := workload.DefaultRandWrite(workload.PolicyB)
				cfg.Duration, cfg.Warmup, cfg.FilePages = 60*sim.Millisecond, 10*sim.Millisecond, 512
				iops = workload.RandWrite(k, s, cfg).PerS
				k.Close()
			}
			b.ReportMetric(iops, "IOPS")
		})
	}
}

// BenchmarkAblationDualVsSingleFlush isolates Dual-Mode journaling: same
// device, same workload, JBD2 vs Dual engines under durability.
func BenchmarkAblationDualVsSingleFlush(b *testing.B) {
	for _, mk := range []struct {
		name string
		prof core.Profile
	}{
		{"jbd2", core.EXT4DR(device.PlainSSD())},
		{"dual", core.BFSDR(device.PlainSSD())},
	} {
		mk := mk
		b.Run(mk.name, func(b *testing.B) {
			var ops float64
			for n := 0; n < b.N; n++ {
				k := sim.NewKernel()
				s := core.NewStack(k, mk.prof)
				cfg := workload.DefaultDWSL(8)
				cfg.Duration, cfg.Warmup = 60*sim.Millisecond, 10*sim.Millisecond
				ops = workload.DWSL(k, s, cfg).PerS
				k.Close()
			}
			b.ReportMetric(ops, "ops/s")
		})
	}
}
