package main

import (
	"fmt"
	"math"
	"runtime"

	"repro/internal/blkmq"
	"repro/internal/block"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/fs"
	"repro/internal/ftl"
	"repro/internal/jbd"
	"repro/internal/kvcluster"
	"repro/internal/kvwal"
	"repro/internal/nand"
	"repro/internal/sim"
	"repro/internal/workload"
)

// The layer-peel ladder: one stream of 4 KB writes in epochs of eight, the
// eighth an ordering point, driven in turn into each layer's own entry point
// from the flash array up to the sharded service. Each rung runs everything
// below it, so a layer's own host cost per IO is its rung minus the rung
// below — which names the layer behind a host_cpu_us_per_op move.
const (
	peelWrites  = 4000
	peelEpoch   = 8
	peelRepeats = 2
	peelSpan    = 2048 // pages the stream cycles over
)

// peelKeys are the keys the kvwal rung cycles over, built once.
var peelKeys = func() []string {
	keys := make([]string, peelSpan)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%05d", i)
	}
	return keys
}()

// peelDrive returns the timed part of a rung: body once per write on a single
// proc of kernel k, then the kernel drains.
func peelDrive(k *sim.Kernel, n int, body func(p *sim.Proc, i int, last bool)) func() int {
	return func() int {
		k.Spawn("bench/peel", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				body(p, i, i%peelEpoch == peelEpoch-1)
			}
		})
		k.Run()
		k.Close()
		return n
	}
}

func peelKernel(ks *sim.KernelStats) *sim.Kernel {
	k := sim.NewKernel()
	k.AttachStats(ks)
	return k
}

// blockWriter returns a body that submits pooled ordered writes, the last of
// each epoch a barrier write, to front.
func blockWriter(front block.Submitter) func(p *sim.Proc, i int, last bool) {
	var free []*block.Request
	recycle := func(_ sim.Time, r *block.Request) { free = append(free, r) }
	return func(p *sim.Proc, i int, last bool) {
		var r *block.Request
		if n := len(free); n > 0 {
			r, free = free[n-1], free[:n-1]
		} else {
			r = new(block.Request)
		}
		flags := block.FlagOrdered
		if last {
			flags |= block.FlagBarrier
		}
		*r = block.Request{Op: block.OpWrite, LPA: uint64(i % peelSpan), Data: payload, Flags: flags,
			PID: p.ID(), OnComplete: recycle}
		front.Submit(p, r)
	}
}

func newPeelLayer(k *sim.Kernel, dev *device.Device) *block.Layer {
	return block.NewLayer(k, dev, block.NewEpochScheduler(block.NewNOOP()),
		block.LayerConfig{DispatchOverhead: blkDispatch})
}

// peelRung is one rung of the ladder: build sets up the layer and what lies
// below it on kernels that count into ks, and returns the function that
// drives n writes into it and reports how many IOs it drove. Only the second
// is timed: building 128 chips is not a cost of a write.
type peelRung struct {
	layer string
	build func(n int, seed int64, ks *sim.KernelStats) func() int
}

// peelRungs is the ladder, bottom up.
var peelRungs = []peelRung{
	{"nand", func(n int, _ int64, ks *sim.KernelStats) func() int {
		k := peelKernel(ks)
		geo := device.NVMeSSD().Geometry
		arr := nand.New(k, geo, device.NVMeSSD().Timing)
		next := make([]int, geo.Chips()) // pages programmed so far, per chip
		var free []*nand.Request
		outstanding := 0
		var waiter *sim.Proc
		done := func(_ sim.Time, r *nand.Request) {
			free = append(free, r)
			outstanding--
			if outstanding == 0 && waiter != nil {
				k.Resume(waiter)
				waiter = nil
			}
		}
		return peelDrive(k, n, func(p *sim.Proc, i int, last bool) {
			var r *nand.Request
			if m := len(free); m > 0 {
				r, free = free[m-1], free[:m-1]
			} else {
				r = new(nand.Request)
			}
			chip := i % geo.Chips()
			*r = nand.Request{Kind: nand.OpProgram, Chip: chip, Block: next[chip] / geo.PagesPerBlock,
				Page: next[chip] % geo.PagesPerBlock, Meta: nand.PageMeta{LPA: uint64(i % peelSpan), Seq: uint64(i + 1)},
				Data: payload, Done: done}
			next[chip]++
			outstanding++
			arr.Submit(r)
			for last && outstanding > 0 {
				waiter = p
				p.Suspend()
			}
		})
	}},
	{"ftl", func(n int, _ int64, ks *sim.KernelStats) func() int {
		k := peelKernel(ks)
		cfg := device.NVMeSSD()
		f := ftl.New(k, nand.New(k, cfg.Geometry, cfg.Timing), ftl.DefaultConfig())
		return peelDrive(k, n, func(p *sim.Proc, i int, last bool) {
			f.Append(p, uint64(i%peelSpan), payload)
			if last {
				f.Sync(p)
			}
		})
	}},
	{"device", func(n int, _ int64, ks *sim.KernelStats) func() int {
		k := peelKernel(ks)
		dev := device.New(k, device.NVMeSSD())
		var free []*device.Command
		recycle := func(_ sim.Time, c *device.Command) { free = append(free, c) }
		return peelDrive(k, n, func(p *sim.Proc, i int, last bool) {
			var c *device.Command
			if m := len(free); m > 0 {
				c, free = free[m-1], free[:m-1]
			} else {
				c = new(device.Command)
			}
			*c = device.Command{Kind: device.CmdWrite, LPA: uint64(i % peelSpan), Data: payload, Done: recycle}
			if last {
				c.Barrier, c.Prio = true, device.PrioOrdered
			}
			for !dev.Submit(c) {
				dev.WaitSpace(p)
			}
		})
	}},
	{"block", func(n int, _ int64, ks *sim.KernelStats) func() int {
		k := peelKernel(ks)
		return peelDrive(k, n, blockWriter(newPeelLayer(k, device.New(k, device.NVMeSSD()))))
	}},
	{"blkmq", func(n int, _ int64, ks *sim.KernelStats) func() int {
		k := peelKernel(ks)
		mq := blkmq.New(k, device.New(k, device.NVMeSSD()), blkmq.Config{HWQueues: blkStreams, DispatchOverhead: blkDispatch})
		return peelDrive(k, n, blockWriter(mq))
	}},
	{"jbd", func(n int, _ int64, ks *sim.KernelStats) func() int {
		k := peelKernel(ks)
		cfg := jbd.DefaultConfig(jbd.ModeDual)
		j := jbd.New(k, newPeelLayer(k, device.New(k, device.NVMeSSD())), cfg)
		// One buffer per page of the stream: a buffer comes round again long
		// after the transaction that froze it has left the committing list,
		// so writes join the running transaction and never park.
		bufs := make([]*jbd.Buffer, peelSpan)
		for i := range bufs {
			bufs[i] = &jbd.Buffer{Home: cfg.Start + uint64(cfg.Pages) + 1 + uint64(i), Name: "peel"}
		}
		return peelDrive(k, n, func(p *sim.Proc, i int, last bool) {
			j.DirtyBuffer(p, bufs[i%len(bufs)], payload)
			if last {
				j.CommitOrdering(p, false)
			}
		})
	}},
	{"fs", func(n int, _ int64, ks *sim.KernelStats) func() int {
		k := peelKernel(ks)
		s := core.NewStack(k, core.BFSDR(device.NVMeSSD()))
		var f *fs.Inode
		return peelDrive(k, n, func(p *sim.Proc, i int, last bool) {
			if f == nil {
				var err error
				if f, err = s.FS.Create(p, s.FS.Root(), "peel.dat"); err != nil {
					panic(err)
				}
			}
			s.FS.Write(p, f, int64(i%peelSpan))
			if last {
				s.FS.Fdatabarrier(p, f)
			}
		})
	}},
	{"kvwal", func(n int, _ int64, ks *sim.KernelStats) func() int {
		k := peelKernel(ks)
		s := core.NewStack(k, core.BFSDR(device.NVMeSSD()))
		var st *kvwal.Store
		ops := make([]kvwal.Op, 0, peelEpoch)
		return peelDrive(k, n, func(p *sim.Proc, i int, last bool) {
			if st == nil {
				var err error
				if st, err = kvwal.Open(p, s, kvwal.DefaultConfig()); err != nil {
					panic(err)
				}
			}
			ops = append(ops, kvwal.Op{Kind: kvwal.Put, Key: peelKeys[i%peelSpan]})
			if last {
				st.Apply(p, ops)
				ops = ops[:0]
			}
		})
	}},
	{"kvcluster", func(n int, seed int64, ks *sim.KernelStats) func() int {
		const rate = 40000
		tr := kvcluster.Traffic{
			Arrivals: workload.ArrivalConfig{Kind: workload.ArrivalPoisson, RatePerS: rate, Seed: seed},
			KeySpace: peelSpan, Warmup: sim.Millisecond,
			Duration: sim.Duration(float64(n) / rate * float64(sim.Second)),
		}
		cfg := kvcluster.Config{Shards: 1, Profile: core.BFSDR, Device: device.NVMeSSD, Store: kvwal.DefaultConfig(),
			NewKernel: func(string) *sim.Kernel { return peelKernel(ks) }}
		return func() int {
			res := kvcluster.Run(cfg, tr)
			return int(math.Round(float64(res.Offered) * float64(tr.Warmup+tr.Duration) / float64(tr.Duration)))
		}
	}},
}

// peelLadder runs every rung and fills its three metrics: CPU time per IO
// (the least of peelRepeats runs), allocations per IO and kernel events per
// IO.
func peelLadder(m map[string]float64, seed int64, scale float64) {
	n := max(int(peelWrites*scale)/peelEpoch*peelEpoch, 4*peelEpoch)
	for _, rung := range peelRungs {
		cpu := math.Inf(1)
		var allocs, events, ios float64
		for rep := 0; rep < peelRepeats; rep++ {
			ks := &sim.KernelStats{}
			drive := rung.build(n, seed, ks)
			runtime.GC()
			start := readHost()
			ios = float64(drive())
			cost := readHost().since(start)
			cpu = math.Min(cpu, float64(cost.cpu.Nanoseconds()))
			allocs, events = float64(cost.allocs), float64(countKernel(ks).events())
		}
		m["peel."+rung.layer+".cpu_ns_per_io"] = cpu / ios
		m["peel."+rung.layer+".allocs_per_io"] = allocs / ios
		m["peel."+rung.layer+".events_per_io"] = events / ios
	}
}
