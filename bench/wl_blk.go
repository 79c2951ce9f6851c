package main

import (
	"math/rand"

	"repro/internal/blkmq"
	"repro/internal/block"
	"repro/internal/device"
	"repro/internal/sim"
)

// blk-ordered: four submitters on four streams, each writing epochs of eight
// 4 KB ordered writes closed by a barrier write, straight into the
// multi-queue block layer on the NVMe-class device. Closed loop: a submitter
// blocks only on its stream's congestion limit. One op is one completed
// block write.
//
// Why: everything from blkmq and block down (device, ftl, nand, sim) and
// nothing above — the paper's order-preserving dispatch in isolation, and the
// workload on which fs, jbd, kvwal and kvcluster changes must show no
// movement.
const (
	blkStreams  = 4
	blkEpoch    = 8
	blkWarmup   = 10 * sim.Millisecond
	blkWindow   = 30 * sim.Millisecond
	blkLPASpan  = 2048
	blkDispatch = 2 * sim.Microsecond
)

// payload is the one page content every raw block write carries; boxing it
// once keeps the submitters from allocating per write.
var payload any = uint64(1)

func runBlkOrdered(seed int64, scale float64, mode passMode) *pass {
	ps := newPass(mode, blkWindow.Scale(scale))
	start := readHost()
	k := ps.newKernel()
	defer k.Close()
	cfg := device.NVMeSSD()
	cfg.Metrics = ps.reg
	dev := device.New(k, cfg)

	warmEnd := sim.Time(blkWarmup.Scale(scale))
	end := warmEnd.Add(ps.win)
	ps.lat = make(latencies, 0, int(600000*ps.win.Seconds()))
	var submitted, completed, ioErrs int64
	measuring, stop := false, false
	done := func(at sim.Time, r *block.Request) {
		completed++
		if r.Err != nil {
			ioErrs++
		}
		if measuring {
			ps.ops++
			ps.lat = append(ps.lat, at.Sub(r.IssuedAt()))
		}
	}

	var mq *blkmq.MQ
	var legacy *block.Layer
	if mode == passBaseline {
		// The legacy discipline: transfer the epoch, wait for every
		// completion, flush — on the single-queue layer.
		legacy = block.NewLayer(k, dev, block.NewEpochScheduler(block.NewNOOP()),
			block.LayerConfig{DispatchOverhead: blkDispatch})
	} else {
		mq = blkmq.New(k, dev, blkmq.Config{HWQueues: blkStreams, DispatchOverhead: blkDispatch,
			Trace: ps.traced(), Metrics: ps.reg})
	}
	var front block.Submitter = mq
	if ps.traced() {
		front = &shim{inner: mq, tr: ps.tr}
	}

	for s := 0; s < blkStreams; s++ {
		rng := rand.New(rand.NewSource(seed<<8 + int64(s)))
		base := uint64(s * 2 * blkLPASpan)
		stream := uint64(s)
		if mode == passBaseline {
			k.SpawnIdx("bench/legacy", s, func(p *sim.Proc) {
				p.Sleep(sim.Duration(rng.Intn(20)) * sim.Microsecond)
				var reqs [blkEpoch]block.Request
				for !stop {
					for j := range reqs {
						reqs[j] = block.Request{Op: block.OpWrite, LPA: base + uint64(rng.Intn(blkLPASpan)),
							Data: payload, PID: p.ID(), OnComplete: done}
						submitted++
						legacy.Submit(p, &reqs[j])
					}
					for j := range reqs {
						reqs[j].Wait(p)
					}
					legacy.Flush(p)
				}
			})
			continue
		}
		var free []*block.Request
		recycle := func(at sim.Time, r *block.Request) {
			done(at, r)
			free = append(free, r)
		}
		k.SpawnIdx("bench/submit", s, func(p *sim.Proc) {
			p.Sleep(sim.Duration(rng.Intn(20)) * sim.Microsecond)
			for !stop {
				sp := ps.tr.begin(p, "client", "epoch")
				for j := 0; j < blkEpoch; j++ {
					var r *block.Request
					if n := len(free); n > 0 {
						r, free = free[n-1], free[:n-1]
					} else {
						r = new(block.Request)
					}
					flags := block.FlagOrdered
					if j == blkEpoch-1 {
						flags |= block.FlagBarrier
					}
					*r = block.Request{Op: block.OpWrite, LPA: base + uint64(rng.Intn(blkLPASpan)),
						Data: payload, Flags: flags, Stream: stream, PID: p.ID(), OnComplete: recycle}
					submitted++
					front.Submit(p, r)
				}
				ps.tr.end(p, sp)
			}
		})
	}

	k.RunUntil(warmEnd)
	ps.setup = readHost().since(start)
	d0, k0 := countDevice(dev), countKernel(k.Stats())
	var m0 blkmq.Stats
	var e0 int64
	if mq != nil {
		m0, e0 = mq.Stats(), mq.EpochsClosed()
	}
	measuring = true
	ps.measure(k, end)
	measuring = false
	d1, k1 := countDevice(dev), countKernel(k.Stats())
	ps.userPages = ps.ops
	ps.nandPrograms = d1.nand.Programs - d0.nand.Programs

	if ps.traced() {
		m1 := mq.Stats()
		ps.layers = map[string]float64{
			"block.epochs_closed_per_op": ratio(float64(mq.EpochsClosed()-e0), float64(ps.ops)),
			"block.staged_peak":          float64(m1.StagedPeak),
			"blkmq.spread_share":         ratio(float64(m1.Spread-m0.Spread), float64(m1.Submitted-m0.Submitted)),
			"blkmq.streams":              float64(m1.Streams),
		}
		deviceLayers(ps.layers, d0, d1, k0, k1, ps.ops)
	}

	// Drain: let every submitted write complete, then check the books.
	stop = true
	k.Run()
	ps.attempted, ps.failed = submitted, ioErrs
	if completed != submitted {
		ps.fail("blk-ordered: drain: %d of %d submitted writes completed", completed, submitted)
		ps.failed += submitted - completed
	}
	if ioErrs != 0 {
		ps.fail("blk-ordered: %d requests completed with Request.Err", ioErrs)
	}
	if ps.traced() {
		if err := mq.Verify(); err != nil {
			ps.fail("blk-ordered: dispatch log: %v", err)
		}
		blockLayers(ps.layers, ps.tr, mq.DispatchLog(), warmEnd, end, ps.ops)
	}
	ps.dg.i64(submitted, completed, int64(k.Now()), d1.dev.Barriers, d1.nand.Programs)
	ps.seal()
	return ps
}
