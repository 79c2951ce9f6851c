package experiments

import (
	"fmt"

	"repro/internal/blkmq"
	"repro/internal/block"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/par"
	"repro/internal/sim"
	"repro/internal/workload"
)

// MQScalingRow is one point of the multi-queue scaling sweep: raw ordered
// 4KB write IOPS with `Streams` independent submitters, through either the
// single-queue layer (global total order, the seed design) or the blkmq
// layer with one hardware queue per stream (per-stream epochs, §8).
type MQScalingRow struct {
	Streams      int     `col:"streams,streams,%8d,axis"`
	HWQueues     int     `col:"hw_queues,hw-queues,%9d,axis"` // 0 = single-queue block.Layer
	Config       string  `col:"layer,layer,%-14s"`
	IOPS         float64 `col:"iops,IOPS,%10.0f"`
	EpochsClosed int64   `col:"epochs_closed,epochs,%8d"`
	Speedup      float64 `col:"speedup,speedup,%7.2fx,dash"` // blkmq IOPS over the same-stream single-queue row
}

// MQFSRow is one filesystem-level comparison point: sustained fdatasync
// throughput of one foreground thread while bulk writers flood the layer
// with background writeback.
type MQFSRow struct {
	Config  string  `col:"config,,%-14s"`
	OpsPerS float64 `col:"fg_fdatasync_per_s,,%10.0f syncs/s"` // foreground fdatasync calls per second
}

// MQScalingResult is the multi-queue scaling experiment.
type MQScalingResult struct {
	Rows []MQScalingRow
	FS   []MQFSRow
}

// MQPoint measures raw ordered-write IOPS on the NVMe-class device:
// `streams` submitters each writing epochs of eight 4KB ordered writes
// closed by a barrier. hwq == 0 routes everything through a single-queue
// block.Layer on stream 0 (the device-global total order the seed
// implements); hwq > 0 gives every submitter its own stream on a blkmq
// layer with hwq hardware dispatch queues. It returns the measured IOPS
// and the number of epochs closed in the measurement window.
func MQPoint(streams, hwq int, dur sim.Duration) (iops float64, epochs int64) {
	k := newKernel(fmt.Sprintf("mq/s%d/q%d", streams, hwq))
	defer k.Close()
	dev := device.New(k, device.NVMeSSD())
	var front block.Submitter
	var epochsClosed func() int64
	if hwq == 0 {
		l := block.NewLayer(k, dev, block.NewEpochScheduler(block.NewNOOP()),
			block.LayerConfig{DispatchOverhead: 2 * sim.Microsecond})
		front = l
		es := l.Scheduler().(*block.EpochScheduler)
		epochsClosed = es.EpochsClosed
	} else {
		m := blkmq.New(k, dev, blkmq.Config{
			HWQueues:         hwq,
			DispatchOverhead: 2 * sim.Microsecond,
		})
		front = m
		epochsClosed = m.EpochsClosed
	}
	var m workload.Meter
	done := func(sim.Time, *block.Request) { m.Done(1) }
	for s := 0; s < streams; s++ {
		s := s
		k.Spawn("mq/writer", func(p *sim.Proc) {
			stream := uint64(0)
			if hwq > 0 {
				stream = uint64(s)
			}
			base := uint64(s * 4096)
			n := uint64(0)
			for {
				flags := block.FlagOrdered
				if n%8 == 7 {
					flags |= block.FlagBarrier
				}
				r := &block.Request{
					Op: block.OpWrite, LPA: base + n%2048, Data: n,
					Flags: flags, Stream: stream, PID: p.ID(),
					OnComplete: done,
				}
				n++
				front.Submit(p, r)
			}
		})
	}
	workload.Warm(k, dur/4, nil)
	e0 := epochsClosed()
	w := m.Measure(k, dur)
	return w.PerS, epochsClosed() - e0
}

// MQScaling runs the queue-count/stream-count scaling sweep: for each
// stream count it measures the single-queue layer against blkmq with one
// hardware queue per stream, then compares the EXT4-DR and EXT4-MQ stacks
// under varmail at the filesystem level.
func MQScaling(scale Scale) MQScalingResult {
	var out MQScalingResult
	dur := scale.dur(12*sim.Millisecond, 80*sim.Millisecond)
	streamCounts := []int{1, 2, 4, 8}
	// One kernel per (streams, layer) point: 8 independent measurements.
	iops := make([]float64, 2*len(streamCounts))
	epochs := make([]int64, 2*len(streamCounts))
	par.For(len(iops), func(i int) {
		streams := streamCounts[i/2]
		hwq := 0
		if i%2 == 1 {
			hwq = streams
		}
		iops[i], epochs[i] = MQPoint(streams, hwq, dur)
	})
	for si, streams := range streamCounts {
		sIOPS, sEpochs := iops[2*si], epochs[2*si]
		mIOPS, mEpochs := iops[2*si+1], epochs[2*si+1]
		speed := 0.0
		if sIOPS > 0 {
			speed = mIOPS / sIOPS
		}
		out.Rows = append(out.Rows,
			MQScalingRow{Streams: streams, HWQueues: 0, Config: "single-queue",
				IOPS: sIOPS, EpochsClosed: sEpochs},
			MQScalingRow{Streams: streams, HWQueues: streams, Config: "blkmq",
				IOPS: mIOPS, EpochsClosed: mEpochs, Speedup: speed},
		)
	}
	fsDur := scale.dur(40*sim.Millisecond, 200*sim.Millisecond)
	profs := []core.Profile{
		core.EXT4DR(device.NVMeSSD()), core.EXT4MQ(device.NVMeSSD()),
		core.BFSDR(device.NVMeSSD()), core.BFSMQ(device.NVMeSSD()),
	}
	out.FS = make([]MQFSRow, len(profs))
	par.For(len(profs), func(i int) {
		out.FS[i] = MQFSRow{Config: profs[i].Name, OpsPerS: mqFSPoint(profs[i], fsDur)}
	})
	return out
}

// mqFSPoint measures foreground sync throughput under background load: one
// thread overwrites and fdatasyncs a small file while four bulk writers
// push buffered pages through background writeback. On the single-queue
// layer the bulk traffic shares stream 0 — and the layer's one congestion
// limit — with the syncer, so every flush queues behind the backlog
// (head-of-line blocking). On the MQ profiles the orderless bulk writes
// scatter onto their own streams and the foreground stream stays clear.
func mqFSPoint(prof core.Profile, dur sim.Duration) float64 {
	k := newKernel("mqfs/" + prof.Name)
	defer k.Close()
	s := core.NewStack(k, prof)
	const bulkThreads = 4
	for b := 0; b < bulkThreads; b++ {
		b := b
		k.SpawnIdx("mq/bulk", b, func(p *sim.Proc) {
			f, err := s.FS.Create(p, s.FS.Root(), fmt.Sprintf("bulk%d.dat", b))
			if err != nil {
				panic(err)
			}
			n := int64(0)
			for {
				for i := 0; i < 32; i++ {
					s.FS.Write(p, f, n%1024)
					n++
				}
				s.FS.WritebackAsync(p, f)
			}
		})
	}
	var m workload.Meter
	ready := false
	k.Spawn("mq/syncer", func(p *sim.Proc) {
		f, err := s.FS.Create(p, s.FS.Root(), "fg.dat")
		if err != nil {
			panic(err)
		}
		for i := int64(0); i < 4; i++ {
			s.FS.Write(p, f, i)
		}
		s.FS.Fsync(p, f) // settle allocation so the loop is pure overwrite
		ready = true
		for i := int64(0); ; i++ {
			s.FS.Write(p, f, i%4)
			s.FS.Fdatasync(p, f)
			m.Done(1)
		}
	})
	workload.Warm(k, dur/4, &ready)
	return m.Measure(k, dur).PerS
}
