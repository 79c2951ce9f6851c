// Package core assembles the full barrier-enabled IO stack — storage device,
// order-preserving block layer and journaling filesystem — into the named
// configurations the paper evaluates (§6):
//
//	EXT4-DR  fsync() on EXT4 (JBD2, barrier mount): full durability
//	EXT4-OD  fsync() on EXT4 with nobarrier: ordering only, no flush
//	BFS-DR   fsync() on BarrierFS (Dual-Mode journaling)
//	BFS-OD   fbarrier() on BarrierFS: ordering only
//	OptFS    osync(): ordering via Wait-on-Transfer, delayed durability
//
// A Stack is the unit every experiment and example builds on.
package core

import (
	"repro/internal/blkmq"
	"repro/internal/block"
	"repro/internal/device"
	"repro/internal/fs"
	"repro/internal/jbd"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// SchedKind names the epoch scheduler's base; it stays while bench/ uses it.
type SchedKind int

// SchedNOOP, the NOOP base, is SchedKind's one value.
const SchedNOOP SchedKind = 0

// Profile names a complete stack configuration.
type Profile struct {
	Name   string
	Device device.Config
	FS     fs.Options
	// Sched is always SchedNOOP; it stays while bench/ reads it.
	Sched SchedKind
	// Relaxed selects the ordering-only sync calls (fbarrier /
	// fdatabarrier) in workloads that honor it: the "-OD" configurations.
	Relaxed bool
	// DispatchOverhead is the block-layer per-command dispatch cost (tD).
	DispatchOverhead sim.Duration
	// BarrierAsCommand selects the §3.2 alternative barrier encoding
	// (standalone command instead of write flag) for ablation studies.
	BarrierAsCommand bool
	// MQQueues selects the multi-queue block layer (internal/blkmq) with
	// that many hardware dispatch queues; 0 keeps the single-queue Layer.
	// With MQ, ordered/barrier traffic stays on stream 0 (the journal's
	// ordering domain) while background writeback scatters over the data
	// streams by LPA, so background IO bypasses foreground barriers.
	MQQueues int
	// Metrics is an explicit observability registry for the whole stack;
	// nil falls back to the process-wide live registry (metrics.SetLive).
	// NewStack forwards the resolved registry to every layer and attaches
	// the kernel's dispatch stats to it.
	Metrics *metrics.Registry
	// Retry arms the block layer's bounded command retry (media-fault
	// tolerance); off — the default — propagates device errors to the
	// filesystem on first completion.
	Retry bool
}

// EXT4DR is plain EXT4 with full durability (transfer-and-flush).
func EXT4DR(dev device.Config) Profile {
	return tune(Profile{
		Name: "EXT4-DR", Device: dev,
		FS:               fs.DefaultOptions(jbd.ModeJBD2),
		DispatchOverhead: 2 * sim.Microsecond,
	})
}

// EXT4OD is EXT4 mounted nobarrier: ordering only, exposed to reordering.
func EXT4OD(dev device.Config) Profile {
	p := EXT4DR(dev)
	p.Name = "EXT4-OD"
	p.FS.Journal.Mode = jbd.ModeNobarrier
	p.Relaxed = true
	return p
}

// BFSDR is BarrierFS with durability guarantees (fsync/fdatasync).
func BFSDR(dev device.Config) Profile {
	return tune(Profile{
		Name: "BFS-DR", Device: dev,
		FS:               fs.DefaultOptions(jbd.ModeDual),
		DispatchOverhead: 2 * sim.Microsecond,
	})
}

// BFSOD is BarrierFS with ordering guarantees (fbarrier/fdatabarrier).
func BFSOD(dev device.Config) Profile {
	p := BFSDR(dev)
	p.Name = "BFS-OD"
	p.Relaxed = true
	return p
}

// EXT4MQ is EXT4-DR on the multi-queue block layer: full durability with
// per-stream epochs and four hardware dispatch queues.
func EXT4MQ(dev device.Config) Profile {
	p := EXT4DR(dev)
	p.Name = "EXT4-MQ"
	p.MQQueues = 4
	return p
}

// BFSMQ is BFS-DR on the multi-queue block layer.
func BFSMQ(dev device.Config) Profile {
	p := BFSDR(dev)
	p.Name = "BFS-MQ"
	p.MQQueues = 4
	return p
}

// OptFS is the OptFS baseline: osync()-style ordering-only journaling.
func OptFS(dev device.Config) Profile {
	return tune(Profile{
		Name: "OptFS", Device: dev,
		FS:               fs.DefaultOptions(jbd.ModeOptFS),
		Relaxed:          true,
		DispatchOverhead: 2 * sim.Microsecond,
	})
}

// tune applies platform-dependent host costs: mobile SoCs pay more per
// syscall, wake-up and dispatch than the server parts (§6.1).
func tune(p Profile) Profile {
	if p.Device.Mobile {
		p.FS.SyscallCPU = 6 * sim.Microsecond
		p.FS.Journal.WakeLatency = 60 * sim.Microsecond
		p.DispatchOverhead = 6 * sim.Microsecond
	}
	return p
}

// Stack is a fully wired IO stack.
type Stack struct {
	Profile Profile
	K       *sim.Kernel
	Dev     *device.Device
	// Layer is the single-queue block layer; nil on MQ profiles.
	Layer *block.Layer
	// MQ is the multi-queue block layer; nil on single-queue profiles.
	MQ *blkmq.MQ
	// Front is whichever block-layer front-end the filesystem mounts on.
	Front block.Submitter
	FS    *fs.FS
}

// NewStack builds a stack on kernel k.
func NewStack(k *sim.Kernel, prof Profile) *Stack {
	reg := metrics.Resolve(prof.Metrics)
	if reg != nil {
		k.AttachStats(reg.KernelStats())
		if prof.Device.Metrics == nil {
			prof.Device.Metrics = reg
		}
		if prof.FS.Metrics == nil {
			prof.FS.Metrics = reg
		}
	}
	dev := device.New(k, prof.Device)
	s := &Stack{Profile: prof, K: k, Dev: dev}
	if prof.MQQueues > 0 {
		s.MQ = blkmq.New(k, dev, blkmq.Config{
			HWQueues:         prof.MQQueues,
			DispatchOverhead: prof.DispatchOverhead,
			BarrierAsCommand: prof.BarrierAsCommand,
			Metrics:          reg,
			Retry:            prof.Retry,
		})
		s.Front = s.MQ
	} else {
		s.Layer = block.NewLayer(k, dev, block.NewEpochScheduler(block.NewNOOP()), block.LayerConfig{
			DispatchOverhead: prof.DispatchOverhead,
			BarrierAsCommand: prof.BarrierAsCommand,
			Metrics:          reg,
			Retry:            prof.Retry,
		})
		s.Front = s.Layer
	}
	s.FS = fs.New(k, s.Front, prof.FS)
	return s
}

// Sync invokes the profile's durability-or-ordering call on the file:
// fsync for the -DR profiles, fbarrier (osync) for the relaxed ones.
func (s *Stack) Sync(p *sim.Proc, i *fs.Inode) {
	if s.Profile.Relaxed {
		s.FS.Fbarrier(p, i)
	} else {
		s.FS.Fsync(p, i)
	}
}

// Datasync invokes fdatasync or fdatabarrier depending on the profile.
func (s *Stack) Datasync(p *sim.Proc, i *fs.Inode) {
	if s.Profile.Relaxed {
		s.FS.Fdatabarrier(p, i)
	} else {
		s.FS.Fdatasync(p, i)
	}
}

// Crash power-fails the device.
func (s *Stack) Crash() { s.Dev.Crash() }

// RecoverView restores the device and returns a recovered filesystem view
// for verification, along with the recovered device.
func (s *Stack) RecoverView(p *sim.Proc) (*fs.View, *device.Device) {
	d2 := device.Recover(p, s.Dev)
	return fs.Recover(d2.DurableData, s.Profile.FS.Journal), d2
}
