// Package device models a barrier-compliant flash storage device: a DRAM
// writeback cache in front of the log-structured FTL, a command queue with
// the SCSI priority levels the paper's order-preserving dispatch relies on
// (simple / ordered / head-of-queue, §3.4), the cache-barrier write flag
// (§3.2), FLUSH and FUA handling, optional power-loss protection
// (supercap), and crash injection with mount-time recovery.
package device

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/ftl"
	"repro/internal/metrics"
	"repro/internal/nand"
	"repro/internal/sim"
)

// Config describes one storage device. The presets below mirror the
// platforms of the paper's §6.1 plus the seven-device parallelism sweep of
// Fig. 1.
type Config struct {
	Name       string
	QueueDepth int // command queue entries (paper: UFS QD16, SATA QD32)
	CachePages int // writeback cache capacity in 4KB pages

	// PLP marks a power-loss-protected (supercapacitor) device: cache
	// contents survive power failure, so flush is nearly free and barrier
	// ordering is trivially satisfied (§3.2).
	PLP bool

	// BarrierSupport makes the device honor the cache-barrier flag: the
	// writeback path preserves transfer order, so epochs persist in order
	// without a flush. Without it the device may write back cached pages in
	// any order (the legacy behaviour that forces transfer-and-flush).
	BarrierSupport bool

	// BarrierPenalty inflates NAND program time while the device operates
	// in barrier mode. The paper introduces a 5% penalty on the plain-SSD
	// to model barrier overhead (§6.1).
	BarrierPenalty float64

	// DMAPerPage is the host-to-device transfer time of one 4KB page,
	// including protocol overhead (the paper instruments ~70µs on UFS).
	DMAPerPage sim.Duration

	// CmdOverhead is the fixed controller cost to receive and decode one
	// command.
	CmdOverhead sim.Duration

	// EagerWriteback makes the cache append pages to the FTL as they
	// arrive instead of batching to a low-water mark. Log-structured
	// barrier devices do this naturally (appends are sequential anyway),
	// which is what keeps their flush latency low.
	EagerWriteback bool

	Geometry nand.Geometry
	Timing   nand.Timing
	FTL      ftl.Config

	// Mobile marks a smartphone-class platform: the stack charges higher
	// host-side costs (slow cores, deeper IRQ path), which is what keeps
	// Wait-on-Transfer at half of barrier throughput even though the DMA
	// itself dominates (§6.2's UFS numbers).
	Mobile bool

	// Seed drives the deterministic pseudo-random writeback scrambling of
	// non-barrier devices.
	Seed int64

	// Fault, when non-nil, gives the device a failure personality: media
	// read errors with a read-retry latency ladder, transient program
	// retries, GC-interference latency windows, and the PLP-failure model
	// (supercap dies mid-drain). Nil — the default everywhere — injects
	// nothing and leaves every dispatch trace bit-identical.
	Fault *fault.Plan

	// Metrics is an explicit observability registry for this device; nil
	// falls back to the process-wide live registry (metrics.SetLive), and
	// a nil resolution disables instrumentation entirely.
	Metrics *metrics.Registry
}

// Validate reports a descriptive error for nonsensical configuration.
func (c Config) Validate() error {
	if c.QueueDepth <= 0 {
		return fmt.Errorf("device %q: queue depth %d", c.Name, c.QueueDepth)
	}
	if c.CachePages <= 0 {
		return fmt.Errorf("device %q: cache pages %d", c.Name, c.CachePages)
	}
	return c.Geometry.Validate()
}

func defaults(c Config) Config {
	if c.FTL.GCLowWater == 0 {
		c.FTL = ftl.DefaultConfig()
	}
	if c.BarrierSupport {
		c.EagerWriteback = true
	}
	return c
}

// barrierCmdCost is the extra controller work per barrier-flagged write on a
// device with BarrierSupport (epoch bookkeeping in the FTL); together with
// BarrierPenalty it makes barrier-mode IO slightly costlier than plain
// buffered IO, the 1-25% deficiency of §6.2.
const barrierCmdCost = 2 * sim.Microsecond

// plpFlushLatency is the flush-command round trip on a power-loss-protected
// device (the paper's tε: small but not negligible).
const plpFlushLatency = 25 * sim.Microsecond

// writebackHighWater is the cache fill, as a fraction of CachePages, that
// wakes the background writeback daemon, and writebackLowWater the fill it
// drains down to.
const (
	writebackHighWater = 0.5
	writebackLowWater  = 0.25
)

// mlcTiming approximates a mature MLC NAND part.
func mlcTiming() nand.Timing {
	return nand.Timing{
		Program: 500 * sim.Microsecond,
		Read:    50 * sim.Microsecond,
		Erase:   3500 * sim.Microsecond,
		BusXfer: 12 * sim.Microsecond,
	}
}

// ufsTiming approximates a mobile UFS part with an SLC turbo-write cache:
// programs land fast in the SLC region and migrate later (not modelled).
func ufsTiming() nand.Timing {
	return nand.Timing{
		Program: 250 * sim.Microsecond,
		Read:    50 * sim.Microsecond,
		Erase:   3 * sim.Millisecond,
		BusXfer: 10 * sim.Microsecond,
	}
}

// nvmeTiming approximates a fast NVMe part writing into an SLC cache
// region: programs land quickly and migrate later (not modelled).
func nvmeTiming() nand.Timing {
	return nand.Timing{
		Program: 250 * sim.Microsecond,
		Read:    40 * sim.Microsecond,
		Erase:   3 * sim.Millisecond,
		BusXfer: 3 * sim.Microsecond,
	}
}

// tlcTiming approximates a TLC NAND part (the paper's plain-SSD uses TLC).
func tlcTiming() nand.Timing {
	return nand.Timing{
		Program: 900 * sim.Microsecond,
		Read:    70 * sim.Microsecond,
		Erase:   5 * sim.Millisecond,
		BusXfer: 15 * sim.Microsecond,
	}
}

// geometry builds a geometry with the requested parallelism, sized so the
// experiments run far from capacity pressure.
func geometry(channels, ways int) nand.Geometry {
	return nand.Geometry{
		Channels: channels, WaysPerChannel: ways,
		BlocksPerChip: 64, PagesPerBlock: 64, PageSize: 4096,
	}
}

// UFS returns the paper's mobile device: single channel, queue depth 16,
// barrier write implemented in a commercial UFS part (§6.1).
func UFS() Config {
	return defaults(Config{
		Name: "UFS", QueueDepth: 16, CachePages: 512,
		Mobile:         true,
		BarrierSupport: true,
		DMAPerPage:     70 * sim.Microsecond,
		CmdOverhead:    10 * sim.Microsecond,
		Geometry:       geometry(1, 4),
		Timing:         ufsTiming(),
	})
}

// PlainSSD returns the paper's 850 PRO stand-in: SATA 3.0, queue depth 32,
// eight channels, with the 5% simulated barrier penalty.
func PlainSSD() Config {
	return defaults(Config{
		Name: "plain-SSD", QueueDepth: 32, CachePages: 4096,
		BarrierSupport: true, BarrierPenalty: 0.05,
		DMAPerPage:  9 * sim.Microsecond,
		CmdOverhead: 4 * sim.Microsecond,
		Geometry:    geometry(8, 4),
		Timing:      tlcTiming(),
	})
}

// SupercapSSD returns the paper's 843TN stand-in: like PlainSSD but with
// power-loss protection and no barrier overhead.
func SupercapSSD() Config {
	return defaults(Config{
		Name: "supercap-SSD", QueueDepth: 32, CachePages: 4096,
		PLP: true, BarrierSupport: true,
		DMAPerPage:  9 * sim.Microsecond,
		CmdOverhead: 4 * sim.Microsecond,
		Geometry:    geometry(8, 4),
		Timing:      mlcTiming(),
	})
}

// NVMeSSD returns a barrier-enabled NVMe-class device: sixteen channels,
// eight ways, a deep queue and a fast link. The flash array drains faster
// than the host can feed it, so ordering stalls — not the transfer or the
// NAND — are the bottleneck: exactly the regime where per-stream barriers
// (internal/blkmq) pay off over a device-global total order.
func NVMeSSD() Config {
	return defaults(Config{
		Name: "NVMe-SSD", QueueDepth: 64, CachePages: 4096,
		BarrierSupport: true,
		DMAPerPage:     3 * sim.Microsecond,
		CmdOverhead:    4 * sim.Microsecond,
		Geometry:       geometry(16, 8),
		Timing:         nvmeTiming(),
	})
}

// LegacySSD returns a device without barrier support, used as the baseline
// target of the legacy transfer-and-flush stack.
func LegacySSD() Config {
	c := PlainSSD()
	c.Name = "legacy-SSD"
	c.BarrierSupport = false
	c.BarrierPenalty = 0
	// Legacy controllers batch writeback and choose victims freely — the
	// cache-scrambling behaviour that makes flush mandatory.
	c.EagerWriteback = false
	return c
}

// Fig1Device returns the i-th device of the paper's Fig. 1 parallelism
// sweep (A..G): mobile parts through a thirty-two channel flash array.
func Fig1Device(i int) Config {
	specs := []struct {
		name     string
		channels int
		ways     int
		qd       int
		dma      sim.Duration
		timing   nand.Timing
		plp      bool
	}{
		{"A/mobile-eMMC", 1, 2, 8, 90 * sim.Microsecond, mlcTiming(), false},
		{"B/mobile-UFS", 1, 4, 16, 70 * sim.Microsecond, mlcTiming(), false},
		{"C/server-SATA", 4, 4, 32, 9 * sim.Microsecond, tlcTiming(), false},
		{"D/server-NVMe", 8, 8, 64, 3 * sim.Microsecond, tlcTiming(), false},
		{"E/server-SATA-supercap", 4, 4, 32, 9 * sim.Microsecond, mlcTiming(), true},
		{"F/server-PCIe", 16, 8, 64, 2 * sim.Microsecond, mlcTiming(), false},
		{"G/flash-array", 32, 8, 128, 1 * sim.Microsecond, mlcTiming(), false},
	}
	s := specs[i]
	return defaults(Config{
		Name: s.name, QueueDepth: s.qd, CachePages: 4096,
		PLP: s.plp, BarrierSupport: false,
		DMAPerPage:  s.dma,
		CmdOverhead: 4 * sim.Microsecond,
		Geometry:    geometry(s.channels, s.ways),
		Timing:      s.timing,
	})
}

// NumFig1Devices is the size of the Fig. 1 sweep.
const NumFig1Devices = 7
