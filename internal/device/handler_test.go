package device

import (
	"strings"
	"testing"

	"repro/internal/sim"
)

// The tests below crash the device at the one instant a dead-device branch
// of a handler needs: no golden run reaches these branches, since a golden
// never crashes a device mid-service. Each runs through propertyKernels.

// workerRunsAfter reports the worker activations the trace holds after at.
func workerRunsAfter(tr *sim.Trace, d *Device, at sim.Time) int {
	n := 0
	for _, rec := range tr.Records() {
		if rec.At > at && strings.HasPrefix(rec.Name, d.cfg.Name+"/worker") {
			n++
		}
	}
	return n
}

// TestCrashDuringCacheAdmissionDropsWrite: writes parked in cache admission
// when the device dies are dropped at the crash instant. Their workers go
// straight back to the pick loop, and none of them transfers a page.
func TestCrashDuringCacheAdmissionDropsWrite(t *testing.T) {
	propertyKernels(t, "", func(t *testing.T, k *sim.Kernel, tr *sim.Trace) {
		cfg := tinyConfig()
		cfg.CachePages = 2
		d := New(k, cfg)
		var crashAt sim.Time
		parkedDone := 0
		k.Spawn("host", func(p *sim.Proc) {
			// Fill the cache, then queue two writes that must wait for a
			// free slot: the first pages stay cached until their
			// programs finish, ~250 µs later.
			submitWait(p, d, &Command{Kind: CmdWrite, LPA: 0, Data: 0})
			submitWait(p, d, &Command{Kind: CmdWrite, LPA: 1, Data: 1})
			for lpa := uint64(2); lpa < 4; lpa++ {
				if !d.Submit(&Command{Kind: CmdWrite, LPA: lpa, Data: lpa,
					Done: func(sim.Time, *Command) { parkedDone++ }}) {
					t.Fatal("queue full")
				}
			}
			p.Sleep(40 * sim.Microsecond)
			if d.cachePages != cfg.CachePages || d.occupancy != 2 {
				t.Fatalf("before the crash: %d cached pages, %d commands queued; want a full cache and 2",
					d.cachePages, d.occupancy)
			}
			crashAt = p.Now()
			d.Crash()
		})
		k.Run()
		if parkedDone != 0 {
			t.Errorf("%d writes parked in cache admission completed on a dead device", parkedDone)
		}
		if n := workerRunsAfter(tr, d, crashAt); n != 0 {
			t.Errorf("%d worker activations after the crash: a parked write went on to its transfer", n)
		}
	})
}

// TestCrashAsFlashReadCompletesDropsRead: a read whose flash read completes
// at the crash instant, with the worker resumed but not yet run, is dropped
// without its read-out transfer.
func TestCrashAsFlashReadCompletesDropsRead(t *testing.T) {
	propertyKernels(t, "", func(t *testing.T, k *sim.Kernel, _ *sim.Trace) {
		cfg := tinyConfig()
		d := New(k, cfg)
		var d2 *Device
		var flashReads, flashLost int64
		fired := false
		rd := &Command{Kind: CmdRead, LPA: 5, Done: func(sim.Time, *Command) { fired = true }}
		k.Spawn("host", func(p *sim.Proc) {
			submitWait(p, d, &Command{Kind: CmdWrite, LPA: 5, Data: "v", FUA: true})
			d.Crash()
			// A recovered device has no DRAM copy of the page, so the
			// read goes to flash.
			d2 = Recover(p, d)
			p.Sleep(sim.Millisecond)
			before := d2.Array().Stats()
			if !d2.Submit(rd) {
				t.Fatal("read refused")
			}
			// The flash read completes, and resumes the worker, at
			// CmdOverhead + tR + bus transfer. Sleep(0) lets that
			// completion run first; the worker runs after the crash.
			p.Sleep(cfg.CmdOverhead + cfg.Timing.Read + cfg.Timing.BusXfer)
			p.Sleep(0)
			after := d2.Array().Stats()
			flashReads, flashLost = after.Reads-before.Reads, after.LostJobs-before.LostJobs
			d2.Crash()
		})
		k.Run()
		if flashReads != 1 || flashLost != 0 {
			t.Fatalf("at the crash: %d flash reads completed, %d lost; want the read completed", flashReads, flashLost)
		}
		if fired || rd.Data != nil || d2.Stats().Reads != 0 {
			t.Errorf("read served by a dead device: completed %v, data %v, reads %d", fired, rd.Data, d2.Stats().Reads)
		}
	})
}

// TestCrashDuringSealWaitStandsDownWriteback: the writeback daemon parked
// at the FTL's seal barrier resumes after the crash, finishes its append,
// and stands down without handing the page to the reaper.
func TestCrashDuringSealWaitStandsDownWriteback(t *testing.T) {
	propertyKernels(t, "", func(t *testing.T, k *sim.Kernel, _ *sim.Trace) {
		cfg := tinyConfig()
		cfg.Geometry.PagesPerBlock = 4
		d := New(k, cfg)
		// A segment is one block per chip; slot 0 is its summary page.
		seg := uint64(cfg.Geometry.Chips() * cfg.Geometry.PagesPerBlock)
		var tail *cacheEntry
		var appends int64
		// Parked on the FTL's durability condition before the daemon,
		// so it runs first when the first segment's last program lands,
		// which also lifts the daemon's seal barrier.
		k.Spawn("crash", func(p *sim.Proc) {
			d.FTL().WaitDurable(p, seg)
			tail, appends = d.flightTail, d.FTL().Stats().HostAppends
			d.Crash()
		})
		k.Spawn("host", func(p *sim.Proc) {
			for lpa := uint64(0); lpa < seg+4 && !d.dead; lpa++ {
				submitWait(p, d, &Command{Kind: CmdWrite, LPA: lpa, Data: lpa})
			}
		})
		k.Run()
		if got := d.FTL().Stats().HostAppends - appends; got != 1 {
			t.Fatalf("%d appends after the crash, want the one parked at the seal barrier", got)
		}
		if d.flightTail != tail {
			t.Errorf("a page appended after the crash was queued for the reaper (idx %d)", d.flightTail.idx)
		}
	})
}
