package crashtest

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/fs"
	"repro/internal/jbd"
	"repro/internal/sim"
)

// mqBackgroundTrial crashes a multi-queue stack while background writeback
// is in full flight: one foreground thread writes and fsyncs its own file
// while bulk writers push pages through WritebackAsync — the traffic the MQ
// layer scatters onto data streams. It audits two contracts:
//
//  1. durability: every fsync-acknowledged foreground write survives;
//  2. on the Dual engine: any block the recovered (journal-committed)
//     metadata of a bulk file references must have durable data —
//     committed metadata pointing at never-written pages is exactly the
//     D-before-JD violation that per-stream scattering would reintroduce
//     if the journal did not wait on cross-stream data dependencies.
//
// Check 2 is not applied to the JBD2 engine: the seed's JBD2 model freezes
// a transaction's metadata without writing back the covered inodes' still-
// dirty pages (real ext4-ordered does commit-time inode writeback), so a
// commit can land between Write() and WritebackAsync() and reference data
// that was never submitted — a pre-existing single-queue window (EXT4-DR
// exhibits it on this very trial) that the multi-queue layer neither
// causes nor widens.
func mqBackgroundTrial(t *testing.T, prof core.Profile, crashAt sim.Time) {
	t.Helper()
	const bulkWriters = 2
	k := sim.NewKernel()
	s := core.NewStack(k, prof)
	for b := 0; b < bulkWriters; b++ {
		b := b
		k.Spawn(fmt.Sprintf("bulk%d", b), func(p *sim.Proc) {
			f, err := s.FS.Create(p, s.FS.Root(), fmt.Sprintf("bulk%d.dat", b))
			if err != nil {
				panic(err)
			}
			for n := int64(0); ; n++ {
				for i := 0; i < 16; i++ {
					s.FS.Write(p, f, n*16+int64(i))
				}
				s.FS.WritebackAsync(p, f)
			}
		})
	}
	type acked struct{ idx, ver int64 }
	var synced []acked
	k.Spawn("foreground", func(p *sim.Proc) {
		f, err := s.FS.Create(p, s.FS.Root(), "fg.dat")
		if err != nil {
			panic(err)
		}
		for i := int64(0); ; i++ {
			s.FS.Write(p, f, i)
			s.FS.Fsync(p, f)
			ver, _ := s.FS.Read(p, f, i)
			synced = append(synced, acked{idx: i, ver: ver})
		}
	})
	k.RunUntil(crashAt)
	s.Crash()
	var view *fs.View
	k.Spawn("recover", func(p *sim.Proc) {
		view, _ = s.RecoverView(p)
	})
	k.Run()
	defer k.Close()

	root, ok := view.Root(s.FS)
	if !ok {
		if len(synced) > 0 {
			t.Errorf("%s crash@%v: root unrecoverable despite %d fsyncs", prof.Name, crashAt, len(synced))
		}
		return
	}
	// 1. Foreground durability.
	if len(synced) > 0 {
		meta, ok := view.Lookup(root, "fg.dat")
		if !ok {
			t.Errorf("%s crash@%v: foreground file lost despite %d fsyncs", prof.Name, crashAt, len(synced))
			return
		}
		for _, a := range synced {
			if got, ok := view.PageVersion(meta, a.idx); !ok || got < a.ver {
				t.Errorf("%s crash@%v: fg page %d fsynced v%d, recovered v%d (present=%v)",
					prof.Name, crashAt, a.idx, a.ver, got, ok)
			}
		}
	}
	// 2. Ordered-mode contract on the bulk files (Dual engine only; see
	// the function comment for why JBD2 is exempt).
	if prof.FS.Journal.Mode != jbd.ModeDual {
		return
	}
	for b := 0; b < bulkWriters; b++ {
		meta, ok := view.Lookup(root, fmt.Sprintf("bulk%d.dat", b))
		if !ok {
			continue // creation never committed: nothing promised
		}
		for idx := int64(0); idx < int64(len(meta.Blocks)); idx++ {
			if meta.Blocks[idx] == 0 {
				continue
			}
			if _, ok := view.PageVersion(meta, idx); !ok {
				t.Errorf("%s crash@%v: bulk%d page %d: committed metadata references a block with no durable data (ordered-mode violation)",
					prof.Name, crashAt, b, idx)
			}
		}
	}
}

// TestMQCrashUnderBackgroundLoad sweeps crash points on both multi-queue
// stacks while background writeback is being scattered across streams.
func TestMQCrashUnderBackgroundLoad(t *testing.T) {
	for _, mk := range []func(device.Config) core.Profile{core.EXT4DR, core.EXT4MQ, core.BFSMQ} {
		prof := mk(device.NVMeSSD())
		for _, at := range times(800, 2500, 7000, 16000, 30000) {
			mqBackgroundTrial(t, prof, at)
		}
	}
}

// TestMQFsyncCoversSpreadWriteback pins the filemap_fdatawait contract on
// the multi-queue stacks: pages submitted through background writeback are
// marked clean at submission and may still be queued on a data stream —
// outside the reach of stream 0's flush — when fsync is called. fsync must
// wait on that in-flight writeback before returning; a crash immediately
// after fsync may lose nothing.
func TestMQFsyncCoversSpreadWriteback(t *testing.T) {
	const pages = 64
	for _, mk := range []func(device.Config) core.Profile{core.EXT4MQ, core.BFSMQ} {
		prof := mk(device.NVMeSSD())
		k := sim.NewKernel()
		s := core.NewStack(k, prof)
		type acked struct{ idx, ver int64 }
		var synced []acked
		k.Spawn("app", func(p *sim.Proc) {
			f, err := s.FS.Create(p, s.FS.Root(), "spread.dat")
			if err != nil {
				panic(err)
			}
			for i := int64(0); i < pages; i++ {
				s.FS.Write(p, f, i)
			}
			s.FS.Fsync(p, f) // settle allocation: the rest is pure overwrite
			// Overwrites in the same jiffy dirty no metadata, so the coming
			// fdatasync takes the no-commit path — the journal's ordered-data
			// dependencies cannot save it; only the fdatawait can.
			for i := int64(0); i < pages; i++ {
				s.FS.Write(p, f, i)
			}
			s.FS.WritebackAsync(p, f) // scattered onto data streams, pages now clean
			s.FS.Fdatasync(p, f)
			for i := int64(0); i < pages; i++ {
				ver, _ := s.FS.Read(p, f, i)
				synced = append(synced, acked{idx: i, ver: ver})
			}
			s.Crash() // power fails the instant fdatasync's promise is made
		})
		k.Run()
		var view *fs.View
		k.Spawn("recover", func(p *sim.Proc) { view, _ = s.RecoverView(p) })
		k.Run()
		root, ok := view.Root(s.FS)
		if !ok {
			t.Fatalf("%s: root unrecoverable", prof.Name)
		}
		meta, ok := view.Lookup(root, "spread.dat")
		if !ok {
			t.Fatalf("%s: file lost despite fsync", prof.Name)
		}
		for _, a := range synced {
			if got, ok := view.PageVersion(meta, a.idx); !ok || got < a.ver {
				t.Errorf("%s: page %d fsynced v%d, recovered v%d (present=%v)",
					prof.Name, a.idx, a.ver, got, ok)
			}
		}
		k.Close()
	}
}

// TestMQFdatabarrierCoversSpreadWriteback pins the same filemap_fdatawait
// contract for the *barrier* path that TestMQFsyncCoversSpreadWriteback
// pins for fsync: fdatabarrier promises that preceding writes reach
// storage before following ones, but pages submitted through background
// writeback may still be queued on a data stream — where stream 0's
// epochs cannot order them — when fdatabarrier is called. fdatabarrierDual
// must Wait-on-Transfer for exactly that in-flight cross-stream writeback
// (waitCrossStream) before the barrier means anything, so the test asserts
// the scattered requests have completed the moment Fdatabarrier returns,
// then crash-checks end to end against a second file: the barrier ordered
// file A's writeback before file B's marker, so a durable marker with lost
// A-pages is an ordering violation.
func TestMQFdatabarrierCoversSpreadWriteback(t *testing.T) {
	const pages = 64
	prof := core.BFSMQ(device.NVMeSSD())
	k := sim.NewKernel()
	s := core.NewStack(k, prof)
	type acked struct{ idx, ver int64 }
	var ordered []acked
	markerDurable := false
	k.Spawn("app", func(p *sim.Proc) {
		f, err := s.FS.Create(p, s.FS.Root(), "barrier.dat")
		if err != nil {
			panic(err)
		}
		g, err := s.FS.Create(p, s.FS.Root(), "marker.dat")
		if err != nil {
			panic(err)
		}
		for i := int64(0); i < pages; i++ {
			s.FS.Write(p, f, i)
		}
		s.FS.Write(p, g, 0)
		s.FS.Fsync(p, f) // settle allocation: the rest is pure overwrite
		s.FS.Fsync(p, g)
		// Overwrite and push through background writeback: the requests
		// scatter onto data streams and the pages are already clean when the
		// barrier call arrives, so only waitCrossStream can see them.
		for i := int64(0); i < pages; i++ {
			s.FS.Write(p, f, i)
		}
		reqs := s.FS.WritebackAsync(p, f)
		spread := 0
		for _, r := range reqs {
			if r.Stream != 0 {
				spread++
			}
		}
		if spread == 0 {
			t.Error("background writeback was not scattered off stream 0; test is vacuous")
		}
		s.FS.Fdatabarrier(p, f)
		// The direct contract: nothing the barrier cannot order may still be
		// in flight when it returns.
		for _, r := range reqs {
			if r.Stream != 0 && !r.Completed() {
				t.Errorf("request LPA %d still in flight on stream %d after Fdatabarrier returned",
					r.LPA, r.Stream)
			}
		}
		for i := int64(0); i < pages; i++ {
			ver, _ := s.FS.Read(p, f, i)
			ordered = append(ordered, acked{idx: i, ver: ver})
		}
		// End to end: a durable write to a *different* file is ordered after
		// the barrier; its fdatasync waits on nothing of file A.
		s.FS.Write(p, g, 0)
		s.FS.Fdatasync(p, g)
		markerDurable = true
		s.Crash()
	})
	k.Run()
	var view *fs.View
	k.Spawn("recover", func(p *sim.Proc) { view, _ = s.RecoverView(p) })
	k.Run()
	defer k.Close()
	if !markerDurable {
		t.Fatal("trial never reached the marker sync")
	}
	root, ok := view.Root(s.FS)
	if !ok {
		t.Fatal("root unrecoverable")
	}
	meta, ok := view.Lookup(root, "barrier.dat")
	if !ok {
		t.Fatal("file lost despite fsync")
	}
	for _, a := range ordered {
		if got, ok := view.PageVersion(meta, a.idx); !ok || got < a.ver {
			t.Errorf("page %d: barrier-ordered v%d before durable marker, recovered v%d (present=%v)",
				a.idx, a.ver, got, ok)
		}
	}
}

// TestDurabilityMQ and TestOrderingMQ run the standard sweeps on the MQ
// stacks: the multi-queue layer must meet the same contracts as the
// single-queue one.
func TestDurabilityMQ(t *testing.T) {
	for _, mk := range []func(device.Config) core.Profile{core.EXT4MQ, core.BFSMQ} {
		for _, rep := range Sweep(mk(device.NVMeSSD()), "durability",
			times(500, 2500, 9000, 30000)) {
			if !rep.Ok() {
				t.Errorf("%v: %v", rep, rep.DurabilityErrors)
			}
		}
	}
}

func TestOrderingMQ(t *testing.T) {
	for _, rep := range Sweep(core.BFSMQ(device.NVMeSSD()), "ordering",
		times(300, 900, 2000, 4500, 9000, 15000, 25000)) {
		if !rep.Ok() {
			t.Errorf("%v: %v", rep, rep.OrderingErrors)
		}
	}
}

// TestMQFsyncCoversPdflushWriteback is TestMQFsyncCoversSpreadWriteback with
// the pdflush daemon as the background writer: its requests are pooled and
// nobody but the block layer and the transaction holds them once they are
// submitted, so an fsync that waits on one (waitCrossStream) races its
// completion for the request's recycling. Rounds of overwrite + fsync keep
// background writes in flight under every fsync; each must return, and a
// crash after the last may lose nothing.
func TestMQFsyncCoversPdflushWriteback(t *testing.T) {
	const pages, rounds = 256, 8
	for _, mk := range []func(device.Config) core.Profile{core.EXT4MQ, core.BFSMQ} {
		prof := mk(device.NVMeSSD())
		prof.FS.PdflushInterval = 50 * sim.Microsecond
		k := sim.NewKernel()
		s := core.NewStack(k, prof)
		var synced [pages]int64
		finished := false
		k.Spawn("app", func(p *sim.Proc) {
			f, err := s.FS.Create(p, s.FS.Root(), "pdflush.dat")
			if err != nil {
				panic(err)
			}
			for r := 0; r < rounds; r++ {
				for i := int64(0); i < pages; i++ {
					s.FS.Write(p, f, i)
				}
				s.FS.Fsync(p, f)
			}
			for i := range synced {
				synced[i], _ = s.FS.Read(p, f, int64(i))
			}
			finished = true
			s.Crash()
		})
		k.Run()
		if !finished {
			t.Fatalf("%s: fsync never returned (a waiter parked on a recycled request)", prof.Name)
		}
		if s.FS.Stats().PdflushRuns == 0 {
			t.Errorf("%s: pdflush never ran; test is vacuous", prof.Name)
		}
		var view *fs.View
		k.Spawn("recover", func(p *sim.Proc) { view, _ = s.RecoverView(p) })
		k.Run()
		root, ok := view.Root(s.FS)
		if !ok {
			t.Fatalf("%s: root unrecoverable", prof.Name)
		}
		meta, ok := view.Lookup(root, "pdflush.dat")
		if !ok {
			t.Fatalf("%s: file lost despite fsync", prof.Name)
		}
		for i, ver := range synced {
			if got, ok := view.PageVersion(meta, int64(i)); !ok || got < ver {
				t.Errorf("%s: page %d fsynced v%d, recovered v%d (present=%v)", prof.Name, i, ver, got, ok)
			}
		}
		k.Close()
	}
}
