package crashmc

import (
	"testing"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/jbd"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// ckptInstant is where inside the journal's first checkpoint power fails.
type ckptInstant int

const (
	// homesCached: the checkpoint's second flush has begun, so every
	// in-place home copy is in the device cache and none is flushed.
	homesCached ckptInstant = iota
	// superPending: the second flush has completed and the superblock that
	// advances the tail is in the device cache, not yet durable.
	superPending
)

// ckptRun is what one appendIntoCheckpoint run reached: whether power
// failed at its instant, how many appends were acknowledged, and whether
// the new superblock was already durable then.
type ckptRun struct {
	reached   bool
	acked     int
	superDone bool
}

// appendIntoCheckpoint appends a page to one file and fsyncs it until the
// journal's first checkpoint has flushed once, then stops writing, so the
// rest of the checkpoint's IO runs alone. A watcher cuts the power at
// instant at inside that checkpoint, read off the journal's
// jbd/flush.checkpoint counter (a checkpoint flush counts when it
// completes), the device's flush count (a flush counts when its service
// begins) and the writes the device cache holds volatile.
func appendIntoCheckpoint(run *ckptRun, reg *metrics.Registry, at ckptInstant) Part {
	return func(k *sim.Kernel, s *core.Stack) []Checker {
		chk := &DurabilityChecker{FS: s.FS, File: "ckpt.dat"}
		flushes := reg.Counter("jbd/flush.checkpoint")
		k.Spawn("writer", func(p *sim.Proc) {
			f, err := s.FS.Create(p, s.FS.Root(), chk.File)
			if err != nil {
				panic(err)
			}
			for i := int64(0); flushes.Value() == 0; i++ {
				s.FS.Write(p, f, i)
				s.FS.Fsync(p, f)
				ver, _, _ := s.FS.Read(p, f, i, 0) // just written: a page-cache hit, no IO to fail
				chk.Synced = append(chk.Synced, AckedWrite{Idx: i, Ver: ver})
			}
		})
		k.Spawn("watcher", func(p *sim.Proc) {
			poll := func(cond func() bool) {
				for !cond() && !s.Dev.Dead() {
					p.Sleep(sim.Microsecond)
				}
			}
			super := s.Profile.FS.Journal.SuperLPA
			switch at {
			case homesCached:
				// Once the first flush is done: until the checkpoint's next
				// step after its home writes reaches the device, with the
				// home writes still volatile. That step is the second flush
				// beginning after the newest home write reached the cache,
				// or any superblock write in the cache. The home writes are
				// the cached writes off the journal's stream: they ride the
				// checkpoint's own domain (block.RoleCheckpoint), and every
				// other write the journal's.
				poll(func() bool { return flushes.Value() == 1 })
				cached, begun := 0, s.Dev.Stats().Flushes
				poll(func() bool {
					if flushes.Value() > 1 {
						return true
					}
					homes, superCached := 0, false
					for _, w := range s.Dev.CaptureConstraints().Writes {
						switch {
						case w.LPA == super:
							superCached = true
						case w.Stream != s.Profile.FS.Journal.Stream:
							homes++
						}
					}
					if homes != cached {
						cached, begun = homes, s.Dev.Stats().Flushes
						return false
					}
					return homes > 0 && (superCached || s.Dev.Stats().Flushes > begun)
				})
				if flushes.Value() > 1 {
					return // the second flush completed unseen: run.reached stays false
				}
			case superPending:
				// Once the second flush is done: until the superblock write
				// is in the cache, volatile.
				poll(func() bool {
					if flushes.Value() < 2 {
						return false
					}
					d, _ := s.Dev.DurableData(super)
					if sb, _ := d.(*jbd.SuperBlock); sb != nil && sb.TailTxn > 1 {
						return true
					}
					for _, w := range s.Dev.CaptureConstraints().Writes {
						if w.LPA == super {
							return true
						}
					}
					return false
				})
			}
			if s.Dev.Dead() {
				return // power failed first: run.reached stays false
			}
			d, _ := s.Dev.DurableData(super)
			sb, _ := d.(*jbd.SuperBlock)
			run.superDone = sb != nil && sb.TailTxn > 1
			run.reached, run.acked = true, len(chk.Synced)
			k.Stop()
		})
		return append([]Checker{chk}, journalAndFS(s)...)
	}
}

// TestCrashInsideCheckpoint cuts power inside a checkpoint of a 32-page
// journal, at the two instants its safety rests on: with the in-place home
// copies cached and not flushed, and with them flushed and the superblock
// that advances the tail not yet durable. Every admissible state must
// recover every acknowledged append: until the superblock is durable,
// replay starts at the old tail and rewrites the homes from the journal.
// The checkpoint's IO rides a stream with no barrier in it, so the
// enumeration admits every subset of the volatile checkpoint writes: a
// superblock sent before the second flush completes is cached beside
// volatile homes at the first instant, and a state that keeps it and loses
// them loses acknowledged appends.
func TestCrashInsideCheckpoint(t *testing.T) {
	plain := device.PlainSSD()
	for _, prof := range []core.Profile{
		core.EXT4DR(plain), core.BFSDR(plain), core.BFSMQ(plain), core.OptFS(plain),
	} {
		for _, in := range []ckptInstant{homesCached, superPending} {
			var run ckptRun
			reg := metrics.NewRegistry()
			prof := CompactJournal(prof, 32)
			prof.Metrics = reg
			res := Enumerate(OnStack(prof, appendIntoCheckpoint(&run, reg, in)),
				Config{CrashAt: at(1000000), Log: logTo(t)})
			t.Logf("instant %d, %d appends acknowledged: %s", in, run.acked, res.String())
			requireClean(t, res)
			if res.Capped {
				t.Errorf("%s (instant %d): enumeration capped; the row must be exhaustive", prof.Name, in)
			}
			if !run.reached {
				t.Fatalf("%s (instant %d): power never failed inside the checkpoint", prof.Name, in)
			}
			if run.superDone {
				t.Errorf("%s (instant %d): the new superblock was already durable", prof.Name, in)
			}
			if res.Volatile == 0 {
				t.Errorf("%s (instant %d): nothing volatile at the crash instant", prof.Name, in)
			}
		}
	}
}
