package fs

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/device"
	"repro/internal/jbd"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// copyMeta is the deep-copying snapshot the filesystem used to hand the
// journal; the shared-array snapshot is tested against it.
func copyMeta(m InodeMeta) InodeMeta {
	c := m
	c.Blocks = append([]uint64(nil), m.Blocks...)
	if m.Entries != nil {
		c.Entries = make(map[string]uint64, len(m.Entries))
		for k, v := range m.Entries {
			c.Entries[k] = v
		}
	}
	return c
}

// frozenPair is one journal freeze: the carved record the journal received
// (*InodeMeta or *AllocMeta) and a deep copy of it taken at the same instant.
type frozenPair struct{ got, want any }

// snapshotLog records every freeze of the buffers it watches.
type snapshotLog struct{ pairs []frozenPair }

func (l *snapshotLog) watch(b *jbd.Buffer) {
	freeze := b.Snapshot
	b.Snapshot = func(data any) any {
		d := freeze(data)
		var want any
		switch m := d.(type) {
		case *InodeMeta:
			want = copyMeta(*m)
		case *AllocMeta:
			want = *m
		}
		l.pairs = append(l.pairs, frozenPair{got: d, want: want})
		return d
	}
}

// check fails for every record that no longer equals its deep copy: some
// later write reached it, through the shared block map or the pointer.
func (l *snapshotLog) check(t *testing.T, when string) {
	t.Helper()
	for n, pr := range l.pairs {
		if got := reflect.ValueOf(pr.got).Elem().Interface(); !reflect.DeepEqual(got, pr.want) {
			t.Errorf("%s: record %d changed after the freeze:\n got %+v\nwant %+v", when, n, got, pr.want)
			return
		}
	}
}

// handed reports whether d is a record the journal was handed.
func (l *snapshotLog) handed(d any) bool {
	for _, pr := range l.pairs {
		if pr.got == d {
			return true
		}
	}
	return false
}

// TestSnapshotsImmutable interleaves appends (some leaving holes), hole
// fills, overwrites, the three sync calls and unlink + re-create on three
// files, and requires every *InodeMeta and *AllocMeta the journal was handed
// to still equal the deep copy taken when it was frozen — at the end of the
// run, and again after a crash, when recovery has read the same records back
// through the device. It fails on aliasing: without Write's copy-on-write a
// hole fill shows through every earlier snapshot of the file, and a record
// carved twice changes under a later allocation.
func TestSnapshotsImmutable(t *testing.T) {
	for _, mode := range []jbd.Mode{jbd.ModeJBD2, jbd.ModeDual, jbd.ModeOptFS} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%v/seed=%d", mode, seed), func(t *testing.T) {
				testSnapshotsImmutable(t, mode, seed)
			})
		}
	}
}

func testSnapshotsImmutable(t *testing.T, mode jbd.Mode, seed int64) {
	e := newEnv(mode)
	defer e.close()
	log := &snapshotLog{}
	log.watch(&e.fs.Root().buf)
	for i := range e.fs.allocGrps {
		log.watch(&e.fs.allocGrps[i])
	}
	fills := 0
	for c := 0; c < 3; c++ {
		name := fmt.Sprintf("f%d", c)
		rng := rand.New(rand.NewSource(seed<<8 + int64(c)))
		e.k.SpawnIdx("app", c, func(p *sim.Proc) {
			var f *Inode
			var next int64
			var holes []int64
			create := func() {
				var err error
				if f, err = e.fs.Create(p, e.fs.Root(), name); err != nil {
					t.Errorf("create %s: %v", name, err)
					e.k.Stop()
				}
				log.watch(&f.buf)
				next, holes = 0, nil
			}
			create()
			for op := 0; op < 300; op++ {
				switch r := rng.Intn(100); {
				case r < 35: // append, sometimes past a gap
					for gap := rng.Intn(3); gap > 0 && r < 12; gap-- {
						holes = append(holes, next)
						next++
					}
					e.fs.Write(p, f, next)
					next++
				case r < 55 && len(holes) > 0: // fill a hole
					n := rng.Intn(len(holes))
					e.fs.Write(p, f, holes[n])
					holes = append(holes[:n], holes[n+1:]...)
					fills++
				case r < 65 && next > 0: // overwrite
					e.fs.Write(p, f, rng.Int63n(next))
				case r < 78:
					e.fs.Fsync(p, f)
				case r < 88:
					e.fs.Fbarrier(p, f)
				case r < 96:
					e.fs.Fdatasync(p, f)
				case r < 98:
					if err := e.fs.Unlink(p, e.fs.Root(), name); err != nil {
						t.Errorf("unlink %s: %v", name, err)
					}
					create()
				default:
					p.Sleep(sim.Duration(rng.Intn(12)) * sim.Millisecond) // cross a jiffy
				}
			}
			e.fs.Fsync(p, f)
		})
	}
	e.k.Run()
	if fills == 0 || len(log.pairs) == 0 {
		t.Fatalf("%d hole fills, %d snapshots: the run exercised nothing", fills, len(log.pairs))
	}
	log.check(t, "end of run")

	e.dev.Crash()
	var view *View
	e.k.Spawn("recover", func(p *sim.Proc) {
		view = Recover(device.Recover(p, e.dev).DurableData, e.fs.opts.Journal)
	})
	e.k.Run()
	log.check(t, "after crash and recovery")
	// What replay read back is the very record that was frozen.
	for home, d := range view.Journal().State {
		switch d.(type) {
		case *InodeMeta, *AllocMeta:
			if !log.handed(d) {
				t.Errorf("replayed record at home %d is no record the journal was handed: %+v", home, d)
			}
		}
	}
}

// TestUnlinkSparseFileFreesAllocatedBlocksOnly: a file with pages 0 and 9
// owns two blocks, and unlinking it must journal two freed blocks, not ten.
func TestUnlinkSparseFileFreesAllocatedBlocksOnly(t *testing.T) {
	e := newEnv(jbd.ModeDual)
	defer e.close()
	var allocHome uint64
	e.run(func(p *sim.Proc) {
		f, _ := e.fs.Create(p, e.fs.Root(), "sparse")
		allocHome = e.fs.allocBufFor(f.ino).Home
		e.fs.Write(p, f, 0)
		e.fs.Write(p, f, 9)
		e.fs.Fsync(p, f)
		if err := e.fs.Unlink(p, e.fs.Root(), "sparse"); err != nil {
			t.Errorf("unlink: %v", err)
		}
		e.fs.Journal().CommitAndWait(p)
	})
	e.dev.Crash()
	var view *View
	e.run(func(p *sim.Proc) {
		view = Recover(device.Recover(p, e.dev).DurableData, e.fs.opts.Journal)
	})
	am, ok := view.Journal().State[allocHome].(*AllocMeta)
	if !ok {
		t.Fatalf("allocator block %d not replayed: %v", allocHome, view.Journal().State[allocHome])
	}
	if am.NFree != 2 {
		t.Errorf("recovered NFree = %d after unlinking a file with 2 allocated blocks and 8 holes, want 2", am.NFree)
	}
}

// TestUnlinkDropsDirtyPages: pdflush never visits an unlinked inode, so its
// dirty pages must leave the fs/dirty.pages gauge with it.
func TestUnlinkDropsDirtyPages(t *testing.T) {
	reg := metrics.NewRegistry()
	e := newEnvOpts(jbd.ModeDual, func(o *Options) { o.Metrics = reg })
	defer e.close()
	e.run(func(p *sim.Proc) {
		keep, _ := e.fs.Create(p, e.fs.Root(), "keep")
		e.fs.Write(p, keep, 0)
		gone, _ := e.fs.Create(p, e.fs.Root(), "gone")
		for idx := int64(0); idx < 5; idx++ {
			e.fs.Write(p, gone, idx)
		}
		if got := reg.Gauge("fs/dirty.pages").Value(); got != 6 {
			t.Errorf("fs/dirty.pages = %d before unlink, want 6", got)
		}
		if err := e.fs.Unlink(p, e.fs.Root(), "gone"); err != nil {
			t.Errorf("unlink: %v", err)
		}
		if got := reg.Gauge("fs/dirty.pages").Value(); got != 1 {
			t.Errorf("fs/dirty.pages = %d after unlinking a file with 5 dirty pages, want 1", got)
		}
		if gone.DirtyPages() != 0 {
			t.Errorf("unlinked inode still lists %d dirty pages", gone.DirtyPages())
		}
		e.fs.SyncFS(p)
		if got := reg.Gauge("fs/dirty.pages").Value(); got != 0 {
			t.Errorf("fs/dirty.pages = %d after SyncFS, want 0", got)
		}
	})
}
