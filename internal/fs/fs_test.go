package fs

import (
	"fmt"
	"testing"
	"unsafe"

	"repro/internal/block"
	"repro/internal/device"
	"repro/internal/jbd"
	"repro/internal/sim"
)

type env struct {
	k   *sim.Kernel
	dev *device.Device
	l   *block.Layer
	fs  *FS
}

func newEnv(mode jbd.Mode) *env { return newEnvOpts(mode, nil) }

// newEnvOpts is newEnv with a hook to adjust the mount options.
func newEnvOpts(mode jbd.Mode, tweak func(*Options)) *env {
	k := sim.NewKernel()
	cfg := device.UFS()
	cfg.QueueDepth = 16
	cfg.DMAPerPage = 10 * sim.Microsecond
	cfg.CmdOverhead = 2 * sim.Microsecond
	dev := device.New(k, cfg)
	l := block.NewLayer(k, dev, block.NewEpochScheduler(block.NewNOOP()), block.LayerConfig{
		DispatchOverhead: sim.Microsecond,
	})
	opts := DefaultOptions(mode)
	opts.Journal.Pages = 256
	opts.Journal.CheckpointLow = 32
	if tweak != nil {
		tweak(&opts)
	}
	f := New(k, l, opts)
	return &env{k: k, dev: dev, l: l, fs: f}
}

func (e *env) run(body func(p *sim.Proc)) {
	e.k.Spawn("app", body)
	e.k.Run()
}

func (e *env) close() { e.k.Close() }

func TestCreateLookupUnlink(t *testing.T) {
	e := newEnv(jbd.ModeJBD2)
	defer e.close()
	e.run(func(p *sim.Proc) {
		f, err := e.fs.Create(p, e.fs.Root(), "a.txt")
		if err != nil {
			t.Fatal(err)
		}
		if f.dir {
			t.Error("file is a dir")
		}
		if got, ok := e.fs.Lookup(e.fs.Root(), "a.txt"); !ok || got != f {
			t.Error("lookup failed")
		}
		if _, err := e.fs.Create(p, e.fs.Root(), "a.txt"); err == nil {
			t.Error("duplicate create allowed")
		}
		if err := e.fs.Unlink(p, e.fs.Root(), "a.txt"); err != nil {
			t.Fatal(err)
		}
		if _, ok := e.fs.Lookup(e.fs.Root(), "a.txt"); ok {
			t.Error("lookup after unlink succeeded")
		}
		if err := e.fs.Unlink(p, e.fs.Root(), "a.txt"); err == nil {
			t.Error("double unlink allowed")
		}
	})
}

func TestMkdirNesting(t *testing.T) {
	e := newEnv(jbd.ModeJBD2)
	defer e.close()
	e.run(func(p *sim.Proc) {
		d, err := e.fs.Mkdir(p, e.fs.Root(), "dir")
		if err != nil {
			t.Fatal(err)
		}
		if !d.dir {
			t.Fatal("mkdir made a file")
		}
		f, err := e.fs.Create(p, d, "nested")
		if err != nil {
			t.Fatal(err)
		}
		if got, ok := e.fs.Lookup(d, "nested"); !ok || got != f {
			t.Error("nested lookup failed")
		}
		if _, err := e.fs.Create(p, f, "x"); err == nil {
			t.Error("create under a file allowed")
		}
	})
}

func TestWriteExtendsSizeAndAllocates(t *testing.T) {
	e := newEnv(jbd.ModeJBD2)
	defer e.close()
	e.run(func(p *sim.Proc) {
		f, _ := e.fs.Create(p, e.fs.Root(), "f")
		e.fs.Write(p, f, 0)
		e.fs.Write(p, f, 3) // sparse
		if f.size != 4*PageSize {
			t.Errorf("size = %d", f.size)
		}
		if f.DirtyPages() != 2 {
			t.Errorf("dirty = %d", f.DirtyPages())
		}
		if !f.MetaPending() {
			t.Error("allocating write did not dirty metadata")
		}
	})
}

// TestPageEntrySize pins the page-cache entry at 32 B: a field order that
// pads the flags apart costs 8 B on every cached page.
func TestPageEntrySize(t *testing.T) {
	if n := unsafe.Sizeof(page{}); n != 32 {
		t.Errorf("page is %d B, want 32", n)
	}
}

func TestReadBackAfterSync(t *testing.T) {
	e := newEnv(jbd.ModeJBD2)
	defer e.close()
	e.run(func(p *sim.Proc) {
		f, _ := e.fs.Create(p, e.fs.Root(), "f")
		e.fs.Write(p, f, 0)
		wantVer, _, _ := e.fs.Read(p, f, 0, 0)
		e.fs.Fsync(p, f)
		// Evict by reaching through a fresh page read: drop the cache entry.
		f.pages[0] = nil
		gotVer, ok, err := e.fs.Read(p, f, 0, 0)
		if !ok || err != nil || gotVer != wantVer {
			t.Errorf("read after sync = %d,%v,%v want %d", gotVer, ok, err, wantVer)
		}
		if _, ok, _ := e.fs.Read(p, f, 9, 0); ok {
			t.Error("read of a hole succeeded")
		}
	})
}

func TestFsyncDurableAcrossCrashJBD2(t *testing.T) {
	testFsyncDurableAcrossCrash(t, jbd.ModeJBD2)
}

func TestFsyncDurableAcrossCrashDual(t *testing.T) {
	testFsyncDurableAcrossCrash(t, jbd.ModeDual)
}

func testFsyncDurableAcrossCrash(t *testing.T, mode jbd.Mode) {
	e := newEnv(mode)
	var ver int64
	var home uint64
	e.run(func(p *sim.Proc) {
		f, _ := e.fs.Create(p, e.fs.Root(), "precious")
		home = f.home
		e.fs.Write(p, f, 0)
		e.fs.Write(p, f, 1)
		e.fs.Fsync(p, f)
		ver, _, _ = e.fs.Read(p, f, 1, 0)
	})
	e.dev.Crash()
	var view *View
	e.k.Spawn("rec", func(p *sim.Proc) {
		d2 := device.Recover(p, e.dev)
		view = Recover(d2.DurableData, e.fs.opts.Journal)
	})
	e.k.Run()
	defer e.close()
	root, ok := view.Root(e.fs)
	if !ok {
		t.Fatal("root not recovered")
	}
	meta, ok := view.Lookup(root, "precious")
	if !ok {
		t.Fatalf("fsync'd file lost after crash (%v)", mode)
	}
	if meta.Ino == 0 || meta.Size != 2*PageSize {
		t.Errorf("meta = %+v", meta)
	}
	if got, ok := view.PageVersion(meta, 1); !ok || got != ver {
		t.Errorf("page 1 version = %d,%v want %d", got, ok, ver)
	}
	if _, ok := view.metaAt(home); !ok {
		t.Error("inode home unreachable")
	}
}

func TestUnsyncedDataLostAfterCrash(t *testing.T) {
	e := newEnv(jbd.ModeJBD2)
	e.run(func(p *sim.Proc) {
		f, _ := e.fs.Create(p, e.fs.Root(), "ghost")
		e.fs.Write(p, f, 0)
		// no fsync
	})
	e.dev.Crash()
	var view *View
	e.k.Spawn("rec", func(p *sim.Proc) {
		d2 := device.Recover(p, e.dev)
		view = Recover(d2.DurableData, e.fs.opts.Journal)
	})
	e.k.Run()
	defer e.close()
	root, ok := view.Root(e.fs)
	if ok {
		if _, found := view.Lookup(root, "ghost"); found {
			t.Error("unsynced create survived crash (acceptable only if a commit ran; none should have)")
		}
	}
}

func TestFsyncDegradesToFdatasyncWithinJiffy(t *testing.T) {
	// Two writes to an allocated page within one jiffy: the second fsync
	// must find clean metadata and skip the journal commit (Fig. 11).
	e := newEnv(jbd.ModeDual)
	defer e.close()
	e.run(func(p *sim.Proc) {
		f, _ := e.fs.Create(p, e.fs.Root(), "f")
		e.fs.Write(p, f, 0)
		e.fs.Fsync(p, f) // commits allocation
		commits := e.fs.Journal().Stats().Commits
		e.fs.Write(p, f, 0) // same jiffy, no alloc -> no metadata
		if f.MetaPending() {
			t.Fatal("overwrite within jiffy dirtied metadata")
		}
		e.fs.Fsync(p, f)
		if got := e.fs.Journal().Stats().Commits; got != commits {
			t.Errorf("degraded fsync committed a txn (%d -> %d)", commits, got)
		}
	})
}

func TestWriteAcrossJiffyDirtiesMetadata(t *testing.T) {
	e := newEnv(jbd.ModeDual)
	defer e.close()
	e.run(func(p *sim.Proc) {
		f, _ := e.fs.Create(p, e.fs.Root(), "f")
		e.fs.Write(p, f, 0)
		e.fs.Fsync(p, f)
		p.Sleep(11 * sim.Millisecond) // cross a jiffy boundary
		e.fs.Write(p, f, 0)
		if !f.MetaPending() {
			t.Error("cross-jiffy overwrite left metadata clean")
		}
	})
}

func TestContextSwitchCounts(t *testing.T) {
	// The Fig. 11 structure: EXT4-DR fsync = 2 voluntary switches,
	// BFS-DR fsync (real commit) = 1, BFS fdatabarrier = 0.
	cases := []struct {
		name    string
		mode    jbd.Mode
		call    func(e *env, p *sim.Proc, f *Inode)
		want    int64
		preSync bool // fsync once first so the page is allocated
	}{
		{"EXT4-DR-commit", jbd.ModeJBD2, func(e *env, p *sim.Proc, f *Inode) { e.fs.Fsync(p, f) }, 2, false},
		{"BFS-DR-commit", jbd.ModeDual, func(e *env, p *sim.Proc, f *Inode) { e.fs.Fsync(p, f) }, 1, false},
		{"BFS-fdatabarrier", jbd.ModeDual, func(e *env, p *sim.Proc, f *Inode) { e.fs.Fdatabarrier(p, f) }, 0, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e := newEnv(c.mode)
			defer e.close()
			e.run(func(p *sim.Proc) {
				f, _ := e.fs.Create(p, e.fs.Root(), "f")
				e.fs.Write(p, f, 0)
				if c.preSync {
					e.fs.Fsync(p, f)
					e.fs.Write(p, f, 0) // same jiffy: no metadata
				}
				before := p.VoluntarySwitches()
				c.call(e, p, f)
				got := p.VoluntarySwitches() - before
				if got != c.want {
					t.Errorf("%s: %d voluntary switches, want %d", c.name, got, c.want)
				}
			})
		})
	}
}

func TestFbarrierFasterThanFsync(t *testing.T) {
	// fbarrier returns without waiting for any DMA or flush; its latency
	// must be a small fraction of fsync's.
	timeOf := func(mode jbd.Mode, call func(e *env, p *sim.Proc, f *Inode)) sim.Duration {
		e := newEnv(mode)
		defer e.close()
		var d sim.Duration
		e.run(func(p *sim.Proc) {
			f, _ := e.fs.Create(p, e.fs.Root(), "f")
			e.fs.Write(p, f, 0)
			t0 := p.Now()
			call(e, p, f)
			d = sim.Duration(p.Now() - t0)
		})
		return d
	}
	fsyncT := timeOf(jbd.ModeJBD2, func(e *env, p *sim.Proc, f *Inode) { e.fs.Fsync(p, f) })
	fbT := timeOf(jbd.ModeDual, func(e *env, p *sim.Proc, f *Inode) { e.fs.Fbarrier(p, f) })
	if fbT*5 > fsyncT {
		t.Errorf("fbarrier %v not clearly faster than EXT4 fsync %v", fbT, fsyncT)
	}
}

func TestFdatasyncSkipsTimestampOnlyCommit(t *testing.T) {
	e := newEnv(jbd.ModeJBD2)
	defer e.close()
	e.run(func(p *sim.Proc) {
		f, _ := e.fs.Create(p, e.fs.Root(), "f")
		e.fs.Write(p, f, 0)
		e.fs.Fsync(p, f) // allocation committed
		p.Sleep(11 * sim.Millisecond)
		e.fs.Write(p, f, 0) // timestamp-only metadata
		commits := e.fs.Journal().Stats().Commits
		e.fs.Fdatasync(p, f)
		if got := e.fs.Journal().Stats().Commits; got != commits {
			t.Error("fdatasync committed a timestamp-only txn")
		}
		if !f.MetaPending() {
			t.Error("timestamp change should still be pending for a later fsync")
		}
	})
}

func TestFdatabarrierOrderingAcrossCrash(t *testing.T) {
	// The "Hello"/"World" codelet of §4.1: with fdatabarrier between two
	// writes, a crash must never show the second write without the first.
	for _, crashUs := range []int{50, 150, 400, 900, 2000, 5000, 12000} {
		e := newEnv(jbd.ModeDual)
		var f *Inode
		e.k.Spawn("app", func(p *sim.Proc) {
			f, _ = e.fs.Create(p, e.fs.Root(), "hw")
			e.fs.Write(p, f, 0)
			e.fs.Fsync(p, f)    // establish the file durably
			e.fs.Write(p, f, 0) // "Hello"
			e.fs.Fdatabarrier(p, f)
			e.fs.Write(p, f, 1) // "World"
			e.fs.Fdatabarrier(p, f)
			// Push more traffic so writeback happens eventually.
			for i := 2; i < 30; i++ {
				e.fs.Write(p, f, int64(i))
				e.fs.Fdatabarrier(p, f)
			}
			e.fs.Fsync(p, f)
		})
		e.k.RunUntil(sim.Time(sim.Duration(crashUs) * sim.Microsecond))
		e.dev.Crash()
		var view *View
		e.k.Spawn("rec", func(p *sim.Proc) {
			d2 := device.Recover(p, e.dev)
			view = Recover(d2.DurableData, e.fs.opts.Journal)
		})
		e.k.Run()
		root, ok := view.Root(e.fs)
		if ok {
			if meta, ok := view.Lookup(root, "hw"); ok {
				// Versions increase with write order: ver(page1) durable
				// implies the *second* version of page0 durable.
				v0, ok0 := view.PageVersion(meta, 0)
				v1, ok1 := view.PageVersion(meta, 1)
				if ok1 && v1 > 0 {
					if !ok0 || v0 < v1-1 {
						t.Errorf("crash@%dµs: 'World' (v%d) durable without 'Hello' (v%d,%v)",
							crashUs, v1, v0, ok0)
					}
				}
			}
		}
		e.close()
	}
}

func TestSyncFS(t *testing.T) {
	e := newEnv(jbd.ModeDual)
	defer e.close()
	e.run(func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			f, _ := e.fs.Create(p, e.fs.Root(), string(rune('a'+i)))
			e.fs.Write(p, f, 0)
		}
		e.fs.SyncFS(p)
		for i := 0; i < 5; i++ {
			f, _ := e.fs.Lookup(e.fs.Root(), string(rune('a'+i)))
			if f.DirtyPages() != 0 {
				t.Errorf("file %d still dirty after SyncFS", i)
			}
		}
	})
}

func TestOptFSSelectiveDataJournaling(t *testing.T) {
	// Overwrites of previously synced pages must be journaled; fresh
	// allocations must not.
	e := newEnv(jbd.ModeOptFS)
	defer e.close()
	e.run(func(p *sim.Proc) {
		f, _ := e.fs.Create(p, e.fs.Root(), "f")
		e.fs.Write(p, f, 0)
		e.fs.Fbarrier(p, f) // osync: first write goes in place
		if e.fs.Stats().DataJournaled != 0 {
			t.Errorf("fresh write journaled: %d", e.fs.Stats().DataJournaled)
		}
		e.fs.Write(p, f, 0) // overwrite
		e.fs.Fbarrier(p, f)
		if e.fs.Stats().DataJournaled != 1 {
			t.Errorf("overwrite not selectively journaled: %d", e.fs.Stats().DataJournaled)
		}
	})
}

func TestManyFilesManyCommits(t *testing.T) {
	// Exercise journal wraparound + checkpointing under a varmail-like
	// create/write/fsync/unlink churn. The 64-page journals leave a commit's
	// reservation larger than the space above the checkpoint low-water mark:
	// the reserver must wake the checkpointer, or every fsync after the
	// journal fills waits for space forever.
	cases := []struct {
		name        string
		mode        jbd.Mode
		pages, low  int
		files       int
		unlinkEvery int // unlink every nth file (0: never)
	}{
		{"BFS-churn", jbd.ModeDual, 256, 32, 120, 3},
		{"EXT4-64-pages", jbd.ModeJBD2, 64, 4, 200, 0},
		{"BFS-64-pages", jbd.ModeDual, 64, 4, 200, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e := newEnvOpts(c.mode, func(o *Options) {
				o.Journal.Pages, o.Journal.CheckpointLow = c.pages, c.low
			})
			defer e.close()
			synced := 0
			e.run(func(p *sim.Proc) {
				for i := 0; i < c.files; i++ {
					name := fmt.Sprintf("f%03d", i)
					f, err := e.fs.Create(p, e.fs.Root(), name)
					if err != nil {
						t.Fatal(err)
					}
					e.fs.Write(p, f, 0)
					e.fs.Fsync(p, f)
					synced++
					if c.unlinkEvery > 0 && i%c.unlinkEvery == c.unlinkEvery-1 {
						_ = e.fs.Unlink(p, e.fs.Root(), name)
					}
				}
			})
			st := e.fs.Journal().Stats()
			if synced != c.files {
				t.Fatalf("%d of %d fsyncs returned (checkpoints %d, free pages %d)",
					synced, c.files, st.Checkpoints, e.fs.Journal().FreePages())
			}
			if st.Checkpoints == 0 {
				t.Error("no checkpoints under churn")
			}
			if e.fs.Journal().FreePages() <= 0 {
				t.Errorf("journal space exhausted: %d", e.fs.Journal().FreePages())
			}
		})
	}
}

// TestFdatabarrierJBD2ChargesOnce: on a JBD2 mount Fdatabarrier falls back
// to fdatasync's semantics, but it stays one fdatabarrier call — one
// SyscallCPU charge, and Stats().Fdatasyncs untouched.
func TestFdatabarrierJBD2ChargesOnce(t *testing.T) {
	const syscall = 100 * sim.Millisecond // dwarfs the IO
	e := newEnvOpts(jbd.ModeJBD2, func(o *Options) { o.SyscallCPU = syscall })
	defer e.close()
	e.run(func(p *sim.Proc) {
		f, _ := e.fs.Create(p, e.fs.Root(), "f")
		e.fs.Write(p, f, 0)
		before, t0 := e.fs.Stats(), p.Now()
		e.fs.Fdatabarrier(p, f)
		d, after := p.Now().Sub(t0), e.fs.Stats()
		if after.Fdatasyncs != before.Fdatasyncs || after.Fdatabarriers != before.Fdatabarriers+1 {
			t.Errorf("fdatasyncs %d -> %d, fdatabarriers %d -> %d: want one fdatabarrier only",
				before.Fdatasyncs, after.Fdatasyncs, before.Fdatabarriers, after.Fdatabarriers)
		}
		if d < syscall || d >= 2*syscall {
			t.Errorf("Fdatabarrier took %v: want one %v syscall charge plus the IO", d, syscall)
		}
	})
}
