package main

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/crashmc"
	"repro/internal/device"
	"repro/internal/fs"
	"repro/internal/sim"
)

// fsync-journal: four clients on BFS-DR over the plain SSD, each appending a
// 4 KB page to its own file and fsyncing it, unlinking and re-creating the
// file every fsyncRecreate appends (bounded inode size, namespace churn).
// Closed loop. One op is one fsync. The baseline runs the same inputs on
// EXT4-DR.
//
// Why: the paper's fsync experiments (DWSL scaling, the fsync latency table)
// — fs and jbd (dual-mode commit and flush threads, the conflict list) do
// most of the work, kvwal and kvcluster none. It is also where the
// whole-inode snapshot per journaled commit shows in host_bytes_per_op.
const (
	fsyncClients  = 4
	fsyncWarmup   = 1 * sim.Second
	fsyncWindow   = 4 * sim.Second
	fsyncRecreate = 1024
)

// fsyncClient is one client's host-side history of its current file.
type fsyncClient struct {
	name  string
	acked []crashmc.AckedWrite
}

func runFsyncJournal(seed int64, scale float64, mode passMode) *pass {
	ps := newPass(mode, fsyncWindow.Scale(scale))
	start := readHost()
	tr := ps.tr
	k := ps.newKernel()
	defer k.Close()
	prof := core.BFSDR(device.PlainSSD())
	if mode == passBaseline {
		prof = core.EXT4DR(device.PlainSSD())
	}
	s := ps.buildStack(k, prof)

	warmEnd := sim.Time(fsyncWarmup.Scale(scale))
	end := warmEnd.Add(ps.win)
	ps.lat = make(latencies, 0, int(8000*ps.win.Seconds()))
	var writeLat latencies
	var syncs, switches int64
	measuring := false
	clients := make([]*fsyncClient, fsyncClients)
	for c := range clients {
		cl := &fsyncClient{name: fmt.Sprintf("client-%d.dat", c), acked: make([]crashmc.AckedWrite, 0, fsyncRecreate)}
		clients[c] = cl
		rng := rand.New(rand.NewSource(seed<<8 + int64(c)))
		k.SpawnIdx("bench/fsync", c, func(p *sim.Proc) {
			// The seed staggers the clients and places each file's first
			// re-creation, so commits group differently per seed.
			p.Sleep(sim.Duration(rng.Intn(500)) * sim.Microsecond)
			appends := int64(rng.Intn(fsyncRecreate))
			f, err := s.FS.Create(p, s.FS.Root(), cl.name)
			if err != nil {
				panic(err)
			}
			for idx := int64(0); ; idx++ {
				if appends == fsyncRecreate {
					if err := s.FS.Unlink(p, s.FS.Root(), cl.name); err != nil {
						panic(err)
					}
					if f, err = s.FS.Create(p, s.FS.Root(), cl.name); err != nil {
						panic(err)
					}
					appends, idx, cl.acked = 0, 0, cl.acked[:0]
				}
				op := tr.begin(p, "client", "append+fsync")
				ws := tr.begin(p, "fs", "write")
				s.FS.Write(p, f, idx)
				wd := tr.end(p, ws)
				ss := tr.begin(p, "fs", "fsync")
				t0, v0 := p.Now(), p.VoluntarySwitches()
				s.FS.Fsync(p, f)
				d := p.Now().Sub(t0)
				tr.end(p, ss)
				tr.end(p, op)
				appends++
				ver, _ := s.FS.PageVer(f, idx)
				cl.acked = append(cl.acked, crashmc.AckedWrite{Idx: idx, Ver: ver})
				if measuring {
					ps.ops++
					ps.lat = append(ps.lat, d)
					syncs++
					switches += p.VoluntarySwitches() - v0
					if tr != nil {
						writeLat = append(writeLat, wd)
					}
				}
			}
		})
	}

	k.RunUntil(warmEnd)
	ps.setup = readHost().since(start)
	d0, k0 := countDevice(s.Dev), countKernel(k.Stats())
	j0, f0 := s.FS.Journal().Stats(), s.FS.Stats()
	var e0 int64
	if ps.traced() {
		e0 = epochsClosed(s.Layer)
	}
	measuring = true
	ps.measure(k, end)
	measuring = false
	d1, k1 := countDevice(s.Dev), countKernel(k.Stats())
	j1, f1 := s.FS.Journal().Stats(), s.FS.Stats()
	ps.userPages = ps.ops
	ps.nandPrograms = d1.nand.Programs - d0.nand.Programs
	ps.attempted = ps.ops

	if ps.traced() {
		ps.layers = map[string]float64{
			"fs.write_us_p50":          writeLat.pct(50),
			"fs.sync_us_p50":           ps.lat.pct(50),
			"fs.sync_us_p99":           ps.lat.pct(99),
			"fs.ctx_switches_per_sync": ratio(float64(switches), float64(syncs)),
		}
		deviceLayers(ps.layers, d0, d1, k0, k1, ps.ops)
		journalLayers(ps.layers, j0, j1, f0, f1, ps.ops)
		ls := s.Layer.Stats()
		ps.layers["block.staged_peak"] = float64(ls.StagedPeak)
		ps.layers["block.epochs_closed_per_op"] = ratio(float64(epochsClosed(s.Layer)-e0), float64(ps.ops))
	}

	// Power-fail under load at the window's end and audit the recovered image:
	// every fsync-acknowledged page of every client's current file must be
	// readable at least as new as acknowledged.
	s.Crash()
	var view *fs.View
	k.Spawn("bench/recover", func(p *sim.Proc) { view, _ = s.RecoverView(p) })
	k.Run()
	if sabotage {
		clients[0].acked = append(clients[0].acked, crashmc.AckedWrite{Idx: 1 << 20, Ver: 1})
	}
	for _, cl := range clients {
		chk := &crashmc.DurabilityChecker{FS: s.FS, File: cl.name, Synced: cl.acked}
		for _, v := range chk.Check(&crashmc.State{View: view, ID: "window-end"}) {
			ps.ackedLost++
			if ps.ackedLost <= 3 {
				ps.fail("fsync-journal: %s: %s", cl.name, v.Detail)
			}
		}
		ps.dg.i64(int64(len(cl.acked)))
	}
	if ps.traced() {
		blockLayers(ps.layers, ps.tr, s.Layer.DispatchLog(), warmEnd, end, ps.ops)
		ps.layers["fs.self_us_per_op"] = ratio(ps.tr.uncovered("fs", "fsync", warmEnd, end).Micros(), float64(ps.ops))
	}
	ps.dg.i64(j1.Commits, j1.PagesLogged, j1.Flushes, d1.dev.Writes, d1.dev.Flushes, d1.nand.Programs, int64(len(view.Journal().Applied)))
	ps.seal()
	return ps
}
