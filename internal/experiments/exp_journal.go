package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/fs"
	"repro/internal/metrics"
	"repro/internal/par"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Table1Row is one (device, filesystem) row of Table 1.
type Table1Row struct {
	Device string  `col:"device,device,%-14s"`
	FS     string  `col:"fs,fs,%-5s"`
	Mean   float64 `col:"mean_ms,mean,%9.3f"`
	Median float64 `col:"p50_ms,median,%9.3f"`
	P99    float64 `col:"p99_ms,p99,%9.3f"`
	P999   float64 `col:"p999_ms,p99.9,%9.3f"`
	P9999  float64 `col:"p9999_ms,p99.99,%9.3f"`
}

// Table1Result is the fsync latency statistics table.
type Table1Result struct{ Rows []Table1Row }

// Table1 reproduces Table 1: fsync() latency statistics (mean, median,
// 99th, 99.9th, 99.99th percentile) for EXT4 vs BarrierFS on the three
// devices.
func Table1(scale Scale) Table1Result {
	n := scale.n(400, 5000)
	devices := []func() device.Config{device.UFS, device.PlainSSD, device.SupercapSSD}
	fses := []struct {
		name string
		mk   func(device.Config) core.Profile
	}{
		{"EXT4", core.EXT4DR},
		{"BFS", core.BFSDR},
	}
	rows := make([]Table1Row, len(devices)*len(fses))
	par.For(len(rows), func(i int) {
		dev, f := devices[i/len(fses)](), fses[i%len(fses)]
		s := fsyncLatencies(f.mk(dev), n).Summarize()
		rows[i] = Table1Row{dev.Name, f.name, s.Mean, s.Median, s.P99, s.P999, s.P9999}
	})
	return Table1Result{Rows: rows}
}

// fsyncLatencies runs a 4KB write+fsync loop and records per-call latency.
func fsyncLatencies(prof core.Profile, n int) *metrics.LatencyRecorder {
	k := newKernel("table1/" + prof.Device.Name + "/" + prof.Name)
	defer k.Close()
	s := core.NewStack(k, prof)
	rec := metrics.NewLatencyRecorder(prof.Name)
	k.Spawn("app", func(p *sim.Proc) {
		f, err := s.FS.Create(p, s.FS.Root(), "t.dat")
		if err != nil {
			panic(err)
		}
		// Allocating writes like the paper's DWSL-style fsync loop: every
		// call commits a transaction.
		for i := 0; i < n; i++ {
			s.FS.Write(p, f, int64(i))
			t0 := p.Now()
			s.FS.Fsync(p, f)
			rec.Record(sim.Duration(p.Now() - t0))
		}
		k.Stop()
	})
	k.Run()
	return rec
}

// Fig11Row is one (device, configuration) bar of Fig. 11.
type Fig11Row struct {
	Device   string  `col:"device,device,%-14s"`
	Config   string  `col:"config,config,%-8s"`
	Switches float64 `col:"switches_per_sync,switches,%10.2f"` // voluntary context switches per sync call
}

// Fig11Result is the context-switch census.
type Fig11Result struct{ Rows []Fig11Row }

// Fig11 reproduces Fig. 11: application-level context switches per
// fsync/fbarrier under EXT4-DR, BFS-DR, EXT4-OD and BFS-OD. Writes happen
// back-to-back, so the jiffy-granularity timestamps make most fsyncs behave
// as fdatasync on fast devices — the effect behind the paper's fractional
// counts.
func Fig11(scale Scale) Fig11Result {
	n := scale.n(300, 3000)
	devices := []func() device.Config{device.UFS, device.PlainSSD, device.SupercapSSD}
	cfgs := []struct {
		name string
		mk   func(device.Config) core.Profile
	}{
		{"EXT4-DR", core.EXT4DR},
		{"BFS-DR", core.BFSDR},
		{"EXT4-OD", core.EXT4OD},
		{"BFS-OD", core.BFSOD},
	}
	rows := make([]Fig11Row, len(devices)*len(cfgs))
	par.For(len(rows), func(i int) {
		dev, c := devices[i/len(cfgs)](), cfgs[i%len(cfgs)]
		rows[i] = Fig11Row{Device: dev.Name, Config: c.name, Switches: switchesPerSync(c.mk(dev), n)}
	})
	return Fig11Result{Rows: rows}
}

// switchesPerSync measures voluntary context switches per sync call for a
// 4KB overwrite + sync loop on a preallocated file (the paper's setup: the
// file exists, so metadata dirtying is timestamp-driven).
func switchesPerSync(prof core.Profile, n int) float64 {
	k := newKernel("fig11/" + prof.Device.Name + "/" + prof.Name)
	defer k.Close()
	s := core.NewStack(k, prof)
	meter := metrics.NewSwitchMeter(prof.Name)
	k.Spawn("app", func(p *sim.Proc) {
		f, err := s.FS.Create(p, s.FS.Root(), "t.dat")
		if err != nil {
			panic(err)
		}
		s.FS.Write(p, f, 0)
		s.FS.Fsync(p, f)
		for i := 0; i < n; i++ {
			s.FS.Write(p, f, 0)
			meter.Begin(p)
			s.Sync(p, f)
			meter.End(p)
		}
		k.Stop()
	})
	k.Run()
	return meter.PerOp()
}

// Fig12Result holds the BarrierFS queue-depth traces for fsync vs fbarrier;
// it is also the experiment's one -json row.
type Fig12Result struct {
	FsyncPeakQD    float64 `col:"fsync_peak_qd"`
	FbarrierPeakQD float64 `col:"fbarrier_peak_qd"`
	FsyncTrace     string
	FbarrierTrace  string
}

// Fig12 reproduces Fig. 12: in BarrierFS, fsync() drives the command queue
// to only ~2-3 while fbarrier() saturates it.
func Fig12(scale Scale) Fig12Result {
	run := func(barrier bool) (float64, string) {
		k := newKernel(fmt.Sprintf("fig12/barrier=%v", barrier))
		defer k.Close()
		prof := core.BFSDR(device.UFS())
		s := core.NewStack(k, prof)
		k.Spawn("app", func(p *sim.Proc) {
			f, err := s.FS.Create(p, s.FS.Root(), "t.dat")
			if err != nil {
				panic(err)
			}
			for i := int64(0); ; i++ {
				s.FS.Write(p, f, i)
				if barrier {
					s.FS.Fbarrier(p, f)
				} else {
					s.FS.Fsync(p, f)
				}
			}
		})
		warm := sim.Time(scale.dur(5*sim.Millisecond, 20*sim.Millisecond))
		window := sim.Duration(scale.dur(2*sim.Millisecond, 5*sim.Millisecond))
		qd := s.Dev.QDSeries() // taken before the run: the device records from here on
		k.RunUntil(warm.Add(window))
		return qd.Peak(warm, warm.Add(window)),
			qd.AsciiPlot(warm, warm.Add(window), 12, float64(prof.Device.QueueDepth))
	}
	var out Fig12Result
	par.For(2, func(i int) {
		if i == 0 {
			out.FsyncPeakQD, out.FsyncTrace = run(false)
		} else {
			out.FbarrierPeakQD, out.FbarrierTrace = run(true)
		}
	})
	return out
}

// plots prints the two traces. Not a generated table: the cells are
// multi-line ASCII plots.
func (r Fig12Result) plots() string {
	return fmt.Sprintf("fsync peak QD    = %.0f\n%s\nfbarrier peak QD = %.0f\n%s\n",
		r.FsyncPeakQD, r.FsyncTrace, r.FbarrierPeakQD, r.FbarrierTrace)
}

// Fig13Row is one point of the journaling-scalability curves.
type Fig13Row struct {
	Device  string  `col:"device,device,%-14s"`
	FS      string  `col:"fs,fs,%-8s"`
	Threads int     `col:"threads,threads,%8d,axis"`
	OpsPerS float64 `col:"ops_per_s,ops/s,%12.0f"`
}

// Fig13Result is the DWSL scalability sweep.
type Fig13Result struct{ Rows []Fig13Row }

// Fig13 reproduces Fig. 13 (fxmark DWSL): filesystem journaling throughput
// vs core count for EXT4-DR and BFS-DR on plain-SSD and supercap-SSD.
func Fig13(scale Scale) Fig13Result {
	threads := []int{1, 2, 4, 6, 8, 10, 12}
	if scale == Quick {
		threads = []int{1, 2, 4, 8}
	}
	dur := scale.dur(80*sim.Millisecond, 400*sim.Millisecond)
	devices := []func() device.Config{device.PlainSSD, device.SupercapSSD}
	fses := []struct {
		name string
		prof func(device.Config) core.Profile
	}{
		{"EXT4-DR", core.EXT4DR},
		{"BFS-DR", core.BFSDR},
	}
	rows := make([]Fig13Row, len(devices)*len(fses)*len(threads))
	par.For(len(rows), func(i int) {
		dev := devices[i/(len(fses)*len(threads))]()
		mk := fses[i/len(threads)%len(fses)]
		th := threads[i%len(threads)]
		k := newKernel(fmt.Sprintf("fig13/%s/%s/t%d", dev.Name, mk.name, th))
		defer k.Close()
		s := core.NewStack(k, mk.prof(dev))
		cfg := workload.DefaultDWSL(th)
		cfg.Duration = dur
		cfg.Warmup = dur / 8
		res := workload.DWSL(k, s, cfg)
		rows[i] = Fig13Row{Device: dev.Name, FS: mk.name, Threads: th, OpsPerS: res.PerS}
	})
	return Fig13Result{Rows: rows}
}

// Fig8Row is one journaling mode's inter-commit interval.
type Fig8Row struct {
	Mode       string  `col:"mode,mode,%-30s"`
	IntervalUs float64 `col:"interval_us,interval (µs),%14.1f"`
	CommitsPS  float64 `col:"commits_per_s,commits/s,%12.0f"`
}

// Fig8Result is the commit-interval comparison.
type Fig8Result struct{ Rows []Fig8Row }

// Fig8 reproduces the §4.4 / Fig. 8 analysis: the interval between
// successive journal commits under BarrierFS (tD), EXT4 no-flush (tD+tC),
// EXT4 quick-flush/supercap (tD+tC+tε) and EXT4 full-flush (tD+tC+tF).
func Fig8(scale Scale) Fig8Result {
	n := scale.n(200, 2000)
	// The first three modes share the supercap device so the transfer term
	// tC is identical and only the flush term varies; full flush needs a
	// device with a volatile cache (plain-SSD).
	cases := []struct {
		mode string
		prof core.Profile
		call func(s *core.Stack, p *sim.Proc, f *fs.Inode)
	}{
		{"BarrierFS (tD)", core.BFSOD(device.SupercapSSD()),
			func(s *core.Stack, p *sim.Proc, f *fs.Inode) { s.FS.Fbarrier(p, f) }},
		{"EXT4 no flush (tD+tC)", core.EXT4OD(device.SupercapSSD()),
			func(s *core.Stack, p *sim.Proc, f *fs.Inode) { s.FS.Fsync(p, f) }},
		{"EXT4 quick flush (tD+tC+te)", core.EXT4DR(device.SupercapSSD()),
			func(s *core.Stack, p *sim.Proc, f *fs.Inode) { s.FS.Fsync(p, f) }},
		{"EXT4 full flush (tD+tC+tF)", core.EXT4DR(device.PlainSSD()),
			func(s *core.Stack, p *sim.Proc, f *fs.Inode) { s.FS.Fsync(p, f) }},
	}
	rows := make([]Fig8Row, len(cases))
	par.For(len(cases), func(ci int) {
		c := cases[ci]
		k := newKernel("fig8/" + c.mode)
		defer k.Close()
		s := core.NewStack(k, c.prof)
		var first, last sim.Time
		commits := 0
		k.Spawn("app", func(p *sim.Proc) {
			f, err := s.FS.Create(p, s.FS.Root(), "j.dat")
			if err != nil {
				panic(err)
			}
			for i := 0; i < n; i++ {
				s.FS.Write(p, f, int64(i)) // allocating: forces a commit
				c.call(s, p, f)
				if i == 0 {
					first = p.Now()
				}
				last = p.Now()
				commits++
			}
			k.Stop()
		})
		k.Run()
		interval := 0.0
		if commits > 1 {
			interval = sim.Duration(last-first).Micros() / float64(commits-1)
		}
		rows[ci] = Fig8Row{
			Mode:       c.mode,
			IntervalUs: interval,
			CommitsPS:  1e6 / interval,
		}
	})
	return Fig8Result{Rows: rows}
}
