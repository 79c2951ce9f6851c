package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/par"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Fig1Row is one device of the Fig. 1 sweep.
type Fig1Row struct {
	Device       string  `col:"device,device,%-24s"`
	Channels     int     `col:"channels,channels,%8d,axis"`
	BufferedIOPS float64 `col:"buffered_iops,buffered IOPS,%14.0f"` // plain write()
	OrderedIOPS  float64 `col:"ordered_iops,ordered IOPS,%14.0f"`   // write() + fdatasync()
	RatioPercent float64 `col:"ratio_percent,ratio,%7.1f%%"`
}

// Fig1Result is the ordered-vs-buffered ratio sweep.
type Fig1Result struct{ Rows []Fig1Row }

// Fig1 reproduces Fig. 1: as device parallelism grows, ordered-write
// throughput collapses relative to buffered-write throughput.
func Fig1(scale Scale) Fig1Result {
	dur := scale.dur(50*sim.Millisecond, 300*sim.Millisecond)
	rows := make([]Fig1Row, device.NumFig1Devices)
	par.For(len(rows), func(i int) {
		rows[i] = fig1Device(i, dur)
	})
	return Fig1Result{Rows: rows}
}

func fig1Device(i int, dur sim.Duration) Fig1Row {
	cfg := device.Fig1Device(i)
	buffered := runRandPolicy(core.EXT4OD(cfg), workload.PolicyP, dur)
	ordered := runRandPolicy(core.EXT4DR(cfg), workload.PolicyXnF, dur)
	ratio := 0.0
	if buffered.PerS > 0 {
		ratio = ordered.PerS / buffered.PerS * 100
	}
	return Fig1Row{
		Device:       cfg.Name,
		Channels:     cfg.Geometry.Channels,
		BufferedIOPS: buffered.PerS,
		OrderedIOPS:  ordered.PerS,
		RatioPercent: ratio,
	}
}

// Fig1Device runs a single device of the Fig. 1 sweep at Quick scale
// (bench helper).
func Fig1Device(i int) Fig1Row {
	return fig1Device(i, 50*sim.Millisecond)
}

func runRandPolicy(prof core.Profile, po workload.Policy, dur sim.Duration) workload.RandWriteResult {
	k := newKernel(fmt.Sprintf("randwrite/%s/%s/%v", prof.Device.Name, prof.Name, po))
	defer k.Close()
	s := core.NewStack(k, prof)
	cfg := workload.DefaultRandWrite(po)
	cfg.Duration = dur
	cfg.Warmup = dur / 5
	cfg.FilePages = 1024
	return workload.RandWrite(k, s, cfg)
}

// Fig9Row is one (device, policy) cell of Fig. 9.
type Fig9Row struct {
	Device string          `col:"device,device,%-14s"`
	Policy workload.Policy `col:"policy,mode,%-4s"`
	IOPS   float64         `col:"iops,IOPS,%10.0f"`
	MeanQD float64         `col:"mean_qd,meanQD,%8.1f"`
	PeakQD float64         `col:"peak_qd,peakQD,%8.0f"`
}

// Fig9Result is the 4KB random-write matrix.
type Fig9Result struct{ Rows []Fig9Row }

// Fig9 reproduces Fig. 9: IOPS and queue depth of 4KB random writes under
// XnF / X / B / P on UFS, plain-SSD and supercap-SSD.
func Fig9(scale Scale) Fig9Result {
	dur := scale.dur(60*sim.Millisecond, 400*sim.Millisecond)
	devices := []func() device.Config{device.UFS, device.PlainSSD, device.SupercapSSD}
	policies := []workload.Policy{workload.PolicyXnF, workload.PolicyX, workload.PolicyB, workload.PolicyP}
	rows := make([]Fig9Row, len(devices)*len(policies))
	par.For(len(rows), func(i int) {
		dev, po := devices[i/len(policies)](), policies[i%len(policies)]
		r := runRandPolicy(profileForPolicy(po, dev), po, dur)
		rows[i] = Fig9Row{Device: dev.Name, Policy: po, IOPS: r.PerS, MeanQD: r.MeanQD, PeakQD: r.PeakQD}
	})
	return Fig9Result{Rows: rows}
}

// profileForPolicy maps a Fig. 9 policy to its stack configuration.
func profileForPolicy(po workload.Policy, cfg device.Config) core.Profile {
	switch po {
	case workload.PolicyXnF:
		return core.EXT4DR(cfg)
	case workload.PolicyX:
		return core.EXT4OD(cfg)
	case workload.PolicyB:
		return core.BFSOD(cfg)
	default:
		return core.EXT4OD(cfg)
	}
}

// Fig10Result is a pair of queue-depth traces.
type Fig10Result struct {
	Device  string `col:"device"`
	XTrace  string
	BTrace  string
	XMeanQD float64 `col:"wot_mean_qd"`
	BMeanQD float64 `col:"barrier_mean_qd"`
}

// Fig10 reproduces Fig. 10: the queue-depth timeline under Wait-on-Transfer
// stays pinned at <=1 while the barrier-enabled run saturates the queue.
func Fig10(scale Scale) []Fig10Result {
	dur := scale.dur(40*sim.Millisecond, 200*sim.Millisecond)
	devices := []func() device.Config{device.PlainSSD, device.UFS}
	out := make([]Fig10Result, len(devices))
	run := func(prof core.Profile, po workload.Policy, qd int) (float64, string) {
		k := newKernel(fmt.Sprintf("fig10/%s/%v", prof.Device.Name, po))
		defer k.Close()
		s := core.NewStack(k, prof)
		cfg := workload.DefaultRandWrite(po)
		cfg.Duration, cfg.Warmup, cfg.FilePages = dur, dur/5, 512
		r := workload.RandWrite(k, s, cfg)
		return r.MeanQD, s.Dev.QDSeries().AsciiPlot(r.Start,
			r.Start.Add(sim.Duration(r.End-r.Start)/3), 12, float64(qd))
	}
	for i, dev := range devices {
		out[i].Device = dev().Name
	}
	// Four independent kernels: device x {Wait-on-Transfer, barrier}.
	par.For(2*len(devices), func(i int) {
		dev := devices[i/2]()
		if i%2 == 0 {
			out[i/2].XMeanQD, out[i/2].XTrace = run(core.EXT4OD(dev), workload.PolicyX, dev.QueueDepth)
		} else {
			out[i/2].BMeanQD, out[i/2].BTrace = run(core.BFSOD(dev), workload.PolicyB, dev.QueueDepth)
		}
	})
	return out
}

// fig10Plots prints the trace pair of every device. Not a generated table:
// the cells are multi-line ASCII plots.
func fig10Plots(rs []Fig10Result) string {
	var b strings.Builder
	for _, r := range rs {
		fmt.Fprintf(&b, "-- %s --\n", r.Device)
		fmt.Fprintf(&b, "Wait-on-Transfer (mean QD %.2f):\n%s\n", r.XMeanQD, r.XTrace)
		fmt.Fprintf(&b, "Barrier (mean QD %.2f):\n%s\n", r.BMeanQD, r.BTrace)
	}
	return b.String()
}
