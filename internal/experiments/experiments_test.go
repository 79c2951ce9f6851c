package experiments

import (
	"strings"
	"testing"
)

// The experiment tests run everything at Quick scale and assert the
// paper's qualitative shapes, not absolute numbers. Even at Quick scale the
// full set takes tens of seconds, so every test is gated behind
// testing.Short(): `go test -short ./...` skips them and finishes fast.

// skipIfShort skips a simulation-heavy experiment test under -short.
func skipIfShort(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("skipping slow experiment in -short mode")
	}
}

// textOf renders an outcome through the named experiment's declared table.
func textOf(t *testing.T, name string, o Outcome) string {
	t.Helper()
	e, ok := Lookup(name)
	if !ok {
		t.Fatalf("experiment %q is not registered", name)
	}
	return e.Text(o)
}

func TestFig1Shape(t *testing.T) {
	skipIfShort(t)
	res := Fig1(Quick)
	if len(res.Rows) != 7 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// The ratio must collapse from the single-channel mobile part to the
	// thirty-two channel array.
	first, last := res.Rows[0], res.Rows[len(res.Rows)-1]
	if first.RatioPercent <= last.RatioPercent {
		t.Errorf("ratio did not collapse with parallelism: %s=%.1f%% vs %s=%.1f%%",
			first.Device, first.RatioPercent, last.Device, last.RatioPercent)
	}
	// Buffered IOPS must grow with parallelism.
	if last.BufferedIOPS < first.BufferedIOPS*2 {
		t.Errorf("flash array (%.0f) not much faster than eMMC (%.0f)",
			last.BufferedIOPS, first.BufferedIOPS)
	}
	if !strings.Contains(textOf(t, "fig1", rows(res.Rows)), "Fig 1") {
		t.Error("render broken")
	}
}

func TestFig9Shape(t *testing.T) {
	skipIfShort(t)
	res := Fig9(Quick)
	if len(res.Rows) != 12 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	byKey := map[string]float64{}
	qd := map[string]float64{}
	for _, r := range res.Rows {
		byKey[r.Device+"/"+r.Policy.String()] = r.IOPS
		qd[r.Device+"/"+r.Policy.String()] = r.MeanQD
	}
	for _, dev := range []string{"UFS", "plain-SSD", "supercap-SSD"} {
		xnf, x, b, p := byKey[dev+"/XnF"], byKey[dev+"/X"], byKey[dev+"/B"], byKey[dev+"/P"]
		if !(xnf <= x && x < b) {
			t.Errorf("%s: expected XnF <= X < B, got %.0f %.0f %.0f", dev, xnf, x, b)
		}
		min := 2.0
		if dev == "UFS" {
			// The 70µs UFS DMA dominates both modes; the host-side savings
			// land just under 2x in the simulator.
			min = 1.8
		}
		if b < x*min {
			t.Errorf("%s: B (%.0f) below %.1fx X (%.0f)", dev, b, min, x)
		}
		if b > p*1.15 {
			t.Errorf("%s: B (%.0f) implausibly above P (%.0f)", dev, b, p)
		}
		if qd[dev+"/X"] > 2 || qd[dev+"/B"] < 3 {
			t.Errorf("%s: queue depth shape wrong: X=%.1f B=%.1f", dev, qd[dev+"/X"], qd[dev+"/B"])
		}
	}
}

func TestFig10Traces(t *testing.T) {
	skipIfShort(t)
	rs := Fig10(Quick)
	if len(rs) != 2 {
		t.Fatalf("devices = %d", len(rs))
	}
	for _, r := range rs {
		if r.XMeanQD > 2 {
			t.Errorf("%s: Wait-on-Transfer mean QD %.1f, want ~1", r.Device, r.XMeanQD)
		}
		if r.BMeanQD < 4 {
			t.Errorf("%s: barrier mean QD %.1f, want deep", r.Device, r.BMeanQD)
		}
	}
	if !strings.Contains(fig10Plots(rs), "Barrier") {
		t.Error("render broken")
	}
}

func TestTable1Shape(t *testing.T) {
	skipIfShort(t)
	res := Table1(Quick)
	if len(res.Rows) != 6 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	get := func(dev, fsName string) float64 {
		for _, r := range res.Rows {
			if r.Device == dev && r.FS == fsName {
				return r.Mean
			}
		}
		t.Fatalf("missing %s/%s", dev, fsName)
		return 0
	}
	for _, dev := range []string{"UFS", "plain-SSD", "supercap-SSD"} {
		ext, bfs := get(dev, "EXT4"), get(dev, "BFS")
		if bfs >= ext {
			t.Errorf("%s: BFS fsync mean (%.3fms) not below EXT4 (%.3fms)", dev, bfs, ext)
		}
	}
	// Cross-device ordering: supercap << UFS < plain (flush latency rules).
	if !(get("supercap-SSD", "EXT4") < get("UFS", "EXT4")) {
		t.Error("supercap fsync should be fastest")
	}
	if !(get("UFS", "EXT4") < get("plain-SSD", "EXT4")) {
		t.Error("plain-SSD (TLC) fsync should be slowest")
	}
	// Tail behaviour: p99.99 >= p99 >= median for every row.
	for _, r := range res.Rows {
		s := r
		if !(s.Median <= s.P99 && s.P99 <= s.P999 && s.P999 <= s.P9999) {
			t.Errorf("%s/%s: non-monotone percentiles %+v", r.Device, r.FS, s)
		}
	}
}

func TestFig11Shape(t *testing.T) {
	skipIfShort(t)
	res := Fig11(Quick)
	if len(res.Rows) != 12 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	get := func(dev, cfg string) float64 {
		for _, r := range res.Rows {
			if r.Device == dev && r.Config == cfg {
				return r.Switches
			}
		}
		t.Fatalf("missing %s/%s", dev, cfg)
		return 0
	}
	for _, dev := range []string{"UFS", "plain-SSD", "supercap-SSD"} {
		extDR := get(dev, "EXT4-DR")
		bfsOD := get(dev, "BFS-OD")
		if extDR < 1.8 || extDR > 2.2 {
			t.Errorf("%s: EXT4-DR switches = %.2f, want ~2", dev, extDR)
		}
		if bfsOD > 0.5 {
			t.Errorf("%s: BFS-OD switches = %.2f, want ~0", dev, bfsOD)
		}
		if get(dev, "EXT4-OD") > extDR {
			t.Errorf("%s: EXT4-OD should not exceed EXT4-DR", dev)
		}
	}
}

func TestFig12Shape(t *testing.T) {
	skipIfShort(t)
	res := Fig12(Quick)
	// fsync keeps the queue shallow; fbarrier saturates it (paper: 2 vs 15).
	if res.FsyncPeakQD > 6 {
		t.Errorf("fsync peak QD = %.0f, want shallow", res.FsyncPeakQD)
	}
	if res.FbarrierPeakQD < res.FsyncPeakQD*2 {
		t.Errorf("fbarrier peak QD (%.0f) not clearly above fsync (%.0f)",
			res.FbarrierPeakQD, res.FsyncPeakQD)
	}
}

func TestFig13Shape(t *testing.T) {
	skipIfShort(t)
	res := Fig13(Quick)
	get := func(dev, fsName string, th int) float64 {
		for _, r := range res.Rows {
			if r.Device == dev && r.FS == fsName && r.Threads == th {
				return r.OpsPerS
			}
		}
		t.Fatalf("missing %s/%s/%d", dev, fsName, th)
		return 0
	}
	// plain-SSD: BFS-DR above EXT4-DR at every core count (paper: ~2x).
	for _, th := range []int{1, 2, 4, 8} {
		e, b := get("plain-SSD", "EXT4-DR", th), get("plain-SSD", "BFS-DR", th)
		if b < e {
			t.Errorf("plain-SSD %d threads: BFS (%.0f) below EXT4 (%.0f)", th, b, e)
		}
	}
	// Scalability: both filesystems improve from 1 to 8 threads.
	if get("plain-SSD", "EXT4-DR", 8) < get("plain-SSD", "EXT4-DR", 1)*1.5 {
		t.Error("EXT4 journaling did not scale at all")
	}
	if get("plain-SSD", "BFS-DR", 8) < get("plain-SSD", "BFS-DR", 1)*1.5 {
		t.Error("BFS journaling did not scale at all")
	}
}

func TestFig8Shape(t *testing.T) {
	skipIfShort(t)
	res := Fig8(Quick)
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Commit interval ordering: BarrierFS < no-flush < quick-flush < full-flush.
	iv := make([]float64, 4)
	for i, r := range res.Rows {
		iv[i] = r.IntervalUs
	}
	if !(iv[0] < iv[1] && iv[1] <= iv[2] && iv[2] < iv[3]) {
		t.Errorf("commit intervals out of order: %v", iv)
	}
}

func TestFig14Shape(t *testing.T) {
	skipIfShort(t)
	res := Fig14(Quick)
	get := func(dev, cfg string, mode string) float64 {
		for _, r := range res.Rows {
			if r.Device == dev && r.Config == cfg && r.Mode.String() == mode {
				return r.TxPerSec
			}
		}
		t.Fatalf("missing %s/%s/%s", dev, cfg, mode)
		return 0
	}
	// (a) UFS persist: BFS-DR > EXT4-DR.
	if get("UFS", "BFS-DR", "persist") < get("UFS", "EXT4-DR", "persist")*1.3 {
		t.Error("UFS persist: BFS-DR gain missing")
	}
	// (b) plain-SSD ordering: BFS-OD > EXT4-OD and >> EXT4-DR.
	if get("plain-SSD", "BFS-OD", "persist") < get("plain-SSD", "EXT4-OD", "persist") {
		t.Error("plain-SSD: BFS-OD below EXT4-OD")
	}
	if get("plain-SSD", "BFS-OD", "persist") < get("plain-SSD", "EXT4-DR", "persist")*8 {
		t.Error("plain-SSD: BFS-OD vs EXT4-DR headline gain missing")
	}
	// OptFS makes progress but does not beat BFS-OD; the paper found it
	// *below* EXT4-OD on flash (selective data journaling penalty, §6.5).
	optfs := get("plain-SSD", "OptFS", "persist")
	if optfs == 0 {
		t.Error("OptFS made no progress")
	}
	if optfs > get("plain-SSD", "BFS-OD", "persist") {
		t.Error("OptFS should not beat BFS-OD (Wait-on-Transfer vs none)")
	}
}

func TestFig15Shape(t *testing.T) {
	skipIfShort(t)
	res := Fig15(Quick)
	get := func(dev, wl, cfg string) float64 {
		for _, r := range res.Rows {
			if r.Device == dev && r.Workload == wl && r.Config == cfg {
				return r.PerSec
			}
		}
		t.Fatalf("missing %s/%s/%s", dev, wl, cfg)
		return 0
	}
	for _, wl := range []string{"varmail", "OLTP-insert"} {
		// BFS-DR beats EXT4-DR; BFS-OD beats EXT4-OD (plain-SSD).
		if get("plain-SSD", wl, "BFS-DR") < get("plain-SSD", wl, "EXT4-DR") {
			t.Errorf("plain-SSD %s: BFS-DR below EXT4-DR", wl)
		}
		if get("plain-SSD", wl, "BFS-OD") < get("plain-SSD", wl, "EXT4-OD") {
			t.Errorf("plain-SSD %s: BFS-OD below EXT4-OD", wl)
		}
	}
}

func TestRenderers(t *testing.T) {
	skipIfShort(t)
	if !strings.Contains(textOf(t, "table1", rows(Table1(Quick).Rows)), "Table 1") {
		t.Error("table1 render")
	}
}
