package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/oltp"
	"repro/internal/par"
	"repro/internal/sim"
	"repro/internal/sqlmini"
	"repro/internal/workload"
)

// Fig14Row is one SQLite configuration. P50/P99 are per-transaction
// latency percentiles in msec from the shared internal/metrics histogram.
type Fig14Row struct {
	Device   string              `col:"device,device,%-12s"`
	Config   string              `col:"config,config,%-8s"`
	Mode     sqlmini.JournalMode `col:"journal_mode,journal,%-8s"`
	TxPerSec float64             `col:"tx_per_s,Tx/s,%12.0f"`
	P50      float64             `col:"p50_ms,p50(ms),%9.3f"`
	P99      float64             `col:"p99_ms,p99(ms),%9.3f"`
}

// Fig14Result is the SQLite matrix.
type Fig14Result struct{ Rows []Fig14Row }

// Fig14 reproduces Fig. 14: SQLite inserts/second. Panel (a): UFS under
// durability guarantee, PERSIST and WAL modes, EXT4-DR vs BFS-DR (BFS
// replaces the first three fdatasyncs of a PERSIST transaction with
// fdatabarrier). Panel (b): plain-SSD under ordering guarantee, EXT4-OD vs
// OptFS vs BFS-OD.
func Fig14(scale Scale) Fig14Result {
	dur := scale.dur(60*sim.Millisecond, 500*sim.Millisecond)
	type cell struct {
		dev  string
		prof core.Profile
		cfg  string
		mode sqlmini.JournalMode
		d    sqlmini.Durability
	}
	var cells []cell
	// (a) UFS, durability guarantee.
	for _, mode := range []sqlmini.JournalMode{sqlmini.Persist, sqlmini.WAL} {
		cells = append(cells,
			cell{"UFS", core.EXT4DR(device.UFS()), "EXT4-DR", mode, sqlmini.Durable},
			cell{"UFS", core.BFSDR(device.UFS()), "BFS-DR", mode, sqlmini.Durable},
		)
	}
	// (b) plain-SSD, ordering guarantee.
	for _, mode := range []sqlmini.JournalMode{sqlmini.Persist, sqlmini.WAL} {
		cells = append(cells,
			cell{"plain-SSD", core.EXT4OD(device.PlainSSD()), "EXT4-OD", mode, sqlmini.OrderingOnly},
			cell{"plain-SSD", core.OptFS(device.PlainSSD()), "OptFS", mode, sqlmini.OrderingOnly},
			cell{"plain-SSD", core.BFSOD(device.PlainSSD()), "BFS-OD", mode, sqlmini.OrderingOnly},
		)
	}
	// Reference: the 73x headline compares BFS-OD against EXT4-DR on
	// plain-SSD in PERSIST mode.
	cells = append(cells,
		cell{"plain-SSD", core.EXT4DR(device.PlainSSD()), "EXT4-DR", sqlmini.Persist, sqlmini.Durable})
	rows := make([]Fig14Row, len(cells))
	par.For(len(cells), func(i int) {
		c := cells[i]
		k := newKernel(fmt.Sprintf("fig14/%s/%s/%v", c.dev, c.cfg, c.mode))
		defer k.Close()
		s := core.NewStack(k, c.prof)
		res := sqlmini.Bench(k, s, sqlmini.DefaultConfig(c.mode, c.d), dur)
		rows[i] = Fig14Row{
			Device: c.dev, Config: c.cfg, Mode: c.mode, TxPerSec: res.PerS,
			P50: res.Latency.Median, P99: res.Latency.P99,
		}
	})
	return Fig14Result{Rows: rows}
}

// Fig15Row is one (device, workload, configuration) bar of Fig. 15.
// P50/P99 are per-operation latency percentiles in msec where the workload
// reports them (OLTP-insert; varmail rows leave them zero and print "-").
type Fig15Row struct {
	Device   string  `col:"device,device,%-14s"`
	Workload string  `col:"workload,workload,%-12s"`
	Config   string  `col:"config,config,%-8s"`
	PerSec   float64 `col:"per_s,per-sec,%12.0f"`
	P50      float64 `col:"p50_ms,p50(ms),%9.3f,dash"`
	P99      float64 `col:"p99_ms,p99(ms),%9.3f,dash"`
}

// Fig15Result is the server-workload matrix.
type Fig15Result struct{ Rows []Fig15Row }

// Fig15 reproduces Fig. 15: varmail (ops/s) and OLTP-insert (Tx/s) across
// EXT4-DR, BFS-DR, OptFS, EXT4-OD and BFS-OD on plain-SSD and supercap-SSD.
func Fig15(scale Scale) Fig15Result {
	dur := scale.dur(60*sim.Millisecond, 400*sim.Millisecond)
	profiles := []struct {
		name string
		mk   func(device.Config) core.Profile
	}{
		{"EXT4-DR", core.EXT4DR},
		{"BFS-DR", core.BFSDR},
		{"OptFS", core.OptFS},
		{"EXT4-OD", core.EXT4OD},
		{"BFS-OD", core.BFSOD},
	}
	devices := []func() device.Config{device.PlainSSD, device.SupercapSSD}
	rows := make([]Fig15Row, 2*len(devices)*len(profiles))
	par.For(len(rows), func(i int) {
		dev := devices[i/(2*len(profiles))]()
		pr := profiles[i/2%len(profiles)]
		k := newKernel(fmt.Sprintf("fig15/%s/%s/%d", dev.Name, pr.name, i%2))
		defer k.Close()
		s := core.NewStack(k, pr.mk(dev))
		if i%2 == 0 { // varmail
			cfg := workload.DefaultVarmail()
			cfg.Duration, cfg.Warmup = dur, dur/8
			if scale == Quick {
				cfg.Threads = 8
				cfg.Files = 32
			}
			res := workload.Varmail(k, s, cfg)
			rows[i] = Fig15Row{
				Device: dev.Name, Workload: "varmail", Config: pr.name, PerSec: res.PerS,
			}
		} else { // OLTP-insert
			cfg := oltp.DefaultConfig()
			if scale == Quick {
				cfg.Clients = 4
			}
			res := oltp.Bench(k, s, cfg, dur)
			rows[i] = Fig15Row{
				Device: dev.Name, Workload: "OLTP-insert", Config: pr.name, PerSec: res.PerS,
				P50: res.Latency.Median, P99: res.Latency.P99,
			}
		}
	})
	return Fig15Result{Rows: rows}
}
