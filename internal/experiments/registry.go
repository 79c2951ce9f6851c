package experiments

import "repro/internal/workload"

// ReplayTrace is the recording `fsreplay` replays (`repro -trace`); nil
// falls back to a deterministic synthetic recording.
var ReplayTrace *workload.Trace

// Registry lists every experiment in the order `repro all` runs them. To
// add one: a row type whose fields carry col tags, and a line here.
var Registry = []Experiment{
	{"fig1", "Fig 1: Ordered write() vs Orderless write()", of(Fig1Row{}),
		func(s Scale) Outcome { return rows(Fig1(s).Rows) }},
	{"fig8", "Fig 8: interval between successive journal commits", of(Fig8Row{}),
		func(s Scale) Outcome { return rows(Fig8(s).Rows) }},
	{"fig9", "Fig 9: 4KB random write IOPS and queue depth", of(Fig9Row{}),
		func(s Scale) Outcome { return rows(Fig9(s).Rows) }},
	{"fig10", "Fig 10: queue depth, Wait-on-Transfer vs Barrier", of(Fig10Result{}),
		func(s Scale) Outcome { rs := Fig10(s); return Outcome{Rows: []any{rs}, Plot: fig10Plots(rs)} }},
	{"table1", "Table 1: fsync() latency statistics (msec)", of(Table1Row{}),
		func(s Scale) Outcome { return rows(Table1(s).Rows) }},
	{"fig11", "Fig 11: context switches per fsync()/fbarrier()", of(Fig11Row{}),
		func(s Scale) Outcome { return rows(Fig11(s).Rows) }},
	{"fig12", "Fig 12: BarrierFS queue depth, fsync vs fbarrier (UFS)", of(Fig12Result{}),
		func(s Scale) Outcome { r := Fig12(s); return Outcome{Rows: []any{[]Fig12Result{r}}, Plot: r.plots()} }},
	{"fig13", "Fig 13: fxmark DWSL journaling scalability (ops/s)", of(Fig13Row{}),
		func(s Scale) Outcome { return rows(Fig13(s).Rows) }},
	{"fig14", "Fig 14: SQLite inserts/s", of(Fig14Row{}),
		func(s Scale) Outcome { return rows(Fig14(s).Rows) }},
	{"fig15", "Fig 15: server workloads (varmail ops/s, OLTP-insert Tx/s)", of(Fig15Row{}),
		func(s Scale) Outcome { return rows(Fig15(s).Rows) }},
	{"mq", "MQ: per-stream epochs vs global order (NVMe-SSD, barrier every 8 writes)",
		[]Section{{Row: MQScalingRow{}}, {"-- foreground fdatasync under background writeback --", MQFSRow{}}},
		func(s Scale) Outcome { r := MQScaling(s); return Outcome{Rows: []any{r.Rows, r.FS}} }},
	{"kv", "KV: WAL group commit, barrier vs transfer-and-flush (NVMe-SSD)",
		[]Section{{Row: KVRow{}}, {"-- crash sweep: acknowledged-durable keys must survive every crash point --", KVCrashRow{}}},
		func(s Scale) Outcome { r := KV(s); return Outcome{Rows: []any{r.Rows, r.Crash}} }},
	{"kvcluster", "kvcluster: sharded KV service, open-loop Zipfian traffic (SLO %.1fms)", of(KVClusterRow{}),
		func(s Scale) Outcome { r := KVCluster(s); return rows(r.Rows, r.SLOms) }},
	{"faults", "faults: replicated KV cluster under device fault personalities (SLO %.1fms)", of(FaultsRow{}),
		func(s Scale) Outcome { r := Faults(s); return rows(r.Rows, r.SLOms) }},
	{"whyslow", "whyslow: tail-latency attribution across the IO stack (SLO %.1fms)", of(WhySlowRow{}),
		func(s Scale) Outcome { r := WhySlow(s); return rows(r.Rows, r.SLOms) }},
	{"crash", "Crash consistency sweep", of(CrashRow{}),
		func(s Scale) Outcome { return rows(Crash(s)) }},
	{"crashmc", "Crash-state model checking (states explored / violations per profile)", of(CrashMCRow{}),
		func(s Scale) Outcome { r := CrashMC(s); return Outcome{Rows: []any{r.Rows}, Notes: r.Notes} }},
	{"rebalance", "rebalance: live ring resize under open-loop traffic (SLO %.1fms)", of(RebalanceRow{}),
		func(s Scale) Outcome { r := Rebalance(s); return rows(r.Rows, r.SLOms) }},
	{"fsreplay", "fsreplay: trace replay through the fs-backed KV service (%s, SLO %.1fms)", of(FSReplayRow{}),
		func(s Scale) Outcome { r := FSReplay(s, ReplayTrace); return rows(r.Rows, r.Source, r.SLOms) }},
}

// Lookup finds a registered experiment by name.
func Lookup(name string) (Experiment, bool) {
	for _, e := range Registry {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}
