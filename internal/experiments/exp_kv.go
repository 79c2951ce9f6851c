package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/crashmc"
	"repro/internal/device"
	"repro/internal/kvwal"
	"repro/internal/par"
	"repro/internal/sim"
)

// KVRow is one point of the key-value group-commit sweep: acknowledged
// mutations per second and client-observed commit-latency percentiles for
// one (stack profile, client count) pair.
type KVRow struct {
	Config    string  `col:"config,config,%-8s"`
	Clients   int     `col:"clients,clients,%8d,axis"`
	OpsPerS   float64 `col:"ops_per_s,ops/s,%10.0f"`
	GroupMean float64 `col:"ops_per_group,grp,%8.1f"` // mutations amortized per group commit
	P50       float64 `col:"p50_ms,p50(ms),%9.3f"`    // msec
	P99       float64 `col:"p99_ms,p99(ms),%9.3f"`
	P999      float64 `col:"p999_ms,p99.9(ms),%9.3f"`
}

// KVCrashRow is one profile's crash sweep outcome. The trailing space in
// the trials format makes the two-space gap before the verdict.
type KVCrashRow struct {
	Config     string `col:"config,,%-8s"`
	Trials     int    `col:"crash_trials,,%d crash points "`
	Violations int    `col:"crash_violations,,%s"`
}

// cellText prints the violation count as a verdict.
func (r KVCrashRow) cellText() (key, text string) {
	if r.Violations > 0 {
		return "crash_violations", fmt.Sprintf("FAIL (%d violated)", r.Violations)
	}
	return "crash_violations", "OK"
}

// KVResult is the kvwal application experiment: the throughput/latency
// matrix plus the crash-consistency sweep.
type KVResult struct {
	Rows  []KVRow
	Crash []KVCrashRow
}

// KV runs the barrier-enabled KV store experiment: concurrent clients
// group-committing Put/Delete batches on EXT4-DR, BFS-DR and their
// multi-queue variants. On the EXT4 engines every group pays one
// Transfer-and-Flush fdatasync; on the BarrierFS engines the group is
// ordered with one fdatabarrier and durability rides the periodic
// checkpoint — the application-level payoff of §4's dual-mode journaling,
// measured end to end through group commit, memtable flush and compaction.
// The crash sweep then audits that the cheap commits gave nothing away:
// zero acknowledged-but-lost keys, and group-prefix ordering on the
// barrier engines.
func KV(scale Scale) KVResult {
	dur := scale.dur(30*sim.Millisecond, 150*sim.Millisecond)
	clientCounts := []int{2, 8}
	if scale == Full {
		clientCounts = []int{1, 4, 8, 16}
	}
	profiles := []func(device.Config) core.Profile{
		core.EXT4DR, core.BFSDR, core.EXT4MQ, core.BFSMQ,
	}
	var out KVResult
	out.Rows = make([]KVRow, len(clientCounts)*len(profiles))
	par.For(len(out.Rows), func(i int) {
		clients := clientCounts[i/len(profiles)]
		prof := profiles[i%len(profiles)](device.NVMeSSD())
		k := newKernel(fmt.Sprintf("kv/%s/c%d", prof.Name, clients))
		defer k.Close()
		s := core.NewStack(k, prof)
		res := kvwal.Bench(k, s, clients, dur)
		out.Rows[i] = KVRow{
			Config: prof.Name, Clients: clients,
			OpsPerS: res.PerS, GroupMean: res.GroupMean,
			P50: res.Latency.Median, P99: res.Latency.P99, P999: res.Latency.P999,
		}
	})
	// Crash sweep: enumerated crash points per profile, concurrent clients.
	// Sweep fans its samples out itself, so the profile loop stays serial.
	n := scale.n(4, 10)
	var times []sim.Time
	for i := 1; i <= n; i++ {
		times = append(times, sim.Time(sim.Duration(i*i)*600*sim.Microsecond))
	}
	for _, mk := range profiles {
		prof := mk(device.NVMeSSD())
		row := KVCrashRow{Config: prof.Name, Trials: len(times)}
		for _, res := range crashmc.Sweep(crashmc.OnStack(prof, crashmc.KV(4)), times) {
			if !res.Ok() {
				row.Violations++
			}
		}
		out.Crash = append(out.Crash, row)
	}
	return out
}
