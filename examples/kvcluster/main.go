// kvcluster example: a minimal 4-shard barrier-enabled KV service under
// open-loop Zipfian traffic. Keys route to shards by consistent hashing,
// each shard group-commits on its own BarrierFS stack, and an admission
// controller bounds per-shard inflight requests, shedding the excess. The
// run prints the SLO report: offered vs goodput, shed counts, the cluster
// latency tail and the per-shard / per-tenant breakdowns — the same
// numbers the `repro kvcluster` sweep records per cell.
//
// The second half is a live-resize walkthrough: a 3-shard replicated
// cluster grows to 4 shards mid-run while the open-loop load keeps
// arriving. The migration copies each moving key range in the background
// (Copying), dual-writes to old and new owners while it catches up
// (CatchUp/Cutover), then flips ownership — and the printed timeline
// shows goodput and p99 before, during and after, with the keys-moved
// summary and the zero-acked-loss audit at the end.
package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/kvcluster"
	"repro/internal/sim"
	"repro/internal/workload"
)

func main() {
	cfg := kvcluster.Config{
		Shards:  4,
		Profile: core.BFSDR,
		SLO:     2 * sim.Millisecond,
	}
	tr := kvcluster.Traffic{
		Arrivals: workload.ArrivalConfig{
			Kind:     workload.ArrivalBursty, // square-wave bursts over Poisson
			RatePerS: 120_000,
			Seed:     42,
		},
		Mix:       workload.Mix{ReadPct: 30, DeletePct: 10},
		KeySpace:  8192,
		ZipfTheta: 0.99, // YCSB-style hot keys
		Tenants:   3,
		Warmup:    4 * sim.Millisecond,
		Duration:  20 * sim.Millisecond,
	}
	fmt.Printf("4-shard BFS-DR cluster, bursty Zipfian open-loop load at %.0f req/s\n\n",
		tr.Arrivals.RatePerS)
	res := kvcluster.Run(cfg, tr)
	fmt.Print(res.Report())
	fmt.Printf("\nbarrier group commit keeps the tail inside the %.1fms SLO at %.0f%% attainment;\n",
		res.SLOms, res.SLOPct)
	fmt.Println("rerun with Profile: core.EXT4DR to watch Transfer-and-Flush shed instead.")

	resizeWalkthrough()
}

// resizeWalkthrough grows a live 3-shard replicated cluster to 4 shards
// under open-loop traffic and prints the goodput/p99 timeline around the
// migration.
func resizeWalkthrough() {
	rc := kvcluster.Config{
		Shards:   3,
		Replicas: 2,
		Profile:  core.BFSDR,
		// InflightCap (64, cluster-wide in this shape) and SLO (2ms)
		// take their defaults.
	}
	tr := kvcluster.Traffic{
		Arrivals: workload.ArrivalConfig{
			Kind: workload.ArrivalPoisson, RatePerS: 40_000, Seed: 11,
		},
		Mix:       workload.Mix{ReadPct: 50, DeletePct: 5},
		KeySpace:  4096,
		ZipfTheta: 0.9,
		Tenants:   2,
		Warmup:    4 * sim.Millisecond,
		Duration:  16 * sim.Millisecond,
	}
	spec := kvcluster.ResizeSpec{
		NewShards: 4,
		ResizeAt:  sim.Time(tr.Warmup + 4*sim.Millisecond),
		Bins:      8,
	}
	fmt.Printf("\n-- live resize: 3 -> 4 shards (R=2) at t=%.0fms under %.0f req/s --\n\n",
		float64(spec.ResizeAt)/float64(sim.Millisecond), tr.Arrivals.RatePerS)
	res := kvcluster.RunResize(rc, tr, spec)

	fmt.Printf("%8s %8s %-7s %11s %8s\n", "startms", "endms", "phase", "goodput/s", "p99ms")
	for _, b := range res.Timeline {
		fmt.Printf("%8.1f %8.1f %-7s %11.0f %8.3f\n",
			b.StartMs, b.EndMs, b.Phase, b.GoodputPerS, b.P99)
	}
	m := res.Migration
	fmt.Printf("\nmigration %.1fms..%.1fms: %d ranges, %d keys moved, %d dual writes, %d cutovers, %d aborts\n",
		res.MigStart, res.MigEnd, m.Ranges, m.KeysCopied, m.DualWrites, m.Cutovers, m.Aborts)
	fmt.Printf("acked-write audit: %d acked puts, %d lost (invariant: 0)\n",
		res.AckedKeys, res.AckedLost)
	for _, ph := range res.Phases {
		if ph.WindowMs == 0 {
			continue
		}
		fmt.Printf("phase %-7s %5.1fms window: %8.0f good/s, p99 %.3fms\n",
			ph.Phase, ph.WindowMs, ph.GoodputPerS, ph.P99)
	}
	fmt.Println("\nthe copier paces itself (REQ_BACKGROUND chunks), so foreground p99 stays bounded")
	fmt.Println("while ownership moves; crashmc's rebalance workload audits the same machine under crashes.")
}
