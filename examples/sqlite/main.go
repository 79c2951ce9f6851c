// SQLite example: the paper's flagship application result (§5, Fig. 14).
// A PERSIST-mode insert transaction issues four fdatasync() calls, three of
// which only enforce storage order. Replacing them with fdatabarrier() — and
// optionally the fourth too — multiplies insert throughput.
package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/sim"
	"repro/internal/sqlmini"
)

func main() {
	const window = 300 * sim.Millisecond
	configs := []struct {
		label string
		prof  core.Profile
		dur   sqlmini.Durability
	}{
		{"EXT4-DR (4x fdatasync)", core.EXT4DR(device.PlainSSD()), sqlmini.Durable},
		{"BFS-DR  (3x fdatabarrier + 1x fdatasync)", core.BFSDR(device.PlainSSD()), sqlmini.Durable},
		{"EXT4-OD (nobarrier)", core.EXT4OD(device.PlainSSD()), sqlmini.OrderingOnly},
		{"OptFS   (osync)", core.OptFS(device.PlainSSD()), sqlmini.OrderingOnly},
		{"BFS-OD  (4x fdatabarrier)", core.BFSOD(device.PlainSSD()), sqlmini.OrderingOnly},
	}
	fmt.Println("SQLite PERSIST-mode inserts on plain-SSD:")
	var baseline float64
	for _, c := range configs {
		k := sim.NewKernel()
		s := core.NewStack(k, c.prof)
		res := sqlmini.Bench(k, s, sqlmini.DefaultConfig(sqlmini.Persist, c.dur), window)
		k.Close()
		if baseline == 0 {
			baseline = res.PerS
		}
		fmt.Printf("  %-44s %8.0f Tx/s  (%5.1fx vs EXT4-DR)\n",
			c.label, res.PerS, res.PerS/baseline)
	}
}
