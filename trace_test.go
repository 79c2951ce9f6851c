// Golden dispatch-trace tests: every optimization in the simulation kernel
// must leave the dispatch order — and therefore every simulated result —
// byte-identical to the seed's container/heap event queue. Each case runs a
// real workload twice on the optimized kernel (run-to-run determinism) and
// once on sim.NewReferenceKernel (the container/heap oracle), comparing the
// (time, seq, proc) dispatch sequences via sim.Trace.
package repro_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/kvwal"
	"repro/internal/nand"
	"repro/internal/oltp"
	"repro/internal/sim"
	"repro/internal/sqlmini"
	"repro/internal/workload"
)

// goldenCase drives one workload on a kernel built by newK and returns its
// dispatch trace.
type goldenCase struct {
	name string
	run  func(k *sim.Kernel)
}

func goldenCases() []goldenCase {
	short := 8 * sim.Millisecond
	return []goldenCase{
		{"fig1/buffered-EXT4-OD", func(k *sim.Kernel) {
			s := core.NewStack(k, core.EXT4OD(device.Fig1Device(0)))
			cfg := workload.DefaultRandWrite(workload.PolicyP)
			cfg.Duration, cfg.Warmup, cfg.FilePages = short, short/4, 256
			workload.RandWrite(k, s, cfg)
		}},
		{"fig9/barrier-BFS-OD", func(k *sim.Kernel) {
			s := core.NewStack(k, core.BFSOD(device.UFS()))
			cfg := workload.DefaultRandWrite(workload.PolicyB)
			cfg.Duration, cfg.Warmup, cfg.FilePages = short, short/4, 256
			workload.RandWrite(k, s, cfg)
		}},
		{"fig14/sqlite-BFS-DR", func(k *sim.Kernel) {
			s := core.NewStack(k, core.BFSDR(device.UFS()))
			sqlmini.Bench(k, s, sqlmini.DefaultConfig(sqlmini.Persist, sqlmini.Durable), short)
		}},
		{"fig15/oltp-EXT4-DR", func(k *sim.Kernel) {
			s := core.NewStack(k, core.EXT4DR(device.PlainSSD()))
			cfg := oltp.DefaultConfig()
			cfg.Clients = 2
			oltp.Bench(k, s, cfg, short)
		}},
		{"blkmq/EXT4-MQ-varmail", func(k *sim.Kernel) {
			s := core.NewStack(k, core.EXT4MQ(device.NVMeSSD()))
			cfg := workload.DefaultVarmail()
			cfg.Threads, cfg.Files = 4, 16
			cfg.Duration, cfg.Warmup = short, short/4
			workload.Varmail(k, s, cfg)
		}},
		{"kvwal/BFS-MQ-groupcommit", func(k *sim.Kernel) {
			s := core.NewStack(k, core.BFSMQ(device.NVMeSSD()))
			kvwal.Bench(k, s, 4, short)
		}},
		// pdflush coverage: an app that only dirties pages, so every
		// writeback is the pdflush daemon's, including its congestion parks.
		{"pdflush/EXT4-OD-buffered", func(k *sim.Kernel) {
			prof := core.EXT4OD(device.UFS())
			prof.FS.PdflushInterval = 300 * sim.Microsecond
			s := core.NewStack(k, prof)
			k.Spawn("app", func(p *sim.Proc) {
				f, err := s.FS.Create(p, s.FS.Root(), "dirty.dat")
				if err != nil {
					panic(err)
				}
				for i := 0; ; i++ {
					s.FS.Write(p, f, int64(i%512))
					if i%64 == 63 {
						p.Sleep(50 * sim.Microsecond)
					}
				}
			})
			k.RunUntil(sim.Time(short))
		}},
		// pdflush on a data-journaling mount: once every page has been
		// synced, OptFS journals its overwrites, so the daemon's writeback
		// goes through the journal's conflict rules instead of the block
		// layer. A vacuous run (pdflush idle, nothing journaled) panics.
		{"pdflush/OptFS-datajournal", func(k *sim.Kernel) {
			prof := core.OptFS(device.UFS())
			prof.FS.PdflushInterval = 300 * sim.Microsecond
			s := core.NewStack(k, prof)
			k.Spawn("app", func(p *sim.Proc) {
				f, err := s.FS.Create(p, s.FS.Root(), "journaled.dat")
				if err != nil {
					panic(err)
				}
				for i := 0; i < 64; i++ {
					s.FS.Write(p, f, int64(i))
				}
				s.FS.Fbarrier(p, f)
				for i := 0; ; i++ {
					s.FS.Write(p, f, int64(i%64))
					if i%16 == 15 {
						p.Sleep(50 * sim.Microsecond)
					}
				}
			})
			k.RunUntil(sim.Time(short))
			if st := s.FS.Stats(); st.PdflushRuns == 0 || st.DataJournaled == 0 {
				panic(fmt.Sprintf("vacuous case: PdflushRuns=%d DataJournaled=%d", st.PdflushRuns, st.DataJournaled))
			}
		}},
		// GC + OptFS delayed-flush coverage: a deliberately tiny, fast array
		// so the log wraps within the run and the GC/erase machinery and the
		// delayed-durability timer both fire.
		{"gc/OptFS-tinydev", func(k *sim.Kernel) {
			cfg := device.Config{
				Name: "tiny", QueueDepth: 8, CachePages: 64,
				BarrierSupport: true,
				DMAPerPage:     sim.Microsecond,
				CmdOverhead:    sim.Microsecond,
				Geometry: nand.Geometry{Channels: 2, WaysPerChannel: 2,
					BlocksPerChip: 6, PagesPerBlock: 16, PageSize: 4096},
				Timing: nand.Timing{Program: 4 * sim.Microsecond, Read: 2 * sim.Microsecond,
					Erase: 8 * sim.Microsecond, BusXfer: sim.Microsecond},
			}
			prof := core.OptFS(cfg)
			prof.FS.Journal.Pages = 128
			prof.FS.Journal.CheckpointLow = 32
			prof.FS.Journal.FlushInterval = 2 * sim.Millisecond
			s := core.NewStack(k, prof)
			wcfg := workload.DefaultRandWrite(workload.PolicyB)
			wcfg.Duration, wcfg.Warmup, wcfg.FilePages = 24*sim.Millisecond, 6*sim.Millisecond, 32
			workload.RandWrite(k, s, wcfg)
		}},
	}
}

func traceOf(newK func() *sim.Kernel, c goldenCase) *sim.Trace {
	k := newK()
	defer k.Close()
	tr := k.StartTrace(false)
	c.run(k)
	return tr
}

// TestGoldenDispatchTraces pins (a) run-to-run determinism of the optimized
// kernel and (b) byte-identical dispatch order against the reference
// container/heap kernel, across the paper's workload families: buffered and
// barrier random writes (Figs. 1/9), SQLite (Fig. 14), OLTP (Fig. 15), the
// multi-queue block layer, and the kvwal group-commit store.
func TestGoldenDispatchTraces(t *testing.T) {
	for _, c := range goldenCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			a := traceOf(sim.NewKernel, c)
			b := traceOf(sim.NewKernel, c)
			if a.Len() != b.Len() || a.Hash() != b.Hash() {
				t.Fatalf("run-to-run nondeterminism: (n=%d h=%x) vs (n=%d h=%x)",
					a.Len(), a.Hash(), b.Len(), b.Hash())
			}
			ref := traceOf(sim.NewReferenceKernel, c)
			if a.Len() != ref.Len() || a.Hash() != ref.Hash() {
				t.Fatalf("optimized kernel diverges from container/heap reference: optimized (n=%d h=%x), reference (n=%d h=%x)",
					a.Len(), a.Hash(), ref.Len(), ref.Hash())
			}
			if a.Len() == 0 {
				t.Fatal("empty trace: workload did not run")
			}
		})
	}
}
