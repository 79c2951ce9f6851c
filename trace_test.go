// Golden dispatch-trace tests: each case runs a real workload twice on
// sim.NewKernel, requires the two (time, seq, proc) dispatch sequences to
// match (run-to-run determinism), and compares the trace with its frozen
// entry in testdata/stack_golden.json, so a change to the event order of any
// layer (fs, jbd, kvwal, the device and NAND handlers) shows across commits.
// That the kernel's queue dispatches in exact (time, seq) order is
// internal/sim's FuzzEventQueue's to check.
package repro_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/fs"
	"repro/internal/kvwal"
	"repro/internal/nand"
	"repro/internal/oltp"
	"repro/internal/sim"
	"repro/internal/sqlmini"
	"repro/internal/workload"
)

// goldenCase drives one workload on a kernel.
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
		// The legacy (non-eager) writeback cache under pressure: a write
		// admitted to a full cache asks the writeback daemon to drain, and
		// the daemon stops draining once nothing dirty is left.
		{"legacy/EXT4-DR-fdatasync-smallcache", func(k *sim.Kernel) {
			dev := device.LegacySSD()
			dev.CachePages = 32
			s := core.NewStack(k, core.EXT4DR(dev))
			cfg := workload.DefaultRandWrite(workload.PolicyXnF)
			cfg.Duration, cfg.Warmup, cfg.FilePages = short, short/4, 256
			workload.RandWrite(k, s, cfg)
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
		// The journal's branches, one multi-writer case per engine: on the
		// small journals reservations wait for checkpoints, writers meet
		// buffers frozen in a committing transaction, and on BarrierFS
		// several transactions are in flight at once.
		{"jbd/EXT4-DR-smalljournal-fsync", func(k *sim.Kernel) {
			s := core.NewStack(k, smallJournal(core.EXT4DR(device.NVMeSSD())))
			k.Spawn("epoch", func(p *sim.Proc) {
				s.FS.Journal().CommitAndWait(p)        // nothing to commit or wait on
				s.FS.Journal().CommitOrdering(p, true) // an empty JBD2 commit
			})
			syncWriters(k, s, 4, true, short, func(p *sim.Proc, f *fs.Inode, _, _ int) { s.FS.Fsync(p, f) })
		}},
		// Two fsync writers and two fbarrier writers: ordering commits are
		// dispatched while a durable commit's flush is in flight.
		{"jbd/BFS-DR-mixed", func(k *sim.Kernel) {
			s := core.NewStack(k, core.BFSDR(device.NVMeSSD()))
			syncWriters(k, s, 4, false, short, func(p *sim.Proc, f *fs.Inode, w, _ int) {
				if w < 2 {
					s.FS.Fsync(p, f)
					return
				}
				s.FS.Fbarrier(p, f)
				p.Sleep(sim.Duration(w) * 37 * sim.Microsecond)
			})
		}},
		{"jbd/OptFS-smalljournal-fsync", func(k *sim.Kernel) {
			prof := smallJournal(core.OptFS(device.UFS()))
			prof.FS.Journal.FlushInterval = sim.Millisecond
			s := core.NewStack(k, prof)
			syncWriters(k, s, 4, true, short, func(p *sim.Proc, f *fs.Inode, _, i int) {
				if i%2 == 1 {
					s.FS.Fbarrier(p, f)
					return
				}
				s.FS.Fsync(p, f)
			})
		}},
		// BarrierFS's ordering-only paths, one at a time: an fdatasync whose
		// allocation rides another caller's commit stuck in reserve, fbarriers
		// whose metadata stays parked behind the previous commit, and a forced
		// ordering commit waited durably only after the flush thread retired
		// it.
		{"jbd/BFS-DR-create-fbarrier", func(k *sim.Kernel) {
			s := core.NewStack(k, smallJournal(core.BFSDR(device.NVMeSSD())))
			j := s.FS.Journal()
			k.Spawn("app", func(p *sim.Proc) {
				create := func(name string) *fs.Inode {
					f, err := s.FS.Create(p, s.FS.Root(), name)
					if err != nil {
						panic(err)
					}
					s.FS.Write(p, f, 0)
					return f
				}
				for n := 0; n < 2; n++ {
					s.FS.Fsync(p, create(fmt.Sprintf("fill%d.dat", n)))
				}
				a, b := create("a.dat"), create("b.dat")
				k.Spawn("fsync-b", func(q *sim.Proc) { s.FS.Fsync(q, b) })
				for a.MetaPending() {
					p.Sleep(sim.Microsecond)
				}
				s.FS.Fdatasync(p, a)
				for i := int64(1); ; i++ {
					s.FS.Write(p, a, i)
					s.FS.Fbarrier(p, a)
					if i%8 == 0 {
						t := j.CommitOrdering(p, true)
						p.Sleep(100 * sim.Microsecond)
						j.WaitTxn(p, t)
					}
				}
			})
			k.RunUntil(sim.Time(short))
		}},
	}
}

// smallJournal shrinks the profile's journal to 16 pages, so a few commits
// fill it and reservations wait for the checkpointer.
func smallJournal(prof core.Profile) core.Profile {
	prof.FS.Journal.Pages = 16
	prof.FS.Journal.CheckpointLow = 1
	return prof
}

// syncWriters runs n writer procs until d. Writer w writes one page and
// calls sync(p, f, w, i) on its file, over and over: the first page of a
// new file when create is set, else page i of the one file it created.
func syncWriters(k *sim.Kernel, s *core.Stack, n int, create bool, d sim.Duration, sync func(p *sim.Proc, f *fs.Inode, w, i int)) {
	for w := 0; w < n; w++ {
		k.SpawnIdx("app", w, func(p *sim.Proc) {
			var f *fs.Inode
			for i := 0; ; i++ {
				if create || f == nil {
					var err error
					if f, err = s.FS.Create(p, s.FS.Root(), fmt.Sprintf("w%d-%d.dat", w, i)); err != nil {
						panic(err)
					}
				}
				pg := int64(i)
				if create {
					pg = 0
				}
				s.FS.Write(p, f, pg)
				sync(p, f, w, i)
			}
		})
	}
	k.RunUntil(sim.Time(d))
}

var updateGolden = flag.Bool("update", false, "rewrite testdata/stack_golden.json from this run")

const stackGoldenPath = "testdata/stack_golden.json"

// stackGolden is one case's dispatch trace: two runs dispatched the same
// events in the same order iff (Len, Hash) are equal.
type stackGolden struct {
	Len  int
	Hash string
}

func traceOf(c goldenCase) *sim.Trace {
	k := sim.NewKernel()
	defer k.Close()
	tr := k.StartTrace(false)
	c.run(k)
	return tr
}

// TestGoldenDispatchTraces pins (a) run-to-run determinism of the kernel and
// (b) each trace against testdata/stack_golden.json, across the paper's
// workload families: buffered and barrier random writes (Figs. 1/9), SQLite
// (Fig. 14), OLTP (Fig. 15), the multi-queue block layer, the kvwal
// group-commit store, and the journal's own branches. The file is rewritten
// only by `go test -run TestGoldenDispatchTraces -update .`; a refactor
// leaves it alone.
func TestGoldenDispatchTraces(t *testing.T) {
	var want map[string]stackGolden
	if !*updateGolden {
		b, err := os.ReadFile(stackGoldenPath)
		if err != nil {
			t.Fatalf("%v (record it with -update)", err)
		}
		if err := json.Unmarshal(b, &want); err != nil {
			t.Fatal(err)
		}
	}
	cases := goldenCases()
	if want != nil && len(want) != len(cases) {
		t.Errorf("golden file has %d cases, the test runs %d", len(want), len(cases))
	}
	got := make(map[string]stackGolden)
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			a := traceOf(c)
			b := traceOf(c)
			if a.Len() != b.Len() || a.Hash() != b.Hash() {
				t.Fatalf("run-to-run nondeterminism: (n=%d h=%x) vs (n=%d h=%x)",
					a.Len(), a.Hash(), b.Len(), b.Hash())
			}
			if a.Len() == 0 {
				t.Fatal("empty trace: workload did not run")
			}
			g := stackGolden{Len: a.Len(), Hash: fmt.Sprintf("%016x", a.Hash())}
			got[c.name] = g
			if w, ok := want[c.name]; want != nil && !ok {
				t.Errorf("not in %s (record it with -update)", stackGoldenPath)
			} else if want != nil && g != w {
				t.Errorf("trace moved: got (n=%d h=%s), %s has (n=%d h=%s)", g.Len, g.Hash, stackGoldenPath, w.Len, w.Hash)
			}
		})
	}
	if *updateGolden && !t.Failed() {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(stackGoldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", stackGoldenPath)
	}
}
