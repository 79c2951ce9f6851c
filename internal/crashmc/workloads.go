package crashmc

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/fault"
	"repro/internal/kvwal"
	"repro/internal/sim"
)

// The single-stack workloads. Callers that need exhaustive enumeration on
// unconstrained (nobarrier) profiles should bound the workload
// (Config.Writes) and shrink the journal window in the profile (jbd scan
// cost is paid once per candidate image).

// OrderingPages is the file size (in pages) of the enumerated ordering
// scenario; page 0 is left untouched as a recovery anchor.
const OrderingPages = 4

// CompactJournal shrinks a profile's journal window to pages slots (with
// a proportional checkpoint low-water mark). Every candidate image pays
// one full journal-window scan during replay, so model-checking workloads
// want the window sized to the workload rather than the 8192-page
// default. The canonical ordering scenarios use 128; kv workloads need a
// few hundred.
func CompactJournal(prof core.Profile, pages int) core.Profile {
	prof.FS.Journal.Pages = pages
	prof.FS.Journal.CheckpointLow = pages / 16
	return prof
}

// journalAndFS are the two audits every workload carries whatever it
// writes: journal-replay reach and fs metadata consistency.
func journalAndFS(s *core.Stack) []Checker {
	return []Checker{&JournalChecker{J: s.FS.Journal()}, &FSChecker{FS: s.FS}}
}

// Durability is the fsync loop, a Part: write one page, fsync, record the
// acknowledged version, next page — until the crash. Every acknowledged
// write must survive.
func Durability(k *sim.Kernel, s *core.Stack) []Checker {
	chk := &DurabilityChecker{FS: s.FS, File: "durable.dat"}
	k.Spawn("writer", func(p *sim.Proc) {
		f, err := s.FS.Create(p, s.FS.Root(), chk.File)
		if err != nil {
			panic(err)
		}
		for i := int64(0); ; i++ {
			s.FS.Write(p, f, i)
			s.FS.Fsync(p, f)
			ver, _ := s.FS.Read(p, f, i)
			chk.Synced = append(chk.Synced, AckedWrite{Idx: i, Ver: ver})
		}
	})
	return append([]Checker{chk}, journalAndFS(s)...)
}

// spawnOrdering starts the paper's "Hello"/"World" codelet (§4.1) at
// scale: preallocate pages 0..pages-1 of a file, fsync (recording the
// acknowledged versions), then overwrite pages 1..pages-1 round-robin with
// an fdatabarrier between consecutive writes, recording issue order. After
// a crash the recovered image must correspond to a *prefix* of the write
// sequence: writing wk after wj with a barrier between them means wk
// durable implies wj durable (unless a later surviving write superseded
// wj's page). writes bounds the overwrites (0 = keep writing until the
// crash).
func spawnOrdering(k *sim.Kernel, s *core.Stack, pages int64, writes int) (*DurabilityChecker, *OrderingChecker) {
	dur := &DurabilityChecker{FS: s.FS, File: "ordered.dat"}
	ord := &OrderingChecker{FS: s.FS, File: dur.File, Pages: pages}
	k.Spawn("writer", func(p *sim.Proc) {
		f, err := s.FS.Create(p, s.FS.Root(), dur.File)
		if err != nil {
			panic(err)
		}
		for i := int64(0); i < pages; i++ {
			s.FS.Write(p, f, i)
		}
		s.FS.Fsync(p, f)
		for i := int64(0); i < pages; i++ {
			ver, _ := s.FS.Read(p, f, i)
			dur.Synced = append(dur.Synced, AckedWrite{Idx: i, Ver: ver})
		}
		for n := int64(0); ; n++ {
			if writes > 0 && n == int64(writes) {
				for {
					p.Suspend() // workload bounded: idle until the crash
				}
			}
			idx := 1 + n%(pages-1)
			s.FS.Write(p, f, idx)
			ver, _ := s.FS.Read(p, f, idx)
			ord.Issued = append(ord.Issued, IssuedWrite{Page: idx, Ver: ver})
			s.FS.Fdatabarrier(p, f)
		}
	})
	return dur, ord
}

// Ordering is the §4.1 codelet on an OrderingPages file with its full
// audit: fsync durability of the preallocation, barrier ordering of the
// overwrites, journal-replay reach and fs metadata consistency.
func Ordering(writes int) Part {
	return func(k *sim.Kernel, s *core.Stack) []Checker {
		dur, ord := spawnOrdering(k, s, OrderingPages, writes)
		return append([]Checker{dur, ord}, journalAndFS(s)...)
	}
}

// OrderingScenario enumerates the §4.1 codelet on prof: the cell of the
// crashmc experiment.
func OrderingScenario(prof core.Profile, cfg Config) Result {
	return Enumerate(OnStack(prof, Ordering(cfg.Writes)), cfg)
}

// OrderingSweep is the §4.1 codelet as the sampled sweeps run it (the
// crash experiment's ordering rows, examples/crashsafety). It differs from
// Ordering in two ways, both deliberate. It audits the ordering contract
// *only*: these sweeps exist for the -OD profiles, where the preallocation
// fsync makes no honest durability promise and JournalChecker fires by
// design (a nobarrier mount acknowledges at transfer), so the other three
// audits would report what those profiles never claimed. And it writes an
// 8-page file, unbounded: the sweeps' recorded cells and verdict lines are
// those of that history, while the enumerated scenario keeps the file at
// OrderingPages so its state space stays enumerable.
func OrderingSweep(prof core.Profile) Workload {
	return OnStack(prof, func(k *sim.Kernel, s *core.Stack) []Checker {
		_, ord := spawnOrdering(k, s, 8, 0)
		return []Checker{ord}
	})
}

// plpFailureDevice installs the PLP-failure fault plan on a supercap
// device: at power loss the cache drains only a transfer-order prefix, so
// CaptureConstraints hands the model checker a partial-drain chain (every
// prefix admissible) instead of PLP's single fully-drained state. The
// concrete drain fraction is left at zero on purpose — a nonzero drain
// would fold one arbitrary prefix into the recovered base and silently
// shrink the state space the checker audits.
func plpFailureDevice(dev device.Config, seed uint64) device.Config {
	dev.Fault = &fault.Plan{Seed: seed, PLPFailure: true}
	return dev
}

// kvStoreConfig is the store every single-stack kv crash workload opens:
// a deliberately small WAL and memtable.
var kvStoreConfig = kvwal.Config{WALPages: 128, MemtableCap: 32, CompactFanIn: 3, CheckpointEvery: 8}

// openStore opens the workload's store from a setup proc and hands it to
// ready (the checker's Store field) once Open returns. Until then
// awaitStore keeps the clients polling.
func openStore(k *sim.Kernel, s *core.Stack, name string, ready **kvwal.Store) {
	k.Spawn(name, func(p *sim.Proc) {
		st, err := kvwal.Open(p, s, kvStoreConfig)
		if err != nil {
			panic(err)
		}
		*ready = st
	})
}

// awaitStore polls until the store is open. It reports false when power
// failed first: the crash landed inside Open, nothing was ever
// acknowledged, and the client must exit — a proc still polling would keep
// the kernel from ever going idle under recovery.
func awaitStore(p *sim.Proc, s *core.Stack, ready **kvwal.Store) bool {
	for *ready == nil {
		if s.Dev.Dead() {
			return false
		}
		p.Sleep(sim.Millisecond)
	}
	return true
}

// KV is the canonical kvwal crash workload: an opener plus `clients`
// concurrent committers applying small random batches (fixed per-client
// seeds; 15% deletes over a 512-key space). It audits the two
// application-level contracts — every mutation the store acknowledged
// durable is reflected in the recovered image, and on the barrier engines
// the surviving WAL records form a prefix of the committed history at
// group-commit granularity — plus the journal and fs invariants.
func KV(clients int) Part {
	return func(k *sim.Kernel, s *core.Stack) []Checker {
		chk := &KVChecker{}
		openStore(k, s, "kv/setup", &chk.Store)
		for c := 0; c < clients; c++ {
			c := c
			k.SpawnIdx("kv/client", c, func(p *sim.Proc) {
				rng := rand.New(rand.NewSource(int64(41 + c)))
				if !awaitStore(p, s, &chk.Store) {
					return
				}
				for {
					ops := make([]kvwal.Op, 3)
					for i := range ops {
						kind := kvwal.Put
						if rng.Intn(100) < 15 {
							kind = kvwal.Delete
						}
						ops[i] = kvwal.Op{Kind: kind, Key: fmt.Sprintf("k%04d", rng.Intn(512))}
					}
					chk.Store.Apply(p, ops)
				}
			})
		}
		return append([]Checker{chk}, journalAndFS(s)...)
	}
}
