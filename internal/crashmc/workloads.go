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
// unconstrained (nobarrier) profiles should bound the workload (Ordering's
// writes) and shrink the journal window in the profile (jbd scan cost is
// paid once per candidate image).

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
			ver, _, _ := s.FS.Read(p, f, i, 0) // just written: a page-cache hit, no IO to fail
			chk.Synced = append(chk.Synced, AckedWrite{Idx: i, Ver: ver})
		}
	})
	return append([]Checker{chk}, journalAndFS(s)...)
}

// Ordering is the paper's "Hello"/"World" codelet (§4.1) at scale:
// preallocate pages 0..OrderingPages-1 of a file, fsync (recording the
// acknowledged versions), then overwrite pages 1..OrderingPages-1
// round-robin with an fdatabarrier between consecutive writes, recording
// issue order. After a crash the recovered image must correspond to a
// *prefix* of the write sequence: writing wk after wj with a barrier between
// them means wk durable implies wj durable (unless a later surviving write
// superseded wj's page). It audits fsync durability of the preallocation,
// barrier ordering of the overwrites, journal-replay reach and fs metadata
// consistency. writes bounds the overwrites (0 = keep writing until the
// crash); bounding them keeps the unconstrained (nobarrier) state space
// exhaustively enumerable.
func Ordering(writes int) Part {
	return func(k *sim.Kernel, s *core.Stack) []Checker {
		dur := &DurabilityChecker{FS: s.FS, File: "ordered.dat"}
		ord := &OrderingChecker{FS: s.FS, File: dur.File, Pages: OrderingPages}
		k.Spawn("writer", func(p *sim.Proc) {
			f, err := s.FS.Create(p, s.FS.Root(), dur.File)
			if err != nil {
				panic(err)
			}
			for i := int64(0); i < OrderingPages; i++ {
				s.FS.Write(p, f, i)
			}
			s.FS.Fsync(p, f)
			for i := int64(0); i < OrderingPages; i++ {
				ver, _, _ := s.FS.Read(p, f, i, 0) // just written: a page-cache hit, no IO to fail
				dur.Synced = append(dur.Synced, AckedWrite{Idx: i, Ver: ver})
			}
			for n := int64(0); ; n++ {
				if writes > 0 && n == int64(writes) {
					for {
						p.Suspend() // workload bounded: idle until the crash
					}
				}
				idx := 1 + n%(OrderingPages-1)
				s.FS.Write(p, f, idx)
				ver, _, _ := s.FS.Read(p, f, idx, 0) // just written: a page-cache hit, no IO to fail
				ord.Issued = append(ord.Issued, IssuedWrite{Page: idx, Ver: ver})
				s.FS.Fdatabarrier(p, f)
			}
		})
		return append([]Checker{dur, ord}, journalAndFS(s)...)
	}
}

// plpFailureDevice installs the PLP-failure fault plan on a supercap
// device: at power loss the cache drains only a transfer-order prefix, so
// CaptureConstraints hands the model checker a partial-drain chain (every
// prefix admissible) instead of PLP's single fully-drained state. A
// concrete Crash drains nothing, so the recovered base is the empty prefix
// and the checker audits every drain.
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
