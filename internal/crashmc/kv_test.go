package crashmc

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/kvwal"
	"repro/internal/sim"
)

// TestKVCrashSweep enumerates crash points on all four kv stack profiles
// with concurrent group-committing clients: zero acknowledged-but-lost
// keys, and (on the barrier engines) group-prefix ordering. 10.8 ms on
// EXT4-DR and 38.4 ms on EXT4-MQ are the instants where fdatasync once
// returned before the commit holding a new segment's allocation was
// durable.
func TestKVCrashSweep(t *testing.T) {
	pts := times(700, 2000, 4500, 9000, 10800, 20000, 38400, 45000)
	for _, mk := range []func(device.Config) core.Profile{
		core.EXT4DR, core.BFSDR, core.EXT4MQ, core.BFSMQ,
	} {
		sweepClean(t, OnStack(mk(device.NVMeSSD()), KV(4)), pts)
	}
}

// TestKVCrashSingleClient pins the degenerate no-grouping case (every batch
// is its own group) across crash points on both engines.
func TestKVCrashSingleClient(t *testing.T) {
	for _, mk := range []func(device.Config) core.Profile{core.EXT4DR, core.BFSDR} {
		sweepClean(t, OnStack(mk(device.PlainSSD()), KV(1)), times(1500, 8000, 30000))
	}
}

// kvWindowStore publishes a manifest every few records (a 16-page ring, a
// 4-key memtable) and never checkpoints on its own, so between two memtable
// flushes nothing flushes the device cache.
var kvWindowStore = kvwal.Config{WALPages: 16, MemtableCap: 4, CompactFanIn: 3, CheckpointEvery: 1 << 20}

// windowSettle is how long kvManifestWindow keeps the window open after the
// overwrites commit, so they reach the device cache before power fails.
const windowSettle = 30 * sim.Microsecond

// manifestWindow is where kvManifestWindow cut the power: the checkpoints
// of the manifest before the last publish and of the last one.
type manifestWindow struct {
	reached  bool
	old, cur uint64
}

// checkpointChecker is the kv audit that also records the checkpoint of the
// manifest each image recovered from.
type checkpointChecker struct {
	KVChecker
	seen map[uint64]bool
}

func (c *checkpointChecker) Check(st *State) []Violation {
	if c.Store == nil {
		return nil
	}
	rec := c.Store.Recover(st.View)
	c.seen[rec.Checkpoint] = true
	return c.CheckRecovered(rec)
}

// kvManifestWindow runs two clients against a kvWindowStore and cuts the
// power inside the barrier engines' relaxed manifest publish: a flush has
// published its manifest, the WAL slots past the previous checkpoint have
// been overwritten by committed records, and the device has not flushed
// since the publish.
func kvManifestWindow(w *manifestWindow, seen map[uint64]bool) Part {
	return func(k *sim.Kernel, s *core.Stack) []Checker {
		chk := &checkpointChecker{seen: seen}
		k.Spawn("kv/setup", func(p *sim.Proc) {
			st, err := kvwal.Open(p, s, kvWindowStore)
			if err != nil {
				panic(err)
			}
			chk.Store = st
		})
		for c := 0; c < 2; c++ {
			k.SpawnIdx("kv/client", c, func(p *sim.Proc) {
				rng := rand.New(rand.NewSource(int64(7 + c)))
				if !awaitStore(p, s, &chk.Store) {
					return
				}
				for {
					chk.Store.Apply(p, []kvwal.Op{{Kind: kvwal.Put, Key: fmt.Sprintf("k%03d", rng.Intn(64))}})
				}
			})
		}
		k.Spawn("kv/window", func(p *sim.Proc) {
			if !awaitStore(p, s, &chk.Store) {
				return
			}
			st := chk.Store
			var flushes int64
			var overwritten sim.Time // when the overwrites were first committed
			devFlushes := s.Dev.Stats().Flushes
			armed := false
			for {
				p.Sleep(sim.Microsecond)
				if f := st.Stats().Flushes; f != flushes {
					flushes = f
					w.old, w.cur = w.cur, st.DurableSeq() // no checkpoint fires: durable == checkpoint
					devFlushes, armed, overwritten = s.Dev.Stats().Flushes, true, 0
				}
				if s.Dev.Stats().Flushes != devFlushes {
					armed = false // the cache flushed: the manifest is durable
				}
				if !armed || st.CommittedSeq() <= w.old+uint64(kvWindowStore.WALPages) {
					continue
				}
				if overwritten == 0 {
					overwritten = p.Now()
				}
				// Give the dispatched writes time to reach the device's cache.
				if p.Now().Sub(overwritten) >= windowSettle {
					w.reached = true
					k.Stop()
					return
				}
			}
		})
		return append([]Checker{chk}, journalAndFS(s)...)
	}
}

// TestKVManifestPublishWindow crashes the barrier engines inside the window
// their fdatabarrier manifest publish opens and enumerates every state,
// uncapped: some image must recover from the older manifest, and none may
// lose a durable-acknowledged write (the overwritten slots are ordered
// after the manifest, so they vanish with it).
func TestKVManifestPublishWindow(t *testing.T) {
	for _, mk := range []func(device.Config) core.Profile{core.BFSDR, core.BFSMQ} {
		var w manifestWindow
		seen := make(map[uint64]bool)
		prof := CompactJournal(mk(device.NVMeSSD()), 512)
		res := Enumerate(OnStack(prof, kvManifestWindow(&w, seen)), Config{CrashAt: at(1000000), Log: logTo(t)})
		t.Logf("checkpoints: old %d, new %d; images recovered from %v: %s", w.old, w.cur, seen, res.String())
		if !w.reached {
			t.Fatalf("%s: the window never opened", res.Profile)
		}
		if res.Capped {
			t.Fatalf("%s: enumeration capped; the directed row must be exhaustive", res.Profile)
		}
		requireClean(t, res)
		if w.cur <= w.old || !seen[w.old] {
			t.Errorf("%s: no image recovered from the older manifest (checkpoint %d)", res.Profile, w.old)
		}
	}
}
