package crashmc

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/fs"
	"repro/internal/kvwal"
	"repro/internal/sim"
)

// TestKVCrashSweep enumerates crash points on the four kv stack profiles
// and OptFS with concurrent group-committing clients: zero
// acknowledged-but-lost keys, and group-prefix ordering. 10.8 ms on EXT4-DR
// and 38.4 ms on EXT4-MQ are the instants where fdatasync once returned
// before the commit holding a new segment's allocation was durable. OptFS
// pins the store's answer to a Transferred fdatabarrier: the fdatasync it
// adds.
func TestKVCrashSweep(t *testing.T) {
	pts := times(700, 2000, 4500, 9000, 10800, 20000, 38400, 45000)
	for _, mk := range []func(device.Config) core.Profile{
		core.EXT4DR, core.BFSDR, core.EXT4MQ, core.BFSMQ, core.OptFS,
	} {
		sweepClean(t, OnStack(mk(device.NVMeSSD()), KV(4)), pts)
	}
}

// TestKVCrashSingleClient pins the degenerate no-grouping case (every batch
// is its own group) across crash points on each answer fs gives.
func TestKVCrashSingleClient(t *testing.T) {
	for _, mk := range []func(device.Config) core.Profile{core.EXT4DR, core.BFSDR, core.OptFS} {
		sweepClean(t, OnStack(mk(device.PlainSSD()), KV(1)), times(1500, 8000, 30000))
	}
}

// kvWindowStore publishes a manifest every few records (a 16-page ring, a
// 4-key memtable) and never checkpoints on its own, so between two memtable
// flushes nothing flushes the device cache.
var kvWindowStore = kvwal.Config{WALPages: 16, MemtableCap: 4, CompactFanIn: 3, CheckpointEvery: 1 << 20}

// kvCheckpointStore checkpoints every other group, and its memtable flushes
// write segments long enough for a checkpoint to land inside one.
var kvCheckpointStore = kvwal.Config{WALPages: 64, MemtableCap: 16, CompactFanIn: 3, CheckpointEvery: 2}

// kvRow is where kvWindow cuts the power. rowPublish and rowMidAppend
// first open the window the barrier engines' relaxed publish leaves: a
// memtable flush published its manifest, committed records have
// overwritten WAL slots the previous manifest replays, the device cache
// holds the new manifest page and a page written after it, and the cache
// has not flushed since the publish. On BFS-DR the segment the manifest
// names is only ordered too.
type kvRow int

const (
	// rowSegment crashes as soon as the first manifest that names a segment
	// is in the device cache. On BFS-MQ the segment's background writeback
	// rides data streams that no barrier orders, so only its fdatasync
	// keeps it ahead of the manifest.
	rowSegment kvRow = iota
	// rowPublish crashes inside the window.
	rowPublish
	// rowCheckpoint crashes once a manifest is cached whose segment a
	// periodic checkpoint (a clean-WAL fdatasync: a forced journal commit
	// waited durably) landed inside, and is the oldest write the cache
	// holds.
	rowCheckpoint
	// rowMidAppend crashes after a ForceCheckpoint issued inside the window
	// while a group is mid-append: a dirty-WAL fdatasync, the data-only
	// flush.
	rowMidAppend
	// rowParked crashes once the manifest published after a segment is
	// cached, where the segment's metadata was still parked on the
	// conflict-page list when its last page went to writeback. The row's
	// 16-page journal keeps the commit that holds the metadata waiting in
	// reserve, so its JC is not transferred when the segment's ordering
	// call runs, and the running transaction is empty: the one case where
	// fbarrier's parked path commits nothing.
	rowParked
)

func (r kvRow) String() string {
	return [...]string{"segment", "publish", "checkpoint", "mid-append", "parked"}[r]
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

// kvWindow runs two clients against a small store and cuts the power at
// row; *reached reports that it got there, and seen collects the checkpoint
// of the manifest each audited image recovered from.
func kvWindow(row kvRow, reached *bool, seen map[uint64]bool) Part {
	return func(k *sim.Kernel, s *core.Stack) []Checker {
		chk := &checkpointChecker{seen: seen}
		k.Spawn("kv/setup", func(p *sim.Proc) {
			cfg := kvWindowStore
			if row == rowCheckpoint {
				cfg = kvCheckpointStore
			}
			st, err := kvwal.Open(p, s, cfg)
			if err != nil {
				panic(err)
			}
			chk.Store = st
		})
		hold := false // the clients stop writing
		for c := 0; c < 2; c++ {
			k.SpawnIdx("kv/client", c, func(p *sim.Proc) {
				rng := rand.New(rand.NewSource(int64(7 + c)))
				if !awaitStore(p, s, &chk.Store) {
					return
				}
				for !hold {
					chk.Store.Apply(p, []kvwal.Op{{Kind: kvwal.Put, Key: fmt.Sprintf("k%03d", rng.Intn(64))}})
				}
			})
		}
		k.Spawn("kv/window", func(p *sim.Proc) {
			if !awaitStore(p, s, &chk.Store) {
				return
			}
			st := chk.Store
			switch row {
			case rowSegment:
				// No WAL write after the first segment's: its pages, their
				// commit and the manifest are all the cache holds.
				awaitSegment(p, s, 0)
				hold = true
				for st.Stats().Flushes == 0 {
					p.Sleep(100 * sim.Nanosecond)
				}
				awaitManifestCached(p, s)
			case rowPublish:
				openWindow(p, s, st)
			case rowCheckpoint:
				// What the segment allocates after the checkpoint's commit
				// froze parks behind that commit (§4.3); the segment's own
				// ordering commit must still carry it before the manifest.
				for id := 0; ; id++ {
					id = awaitSegment(p, s, id)
					flushes, parked := st.Stats().Flushes, s.FS.Journal().Stats().ConflictParked
					syncs := st.Stats().CheckpointSyncs
					for st.Stats().Flushes == flushes {
						p.Sleep(100 * sim.Nanosecond)
					}
					if st.Stats().CheckpointSyncs > syncs && s.FS.Journal().Stats().ConflictParked > parked {
						awaitManifestCached(p, s)
						// The segment's commit does not wait for the
						// checkpoint's flush, so the cache still holds the
						// segment when the manifest arrives: crash once
						// that flush has taken everything older.
						manifest, _ := s.FS.Lookup(s.FS.Root(), "kv.manifest")
						for cachedBefore(s, manifest) {
							p.Sleep(100 * sim.Nanosecond)
						}
						break
					}
				}
			case rowParked:
				manifest, _ := s.FS.Lookup(s.FS.Root(), "kv.manifest")
				for id := 0; ; id++ {
					id = awaitSegment(p, s, id)
					seg, _ := s.FS.Lookup(s.FS.Root(), fmt.Sprintf("kv.seg-%d", id))
					for seg.DirtyPages() > 0 {
						p.Sleep(100 * sim.Nanosecond)
					}
					if !seg.MetaParked() {
						continue
					}
					ver, _ := s.FS.PageVer(manifest, 0)
					for cur := ver; cur == ver; cur, _ = s.FS.PageVer(manifest, 0) {
						p.Sleep(100 * sim.Nanosecond)
					}
					awaitManifestCached(p, s)
					break
				}
			case rowMidAppend:
				// Records appended but not yet committed: the WAL is dirty.
				openWindow(p, s, st)
				for int64(st.CommittedSeq()) == st.Stats().WALRecords {
					p.Sleep(100 * sim.Nanosecond)
				}
				st.ForceCheckpoint(p)
			}
			*reached = true
			k.Stop()
		})
		return append([]Checker{chk}, journalAndFS(s)...)
	}
}

// awaitManifestCached returns once the device cache holds the current
// manifest page.
func awaitManifestCached(p *sim.Proc, s *core.Stack) {
	manifest, _ := s.FS.Lookup(s.FS.Root(), "kv.manifest")
	for cached, _ := manifestCached(s, manifest); !cached; cached, _ = manifestCached(s, manifest) {
		p.Sleep(100 * sim.Nanosecond)
	}
}

// manifestCached reports whether the device cache holds the manifest's
// current page, and whether it holds a page written after it.
func manifestCached(s *core.Stack, manifest *fs.Inode) (cached, after bool) {
	ver, _ := s.FS.PageVer(manifest, 0)
	for _, w := range s.Dev.CaptureConstraints().Writes {
		if d, ok := w.Data.(*fs.PageData); ok {
			cached = cached || d.Ver == ver
			after = after || d.Ver > ver
		}
	}
	return cached, after
}

// cachedBefore reports whether the device cache holds a write transferred
// before the manifest's current page: its oldest cached write is another.
func cachedBefore(s *core.Stack, manifest *fs.Inode) bool {
	ws := s.Dev.CaptureConstraints().Writes
	if len(ws) == 0 {
		return false
	}
	ver, _ := s.FS.PageVer(manifest, 0)
	d, ok := ws[0].Data.(*fs.PageData)
	return !ok || d.Ver != ver
}

// awaitSegment returns the id of the first segment file from kv.seg-id on
// that holds a written page. Compaction may unlink a segment before it is
// seen, so it looks a few ids ahead.
func awaitSegment(p *sim.Proc, s *core.Stack, id int) int {
	for {
		for n := id; n < id+4; n++ {
			if f, ok := s.FS.Lookup(s.FS.Root(), fmt.Sprintf("kv.seg-%d", n)); ok && f.DirtyPages() > 0 {
				return n
			}
		}
		p.Sleep(100 * sim.Nanosecond)
	}
}

// openWindow returns once the window is open. It cannot read a manifest's
// checkpoint, but the committed sequence seen when a flush finishes bounds
// it from above (the flush froze the memtable earlier), so committing past
// the previous flush's bound by a whole ring proves the slots that manifest
// replays are overwritten.
func openWindow(p *sim.Proc, s *core.Stack, st *kvwal.Store) {
	manifest, _ := s.FS.Lookup(s.FS.Root(), "kv.manifest")
	var flushes int64
	var prev, cur uint64 // bounds on the checkpoints of the last two manifests
	devFlushes := s.Dev.Stats().Flushes
	for {
		p.Sleep(sim.Microsecond)
		if f := st.Stats().Flushes; f != flushes {
			flushes = f
			prev, cur = cur, st.CommittedSeq()
			devFlushes = s.Dev.Stats().Flushes
		}
		if s.Dev.Stats().Flushes != devFlushes || st.CommittedSeq() <= prev+uint64(kvWindowStore.WALPages) {
			continue // the manifest is durable, or no slot it needs is overwritten
		}
		if cached, after := manifestCached(s, manifest); cached && after {
			return
		}
	}
}

// TestKVManifestPublishWindow crashes the barrier engines at each kvRow and
// enumerates every state, uncapped. No image may lose a
// durable-acknowledged write or name a segment it cannot read. Inside the
// window some image must also recover from an older manifest (the
// overwritten slots are ordered after the new one, so they vanish with it).
// After a checkpoint every record it acknowledged must survive, whichever
// manifest an image recovers from. A clean-WAL checkpoint that skips its
// journal commit fails the checkpoint row. Writing a BFS-DR segment with
// fbarrier, whose parked path commits nothing, fails the parked row: the
// manifest then reaches the device ahead of the segment's metadata.
func TestKVManifestPublishWindow(t *testing.T) {
	for _, row := range []kvRow{rowSegment, rowPublish, rowCheckpoint, rowMidAppend, rowParked} {
		pages := 512
		if row == rowParked {
			pages = 16
		}
		for _, mk := range []func(device.Config) core.Profile{core.BFSDR, core.BFSMQ} {
			reached, seen := false, make(map[uint64]bool)
			prof := CompactJournal(mk(device.NVMeSSD()), pages)
			res := Enumerate(OnStack(prof, kvWindow(row, &reached, seen)), Config{CrashAt: at(1000000), Log: logTo(t)})
			t.Logf("%s: images recovered from checkpoints %v: %s", row, seen, res.String())
			if !reached {
				t.Fatalf("%s %s: the crash point was never reached", res.Profile, row)
			}
			if res.Capped {
				t.Fatalf("%s %s: enumeration capped; the directed row must be exhaustive", res.Profile, row)
			}
			requireClean(t, res)
			if row == rowPublish && len(seen) < 2 {
				t.Errorf("%s: no image recovered from an older manifest", res.Profile)
			}
		}
	}
}
