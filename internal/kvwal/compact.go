package kvwal

import (
	"slices"
	"strings"

	"repro/internal/block"
	"repro/internal/sim"
)

// The background path: memtable flushes and segment compaction. Both run as
// their own sim.Procs and push their pages through WritebackAsync in a
// background role, which on the multi-queue profiles the block layer
// spreads onto data streams, out of the commit stream's way. A memtable
// flush writes as block.RoleBackground. Compaction's input reads and
// merged-run writes are block.RoleIdle, as RocksDB runs compaction at the
// idle IO priority: a merge waits while the block queue is full, and its
// requests never count against the congestion limit the group-commit
// leader's WAL writes wait on, so a merge burst never delays a group
// commit. The memtable flush stays plain background IO: the WAL ring waits
// on it, and the queue limit it shares with the leader is what throttles
// the leader at overload and keeps group commits batching. A segment must
// reach storage before the manifest may reference it, and the manifest
// before WAL records may be recycled. Each is an ordering point (order):
// where fs makes them durable, they are durable in turn. Where it only
// orders them, the segment's pages, its allocation commit, the manifest
// and the recycling writes persist in that order, and all of them are
// durable at the next checkpoint. Until then a crash may keep the previous
// manifest, so compaction's inputs must stay readable until the merged
// run's allocation is durable. They do, because the fs never reuses a
// freed LPA: unlinking an input frees its blocks but never overwrites
// them. On the multi-queue layer the scattered pages escape the barriers,
// and fs answers the segment's fdatabarrier with a durable fdatasync.
//
// Segment turnover allocates no entry array on the host. Recovery needs the
// shadow of every manifest a crash may still recover and of the segments it
// names, and no older one: a manifest is retired once a newer one is known
// durable, not merely ordered (OptFS's osync/dsync split applied to host
// memory). That is when its order answers Durable, or when a checkpoint's
// fdatasync returns that began after its order returned. retire then drops
// the older manifests and every segment no retained manifest, live segment
// or compaction input names, and hands their entry arrays to flushOnce,
// compactOnce and Ingest.

// flusher freezes the memtable when the leader signals and turns it into a
// sorted segment, then advances the WAL checkpoint.
func (st *Store) flusher(p *sim.Proc) {
	for {
		if !st.needFlush() {
			st.flushCond.Wait(p)
			continue
		}
		st.flushOnce(p)
		st.spaceCond.Broadcast()
		if len(st.segs) > st.cfg.CompactFanIn {
			st.compactCond.Signal()
		}
	}
}

// flushOnce freezes the current memtable and writes it out as one segment.
func (st *Store) flushOnce(p *sim.Proc) {
	freezeSeq := st.committedSeq
	st.imm, st.mem, st.spare = st.mem, st.spare, nil

	ents := st.takeRun(len(st.imm), len(st.imm))
	for key, e := range st.imm {
		ents = append(ents, segEnt{key: key, seq: e.seq, del: e.del})
	}
	slices.SortFunc(ents, bySegKey)

	// needFlush saw a non-empty memtable, so there is a segment to write.
	seg, durable := st.writeSegment(p, ents, block.RoleBackground)
	st.segs = append(st.segs, seg)
	st.indexSegment(seg)
	// Publish the segment and release WAL space.
	st.writeManifest(p, freezeSeq)
	st.checkpointSeq = freezeSeq
	if durable && freezeSeq > st.durableSeq {
		// The segment's durable sync made everything up to the freeze point
		// durable. An ordered segment waits for the next checkpoint.
		st.durableSeq = freezeSeq
	}
	clear(st.imm)
	st.imm, st.spare = nil, st.imm
	st.stats.Flushes++
}

func bySegKey(a, b segEnt) int { return strings.Compare(a.key, b.key) }

// writeSegment creates a new segment file, writes one page per entry as
// background writeback in the given role, waits for the transfers, and then
// orders it. On BarrierFS the fdatabarrier on the now-clean file forces an
// ordering-only journal commit, which drains the conflict-page list before
// it freezes, so it carries even allocation metadata parked behind an
// in-flight commit; fbarrier would not, since its parked path commits
// nothing. An ordered segment is durable at the next checkpoint. It returns
// the registered segment, with the entries' page and version shadows filled
// in, and whether fs made it durable.
func (st *Store) writeSegment(p *sim.Proc, ents []segEnt, role block.Role) (*segment, bool) {
	seg := &segment{id: st.nextSegID}
	st.nextSegID++
	seg.name = segName(seg.id)
	f, err := st.fs.Create(p, st.fs.Root(), seg.name)
	if err != nil {
		panic("kvwal: " + err.Error())
	}
	for i := range ents {
		ents[i].page = int64(i)
		st.fs.Write(p, f, int64(i))
		ver, _ := st.fs.PageVer(f, int64(i))
		ents[i].ver = ver
		// Push pages out in background-sized clumps rather than one giant
		// dirty set, to keep the writeback stream busy while we fill.
		if i%16 == 15 {
			st.fs.WritebackAsync(p, f, role)
		}
	}
	st.fs.WritebackAsync(p, f, role)
	// filemap_fdatawait: background writeback is marked clean at submission
	// and carries no ordering promise, so the coming sync cannot see or cover
	// what is still queued. A background thread can afford the
	// Wait-on-Transfer the foreground commit path avoids.
	st.fs.Fdatawait(p, f)
	durable := st.order(p, f)
	if st.cfg.EvictSegments {
		st.fs.EvictClean(f)
	}
	seg.entries = ents
	st.shadow = append(st.shadow, seg)
	return seg, durable
}

// writeManifest publishes the current live segment set and checkpoint:
// one overwrite of the manifest page followed by an ordering point (order).
// The version stamp of that page is the commit point recovery pivots on.
// Where fs only orders it, the WAL slot overwrites that the new checkpoint
// allows are dispatched after that barrier, so a crash that loses the
// manifest loses them too and recovery replays from the previous one, whose
// segments stay readable because the fs never reuses a freed LPA. Flusher, compactor and Ingest all publish,
// and every filesystem call yields, so the whole write-stamp-publish
// sequence holds a lock: without it two writers can interleave, one
// stamping the other's page version and losing its state — and with it the
// manifest-before-recycling order WAL slot reuse rests on. The lock also
// keeps page versions ascending in publication order, which the durable
// manifest watermark relies on.
func (st *Store) writeManifest(p *sim.Proc, checkpoint uint64) {
	st.manifestMu.Lock(p)
	if st.checkpointSeq > checkpoint {
		// The caller's checkpoint was captured before the lock wait; never
		// republish an older one (WAL slots may already be recycled past it).
		checkpoint = st.checkpointSeq
	}
	segs := slices.Clone(st.segs)
	st.fs.Write(p, st.manifest, 0)
	ver, _ := st.fs.PageVer(st.manifest, 0)
	st.manifestHist[ver] = manifestState{checkpoint: checkpoint, segs: segs}
	durable := st.order(p, st.manifest)
	st.orderedVer = ver
	if durable {
		st.retire(ver)
	}
	st.manifestMu.Unlock()
}

// retire advances the durable manifest watermark to ver, a manifest version
// known durable, and drops the recovery shadow below it: no crash can
// recover an older manifest. The manifests older than ver go, and so does
// every segment that no retained manifest, live segment or compaction input
// names; its entries go to the free list and are set to nil, so a stale
// segRef panics instead of reading a recycled array. The segments' keep
// marks are the one scratch set, so a call allocates nothing.
func (st *Store) retire(ver int64) {
	if ver <= st.durableVer {
		return
	}
	st.durableVer = ver
	mark := func(segs []*segment) {
		for _, seg := range segs {
			seg.keep = true
		}
	}
	for v, m := range st.manifestHist {
		if v < ver {
			delete(st.manifestHist, v)
		} else {
			mark(m.segs)
		}
	}
	mark(st.segs)
	mark(st.compIn)
	kept := st.shadow[:0]
	for _, seg := range st.shadow {
		if seg.keep {
			seg.keep = false
			kept = append(kept, seg)
			continue
		}
		st.recycleRun(seg.entries)
		seg.entries = nil
	}
	clear(st.shadow[len(kept):])
	st.shadow = kept
}

// maxFreeRuns bounds the recycled entry arrays a store keeps. A compaction
// retires its fan-in plus one arrays at once.
const maxFreeRuns = 16

// takeRun returns an empty entry array with room for n entries: the
// smallest recycled one that fits, or a new one of capacity size >= n.
func (st *Store) takeRun(n, size int) []segEnt {
	best := -1
	for i, r := range st.freeRuns {
		if cap(r) >= n && (best < 0 || cap(r) < cap(st.freeRuns[best])) {
			best = i
		}
	}
	if best < 0 {
		return make([]segEnt, 0, size)
	}
	run := st.freeRuns[best]
	st.dropRun(best)
	return run[:0]
}

// recycleRun puts a retired segment's entry array on the free list, dropping
// the smallest array there once the list is full.
func (st *Store) recycleRun(ents []segEnt) {
	st.freeRuns = append(st.freeRuns, ents)
	if len(st.freeRuns) <= maxFreeRuns {
		return
	}
	small := 0
	for i, r := range st.freeRuns {
		if cap(r) < cap(st.freeRuns[small]) {
			small = i
		}
	}
	st.dropRun(small)
}

// dropRun removes free-list entry i, moving the last into its place.
func (st *Store) dropRun(i int) {
	last := len(st.freeRuns) - 1
	st.freeRuns[i] = st.freeRuns[last]
	st.freeRuns[last] = nil
	st.freeRuns = st.freeRuns[:last]
}

// compactor merges all live segments into one when the flusher signals
// that too many have accumulated.
func (st *Store) compactor(p *sim.Proc) {
	for {
		if len(st.segs) <= st.cfg.CompactFanIn {
			st.compactCond.Wait(p)
			continue
		}
		st.compactOnce(p)
	}
}

// compactOnce merges the current live segments (a prefix snapshot: the
// flusher only appends) into one new segment, publishes it, and unlinks
// the inputs. Tombstones are dropped — nothing older than the merged run
// remains.
func (st *Store) compactOnce(p *sim.Proc) {
	st.compIn = append(st.compIn[:0], st.segs...)
	inputs := st.compIn
	for _, seg := range inputs { // oldest first
		f := st.fileOf(seg)
		for _, e := range seg.entries {
			// The merge runs from seg.entries, so these reads charge the IO
			// and nothing reads their result. They are idle background IO:
			// they queue behind the writes instead of passing them like a
			// get's read, so the merge does not race ahead of the flushes,
			// and never hold the leader at the congestion limit. A media
			// error is dropped on purpose, and the inputs are unlinked
			// below regardless: aborting the merge to keep them would
			// change the faults experiment's cells, so it waits for the
			// work that makes IO errors reach their callers.
			_, _, _ = st.fs.Read(p, f, e.page, block.RoleIdle)
		}
	}
	st.compPos = slices.Grow(st.compPos[:0], len(inputs))[:len(inputs)]
	// A new array is sized at the inputs' total length, the most a merge
	// can produce, so it can serve a later, larger merge once retired.
	total := 0
	for _, seg := range inputs {
		total += len(seg.entries)
	}
	n := mergeRuns(inputs, st.compPos, nil)
	ents := st.takeRun(n, total)[:n]
	mergeRuns(inputs, st.compPos, ents)

	var merged *segment
	if len(ents) > 0 {
		merged, _ = st.writeSegment(p, ents, block.RoleIdle)
	} else {
		st.recycleRun(ents)
	}
	// Splice: replace the input prefix with the merged run, keeping any
	// segments the flusher added while we merged.
	tail := st.segs[len(inputs):]
	st.segs = st.segs[:0]
	if merged != nil {
		st.segs = append(st.segs, merged)
	}
	st.segs = append(st.segs, tail...)
	// Repoint the index: a key whose newest copy was an input now lives in
	// the merged run, unless a tail segment holds a newer copy or its
	// tombstone was dropped.
	for _, seg := range inputs {
		for _, e := range seg.entries {
			if st.index[e.key].seg == seg {
				delete(st.index, e.key)
			}
		}
	}
	if merged != nil {
		for i, e := range merged.entries {
			if _, newer := st.index[e.key]; !newer {
				st.index[e.key] = segRef{merged, i}
			}
		}
	}
	st.writeManifest(p, st.checkpointSeq)
	for _, seg := range inputs {
		if err := st.fs.Unlink(p, st.fs.Root(), seg.name); err != nil {
			panic("kvwal: " + err.Error())
		}
	}
	// The inputs are retired at the next durable manifest that no longer
	// names them.
	clear(st.compIn)
	st.compIn = st.compIn[:0]
	st.stats.Compactions++
	st.obs.compactions.Inc()
}

// mergeRuns k-way merges segs' sorted runs (oldest first) into out, or only
// counts when out is nil, and returns the entry count. Per key the newest
// seq wins, the oldest run on a tie; a winning tombstone drops the key.
// Entries of out beyond the count are left as they were.
func mergeRuns(segs []*segment, pos []int, out []segEnt) int {
	clear(pos)
	for n := 0; ; {
		var win *segEnt // the smallest head key's winner
		for i, seg := range segs {
			if pos[i] < len(seg.entries) {
				e := &seg.entries[pos[i]]
				if win == nil || e.key < win.key || e.key == win.key && e.seq > win.seq {
					win = e
				}
			}
		}
		if win == nil {
			return n
		}
		for i, seg := range segs { // step every run past the key
			if pos[i] < len(seg.entries) && seg.entries[pos[i]].key == win.key {
				pos[i]++
			}
		}
		if !win.del {
			if out != nil {
				out[n] = segEnt{key: win.key, seq: win.seq}
			}
			n++
		}
	}
}
