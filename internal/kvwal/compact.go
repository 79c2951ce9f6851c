package kvwal

import (
	"slices"
	"strings"

	"repro/internal/sim"
)

// The background path: memtable flushes and segment compaction. Both run
// as their own sim.Procs and push their pages through WritebackAsync, so
// the writes carry REQ_BACKGROUND — on the multi-queue profiles they
// scatter onto data streams and stay out of the commit stream's way. A
// segment must reach storage before the manifest may reference it, and the
// manifest before WAL records may be recycled. Flush engines make each
// durable in turn. Barrier engines on one queue only order them: the
// segment's pages, its allocation commit, the manifest and the recycling
// writes persist in that order, and all of them are durable at the next
// checkpoint. Until then a crash may keep the previous manifest, so
// compaction's inputs must stay readable until the merged run's allocation
// is durable. They do, because the fs never reuses a freed LPA: unlinking
// an input frees its blocks but never overwrites them. On the multi-queue
// layer the scattered pages escape the barriers, so there the segment is
// fdatasynced before the manifest is ordered behind it.

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

	ents := make([]segEnt, 0, len(st.imm))
	for key, e := range st.imm {
		ents = append(ents, segEnt{key: key, seq: e.seq, del: e.del})
	}
	slices.SortFunc(ents, bySegKey)

	if len(ents) > 0 {
		seg := st.writeSegment(p, ents)
		st.segs = append(st.segs, seg)
		st.indexSegment(seg)
	}
	// Publish the segment (if any) and release WAL space.
	st.writeManifest(p, freezeSeq)
	st.checkpointSeq = freezeSeq
	if !st.orderSegments && freezeSeq > st.durableSeq {
		// The segment's fdatasync made everything up to the freeze point
		// durable. An ordered segment waits for the next checkpoint.
		st.durableSeq = freezeSeq
	}
	clear(st.imm)
	st.imm, st.spare = nil, st.imm
	st.stats.Flushes++
}

func bySegKey(a, b segEnt) int { return strings.Compare(a.key, b.key) }

// writeSegment creates a new segment file, writes one page per entry as
// background writeback, waits for the transfers, and then stores it: an
// fdatasync makes it durable, or, where segments are ordered, an
// fdatabarrier on the now-clean file forces an ordering-only journal
// commit. That commit drains the conflict-page list before it freezes, so
// it carries even allocation metadata parked behind an in-flight commit;
// fbarrier would not, since its parked path commits nothing. The segment is
// durable at the next checkpoint. It returns the registered segment, with
// the entries' page and version shadows filled in.
func (st *Store) writeSegment(p *sim.Proc, ents []segEnt) *segment {
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
			st.fs.WritebackAsync(p, f)
		}
	}
	st.fs.WritebackAsync(p, f)
	// filemap_fdatawait: background writeback is marked clean at submission
	// and carries no ordering promise, so the coming sync cannot see or cover
	// what is still queued. A background thread can afford the
	// Wait-on-Transfer the foreground commit path avoids.
	st.fs.Fdatawait(p, f)
	if st.orderSegments {
		st.fs.Fdatabarrier(p, f)
	} else {
		st.fs.Fdatasync(p, f) // allocation metadata + cache flush: durable
	}
	if st.cfg.EvictSegments {
		st.fs.EvictClean(f)
	}
	seg.entries = ents
	st.segByID[seg.id] = seg
	return seg
}

// writeManifest publishes the current live segment set and checkpoint:
// one overwrite of the manifest page followed by the engine's publish call.
// The version stamp of that page is the commit point recovery pivots on.
// Flush engines fdatasync it. Barrier engines fdatabarrier it: the WAL slot
// overwrites that the new checkpoint allows are dispatched after that
// barrier, so a crash that loses the manifest loses them too and recovery
// replays from the previous one, whose segments stay readable because the
// fs never reuses a freed LPA. Flusher, compactor and Ingest all publish,
// and every filesystem call yields, so the whole write-stamp-publish
// sequence holds a lock: without it two writers can interleave, one
// stamping the other's page version and losing its state — and with it the
// manifest-before-recycling order WAL slot reuse rests on.
func (st *Store) writeManifest(p *sim.Proc, checkpoint uint64) {
	st.manifestMu.Lock(p)
	if st.checkpointSeq > checkpoint {
		// The caller's checkpoint was captured before the lock wait; never
		// republish an older one (WAL slots may already be recycled past it).
		checkpoint = st.checkpointSeq
	}
	ids := make([]int, len(st.segs))
	for i, s := range st.segs {
		ids[i] = s.id
	}
	st.fs.Write(p, st.manifest, 0)
	ver, _ := st.fs.PageVer(st.manifest, 0)
	st.manifestHist[ver] = manifestState{checkpoint: checkpoint, segIDs: ids}
	if st.barrierCommit {
		st.fs.Fdatabarrier(p, st.manifest)
	} else {
		st.fs.Fdatasync(p, st.manifest)
	}
	st.manifestMu.Unlock()
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
			// and nothing reads their result. A media error is dropped on
			// purpose, and the inputs are unlinked below regardless: aborting
			// the merge to keep them would change the faults experiment's
			// cells, so it waits for the work that makes IO errors reach
			// their callers.
			_, _, _ = st.fs.Read(p, f, e.page)
		}
	}
	st.compPos = slices.Grow(st.compPos[:0], len(inputs))[:len(inputs)]
	ents := make([]segEnt, mergeRuns(inputs, st.compPos, nil))
	mergeRuns(inputs, st.compPos, ents)

	var merged *segment
	if len(ents) > 0 {
		merged = st.writeSegment(p, ents)
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
	st.stats.Compactions++
	st.obs.compactions.Inc()
}

// mergeRuns k-way merges segs' sorted runs (oldest first) into out, or only
// counts when out is nil, and returns the entry count. Per key the newest
// seq wins, the oldest run on a tie; a winning tombstone drops the key.
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
