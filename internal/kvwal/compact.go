package kvwal

import (
	"slices"
	"strings"

	"repro/internal/sim"
)

// The background path: memtable flushes and segment compaction. Both run
// as their own sim.Procs and push their pages through WritebackAsync, so
// the writes carry REQ_BACKGROUND — on the multi-queue profiles they
// scatter onto data streams and stay out of the commit stream's way. Each
// finishes with an explicit fdatasync on the file it wrote (segment data
// must be durable before the manifest may reference it, and the manifest
// must be durable before WAL records may be recycled).

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
	}
	// The segment (if any) is durable: publish it and release WAL space.
	st.writeManifest(p, freezeSeq)
	st.checkpointSeq = freezeSeq
	if freezeSeq > st.durableSeq {
		// Everything up to the freeze point now lives in durable segments.
		st.durableSeq = freezeSeq
	}
	clear(st.imm)
	st.imm, st.spare = nil, st.imm
	st.stats.Flushes++
}

func bySegKey(a, b segEnt) int { return strings.Compare(a.key, b.key) }

// writeSegment creates a new segment file, writes one page per entry as
// background writeback, makes it durable, and returns the registered
// segment. The entries' page and version shadows are filled in.
func (st *Store) writeSegment(p *sim.Proc, ents []segEnt) *segment {
	seg := &segment{id: st.nextSegID, byKey: make(map[string]int, len(ents))}
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
		seg.byKey[ents[i].key] = i
		// Push pages out in background-sized clumps rather than one giant
		// dirty set, to keep the writeback stream busy while we fill.
		if i%16 == 15 {
			st.fs.WritebackAsync(p, f)
		}
	}
	st.fs.WritebackAsync(p, f)
	// filemap_fdatawait: background writeback is marked clean at submission
	// and carries no ordering promise, so the coming fdatasync cannot see or
	// cover what is still queued. A background thread can afford the
	// Wait-on-Transfer the foreground commit path avoids.
	st.fs.Fdatawait(p, f)
	st.fs.Fdatasync(p, f) // allocation metadata + cache flush: durable
	if st.cfg.EvictSegments {
		st.fs.EvictClean(f)
	}
	seg.entries = ents
	st.segByID[seg.id] = seg
	return seg
}

// writeManifest publishes the current live segment set and checkpoint:
// one overwrite of the manifest page followed by fdatasync. The version
// stamp of that page is the commit point recovery pivots on. Flusher and
// compactor both publish, and every filesystem call yields, so the whole
// write-stamp-sync sequence holds a lock: without it two writers can
// interleave, one stamping the other's page version and losing its state
// — and with it the durable-manifest invariant WAL slot recycling rests on.
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
	st.fs.Fdatasync(p, st.manifest)
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
			st.fs.Read(p, f, e.page)
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
