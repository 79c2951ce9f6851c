package kvwal

import (
	"fmt"
	"sort"

	"repro/internal/fs"
)

// Crash recovery. The device models page contents as version stamps, so
// recovery pivots on versions: the recovered manifest page version selects
// a durable {segment set, WAL checkpoint} from the store's shadow history,
// segment entries are validated by their page versions, and WAL replay
// walks the shadow from the checkpoint forward, applying records whose
// slot still carries the version they were written with. Replay stops at
// the first missing record — state beyond a hole was never acknowledged
// and, on barrier engines, must not exist at all past a group boundary.

// RecEnt is one recovered key state.
type RecEnt struct {
	Seq uint64
	Del bool
}

// Recovered is the reconstructed post-crash image of a store.
type Recovered struct {
	// Keys maps every key with a surviving mutation to its newest surviving
	// state (tombstones included, so audits can distinguish "deleted later"
	// from "lost").
	Keys map[string]RecEnt
	// Checkpoint is the WAL checkpoint of the recovered manifest.
	Checkpoint uint64
	// PrefixSeq is the last WAL sequence number in the contiguous surviving
	// prefix after Checkpoint.
	PrefixSeq uint64
	// WALApplied counts the WAL records replayed (the contiguous prefix).
	WALApplied int
	// SegmentHoles lists the holes in the recovered manifest state: a
	// manifest older than one the store knew durable (its state was
	// pruned, so none is folded), or manifest-referenced segment entries
	// whose durable page version did not match. Each is a durability
	// violation by construction.
	SegmentHoles []string
	// StragglerSeqs lists WAL records that survived *beyond* the prefix
	// hole. Within the same group commit that is legal reordering; across a
	// group boundary on a barrier engine it is an ordering violation (the
	// audit classifies them).
	StragglerSeqs []uint64
}

// Recover reconstructs the store image from a recovered filesystem view
// (s.RecoverView after a crash).
func (st *Store) Recover(view *fs.View) Recovered {
	rec := Recovered{Keys: make(map[string]RecEnt)}
	root, ok := view.Root(st.fs)
	if !ok {
		return rec
	}

	// 1. Manifest: pick the durable {segments, checkpoint} state.
	var ver int64
	if meta, ok := view.Lookup(root, manifestName); ok {
		ver, _ = view.PageVersion(meta, 0)
	}
	if ver < st.durableVer {
		// Only a mount whose durable answers are false gets here (a
		// nobarrier one), so it is reported, not folded as empty.
		rec.SegmentHoles = append(rec.SegmentHoles,
			fmt.Sprintf("manifest v%d recovered, older than v%d, which the store knew durable and pruned the shadow below",
				ver, st.durableVer))
	}
	state := st.manifestHist[ver]
	rec.Checkpoint = state.checkpoint

	// 2. Fold the manifest's segments, oldest first. Every entry the
	// durable manifest references must itself be durable.
	for _, seg := range state.segs {
		meta, ok := view.Lookup(root, seg.name)
		if !ok {
			rec.SegmentHoles = append(rec.SegmentHoles,
				fmt.Sprintf("segment %s referenced by durable manifest but unrecoverable", seg.name))
			continue
		}
		for _, e := range seg.entries {
			got, ok := view.PageVersion(meta, e.page)
			if !ok || got != e.ver {
				rec.SegmentHoles = append(rec.SegmentHoles,
					fmt.Sprintf("segment %s page %d (key %s): want v%d, got v%d (present=%v)",
						seg.name, e.page, e.key, e.ver, got, ok))
				continue
			}
			if cur, dup := rec.Keys[e.key]; !dup || e.seq > cur.Seq {
				rec.Keys[e.key] = RecEnt{Seq: e.seq, Del: e.del}
			}
		}
	}

	// 3. WAL replay: contiguous surviving prefix after the checkpoint.
	walMeta, walOK := view.Lookup(root, walName)
	rec.PrefixSeq = state.checkpoint
	inPrefix := true
	for seq := state.checkpoint + 1; seq <= st.walHist.n; seq++ {
		r := st.walHist.at(seq)
		survived := false
		if walOK {
			slot := int64((seq - 1) % uint64(st.cfg.WALPages))
			if got, ok := view.PageVersion(walMeta, slot); ok && got == r.ver {
				survived = true
			}
		}
		if !survived {
			inPrefix = false
			continue
		}
		if !inPrefix {
			rec.StragglerSeqs = append(rec.StragglerSeqs, seq)
			continue
		}
		rec.PrefixSeq = seq
		rec.WALApplied++
		if cur, dup := rec.Keys[r.key]; !dup || seq > cur.Seq {
			rec.Keys[r.key] = RecEnt{Seq: seq, Del: r.kind == Delete}
		}
	}
	return rec
}

// Audit checks a recovered image against the store's acknowledgement
// history and returns durability and ordering violations.
//
// Durability: every operation acknowledged durable (seq <= DurableSeq) must
// be reflected: its key's recovered state must be at least as new as the
// acknowledged op. A key may legitimately be newer (a later unacknowledged
// op survived), but it must never be older. It may be absent only where it
// was deleted: by a durably acked delete, or by a later one the recovered
// image reflects (at or below its checkpoint or WAL prefix), whose
// tombstone compaction may have dropped.
//
// Ordering: the surviving WAL records must form a prefix of the committed
// history at *group* granularity — a surviving record from group g with any
// missing record in a group before g means the device persisted across a
// barrier out of order. Where group commits are durable the rule cannot
// fire: group g+1 is dispatched only after g's durable sync returned.
func (st *Store) Audit(rec Recovered) (durability, ordering []string) {
	durability = append(durability, rec.SegmentHoles...)

	// Expected state at the durable watermark, then the deletes of those
	// keys the recovered image reflects beyond it.
	expected := make(map[string]RecEnt)
	reflected := max(st.durableSeq, rec.Checkpoint, rec.PrefixSeq)
	for seq := uint64(1); seq <= reflected && seq <= st.walHist.n; seq++ {
		r := st.walHist.at(seq)
		if seq <= st.durableSeq {
			expected[r.key] = RecEnt{Seq: seq, Del: r.kind == Delete}
		} else if _, acked := expected[r.key]; acked && r.kind == Delete {
			expected[r.key] = RecEnt{Seq: seq, Del: true}
		}
	}
	keys := make([]string, 0, len(expected))
	for k := range expected {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, key := range keys {
		want := expected[key]
		got, ok := rec.Keys[key]
		switch {
		case want.Del:
			// A durably acknowledged or reflected delete: the key must not
			// resurface with an *older* put. A newer surviving put is legal.
			if ok && !got.Del && got.Seq < want.Seq {
				durability = append(durability,
					fmt.Sprintf("key %s: deleted at seq %d but recovered stale put seq %d", key, want.Seq, got.Seq))
			}
		case !ok:
			durability = append(durability,
				fmt.Sprintf("key %s: put seq %d acknowledged durable but lost", key, want.Seq))
		case got.Seq < want.Seq:
			durability = append(durability,
				fmt.Sprintf("key %s: acknowledged seq %d, recovered stale seq %d", key, want.Seq, got.Seq))
		}
	}

	// Group-granularity prefix rule. PrefixSeq's group may be partially
	// persisted (no barrier inside a group); any straggler in a LATER group
	// than a missing record's group is a violation.
	for _, seq := range rec.StragglerSeqs {
		sg := st.walHist.at(seq).group
		// The first missing record is PrefixSeq+1.
		missing := rec.PrefixSeq + 1
		if missing <= st.walHist.n {
			mg := st.walHist.at(missing).group
			if sg > mg {
				ordering = append(ordering,
					fmt.Sprintf("wal record seq %d (group %d) survived while seq %d (group %d) was lost across a barrier",
						seq, sg, missing, mg))
			}
		}
	}
	return durability, ordering
}
