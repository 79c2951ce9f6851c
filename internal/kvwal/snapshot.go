package kvwal

import (
	"slices"

	"repro/internal/block"
	"repro/internal/sim"
)

// Host-side state enumeration and bulk ingest for cluster rebalancing
// (internal/kvcluster). A migration copier enumerates a source shard's live
// keys, reads each one through the normal charged path (GetE), and lands the
// copies on the destination shard either as an ingested segment (bulk copy)
// or as ordinary Apply ops (catch-up deltas).

// LiveKeys returns every key whose newest mutation is a live put, sorted —
// the deterministic work list for a migration copier. This is a pure
// host-side shadow walk: no proc, no IO is charged. The copier pays the real
// reads per key when it actually copies (GetE faces the medium).
func (st *Store) LiveKeys() []string {
	newest := make(map[string]memEnt)
	for _, seg := range st.segs { // oldest first; newer entries overwrite
		for _, e := range seg.entries {
			if cur, ok := newest[e.key]; !ok || e.seq > cur.seq {
				newest[e.key] = memEnt{seq: e.seq, del: e.del}
			}
		}
	}
	for k, e := range st.imm {
		if cur, ok := newest[k]; !ok || e.seq > cur.seq {
			newest[k] = e
		}
	}
	for k, e := range st.mem {
		if cur, ok := newest[k]; !ok || e.seq > cur.seq {
			newest[k] = e
		}
	}
	keys := make([]string, 0, len(newest))
	for k, e := range newest {
		if !e.del {
			keys = append(keys, k)
		}
	}
	slices.Sort(keys)
	return keys
}

// Peek reports a key's live state (its sequence number and whether the
// newest mutation is a put) from the host-side shadow, without a proc and
// without charging IO. It is the audit-time analogue of GetE: crash-audit
// checkers use it to ask surviving shards what they hold while the crashed
// shard answers from its recovered image.
func (st *Store) Peek(key string) (uint64, bool) {
	if e, ok := st.mem[key]; ok {
		return e.seq, !e.del
	}
	if e, ok := st.imm[key]; ok {
		return e.seq, !e.del
	}
	if r, ok := st.index[key]; ok {
		e := r.seg.entries[r.n]
		return e.seq, !e.del
	}
	return 0, false
}

// Ingest bulk-loads keys copied from another shard as one sorted segment,
// written like a memtable flush's (REQ_BACKGROUND clumps, fdatawait, then
// the store's segment ordering point) and published in the manifest,
// without touching the WAL or the group-commit path. Where fs answers
// Durable the chunk is durable the moment Ingest returns; where it only
// orders, the segment and the manifest that names it are durable at the
// store's next checkpoint (kvcluster's cutover gate forces one with
// ForceCheckpoint).
//
// Ingested entries carry sequence number 0: they consume no WAL sequence
// space (recovery's walHist indexing stays intact) and lose to any real
// local mutation of the same key on the recovery fold and in compaction. The
// caller must uphold the one precondition that makes the live read path
// agree with that: the destination holds no prior state for the ingested
// keys (a freshly opened shard, or a first-time owner). Then any later real
// write of an ingested key lands in the memtable or a younger segment and
// wins the newest-first read walk too.
func (st *Store) Ingest(p *sim.Proc, keys []string) {
	if len(keys) == 0 {
		return
	}
	ents := st.takeRun(len(keys), len(keys))
	seen := make(map[string]bool, len(keys))
	for _, k := range keys {
		if !seen[k] {
			seen[k] = true
			ents = append(ents, segEnt{key: k})
		}
	}
	slices.SortFunc(ents, bySegKey)
	seg, _ := st.writeSegment(p, ents, block.RoleBackground)
	st.segs = append(st.segs, seg)
	st.indexSegment(seg)
	st.writeManifest(p, st.checkpointSeq)
	st.stats.Ingests++
}
