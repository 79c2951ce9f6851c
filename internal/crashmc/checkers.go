package crashmc

import (
	"fmt"
	"sort"

	"repro/internal/fs"
	"repro/internal/jbd"
	"repro/internal/kvwal"
)

// The stock checkers. Each states one invariant against the Checker
// interface, so a sample and an enumeration run the identical logic: an
// Enumerate pass is the exhaustive form of the statement a Sweep makes
// pointwise.

// AckedWrite is one page write acknowledged durable (fsync returned) in
// the workload's history.
type AckedWrite struct {
	Idx int64 // page index
	Ver int64 // content version acknowledged
}

// DurabilityChecker audits the fsync contract: every acknowledged write
// must be reflected in the recovered image at least as new as acknowledged.
type DurabilityChecker struct {
	FS     *fs.FS
	File   string
	Synced []AckedWrite
}

// Name implements Checker.
func (c *DurabilityChecker) Name() string { return "durability" }

// Check implements Checker.
func (c *DurabilityChecker) Check(st *State) []Violation {
	if len(c.Synced) == 0 {
		return nil
	}
	root, ok := st.View.Root(c.FS)
	if !ok {
		return []Violation{{Kind: KindDurability, Detail: "root directory unrecoverable"}}
	}
	meta, ok := st.View.Lookup(root, c.File)
	if !ok {
		return []Violation{{Kind: KindDurability,
			Detail: fmt.Sprintf("file lost despite %d fsyncs", len(c.Synced))}}
	}
	var out []Violation
	for _, a := range c.Synced {
		got, ok := st.View.PageVersion(meta, a.Idx)
		if !ok || got < a.Ver {
			out = append(out, Violation{Kind: KindDurability,
				Detail: fmt.Sprintf("page %d: fsynced v%d, recovered v%d (present=%v)", a.Idx, a.Ver, got, ok)})
		}
	}
	return out
}

// IssuedWrite is one barrier-separated write in issue order.
type IssuedWrite struct {
	Page int64
	Ver  int64
}

// OrderingChecker audits the barrier contract over the §4.1 codelet: the
// recovered image must correspond to a *prefix* of the barrier-separated
// write sequence — if a later write survived, every earlier write's page
// must be at least as new as its last write at or before that point.
type OrderingChecker struct {
	FS     *fs.FS
	File   string
	Pages  int64 // file pages; page 0 is the untouched anchor
	Issued []IssuedWrite
}

// Name implements Checker.
func (c *OrderingChecker) Name() string { return "ordering" }

// Check implements Checker.
func (c *OrderingChecker) Check(st *State) []Violation {
	root, ok := st.View.Root(c.FS)
	if !ok {
		return nil // nothing durable at all: trivially ordered
	}
	meta, ok := st.View.Lookup(root, c.File)
	if !ok {
		return nil
	}
	// Map each page's recovered version to its index in the issue sequence.
	verToIdx := make(map[int64]int, len(c.Issued))
	for i, w := range c.Issued {
		verToIdx[w.Ver] = i
	}
	recovered := make(map[int64]int64) // page -> version
	cut := -1                          // newest surviving write's issue index
	for i := int64(1); i < c.Pages; i++ {
		ver, ok := st.View.PageVersion(meta, i)
		if !ok {
			continue
		}
		recovered[i] = ver
		if idx, ok := verToIdx[ver]; ok && idx > cut {
			cut = idx
		}
	}
	if cut < 0 {
		return nil // only the preallocation image survived
	}
	lastBefore := make(map[int64]int64)
	for i := 0; i <= cut; i++ {
		lastBefore[c.Issued[i].Page] = c.Issued[i].Ver
	}
	var out []Violation
	for page := int64(1); page < c.Pages; page++ {
		want, checked := lastBefore[page]
		if !checked {
			continue
		}
		got, ok := recovered[page]
		if !ok || got < want {
			out = append(out, Violation{Kind: KindOrdering,
				Detail: fmt.Sprintf("write #%d (page %d v%d) durable, but page %d recovered v%d/%v < barrier-ordered v%d",
					cut, c.Issued[cut].Page, c.Issued[cut].Ver, page, got, ok, want)})
		}
	}
	return out
}

// JournalChecker audits journal-replay reach: recovery must replay every
// transaction a durability wait acknowledged before the crash. Under
// barrier mounts the ack implies the transaction is physically durable and
// the check can never fire; under nobarrier mounts the ack is issued at
// transfer, and crash states where any of the transaction's blocks were
// lost expose the false ack.
type JournalChecker struct {
	J *jbd.Journal
}

// Name implements Checker.
func (c *JournalChecker) Name() string { return "journal" }

// Check implements Checker.
func (c *JournalChecker) Check(st *State) []Violation {
	acked := c.J.AckedDurable()
	if acked == 0 {
		return nil
	}
	rec := st.View.Journal()
	last := rec.TailTxn - 1 // checkpointed ids count as replayed
	if n := len(rec.Applied); n > 0 {
		last = rec.Applied[n-1]
	}
	if last >= acked {
		return nil
	}
	return []Violation{{Kind: KindDurability,
		Detail: fmt.Sprintf("journal txn %d acknowledged durable but replay reaches only txn %d (tail %d, %d incomplete)",
			acked, last, rec.TailTxn, rec.Incomplete)}}
}

// FSChecker audits metadata self-consistency of the recovered image: the
// recovered root must be a directory and every directory entry must
// resolve to recoverable inode metadata. Journal atomicity makes these
// hold on a correct stack in every admissible state; a failure means a
// transaction tore.
type FSChecker struct {
	FS *fs.FS
}

// Name implements Checker.
func (c *FSChecker) Name() string { return "fs" }

// Check implements Checker.
func (c *FSChecker) Check(st *State) []Violation {
	root, ok := st.View.Root(c.FS)
	if !ok {
		return nil // nothing recovered: trivially consistent
	}
	var out []Violation
	if !root.Dir {
		out = append(out, Violation{Kind: KindConsistency,
			Detail: "recovered root is not a directory"})
	}
	names := make([]string, 0, len(root.Entries))
	for name := range root.Entries {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if _, ok := st.View.Lookup(root, name); !ok {
			out = append(out, Violation{Kind: KindConsistency,
				Detail: fmt.Sprintf("dir entry %q resolves to no recoverable inode metadata", name)})
		}
	}
	return out
}

// KVChecker audits the kvwal application contract via the store's own
// recovery and audit (internal/kvwal/recovery.go): acknowledged-durable
// mutations must survive, and on barrier engines the surviving WAL records
// must form a group-granularity prefix of the committed history.
type KVChecker struct {
	Store *kvwal.Store
}

// Name implements Checker.
func (c *KVChecker) Name() string { return "kvwal" }

// Check implements Checker. A nil Store means the crash landed inside
// Open: nothing was ever acknowledged, so every image is trivially clean.
func (c *KVChecker) Check(st *State) []Violation {
	if c.Store == nil {
		return nil
	}
	return c.CheckRecovered(c.Store.Recover(st.View))
}

// CheckRecovered audits an already-reconstructed store image. Checkers
// that read the Recovered value themselves (ClusterChecker's routing
// audit, RebalanceChecker's coverage audit) use this to avoid running the
// recovery scan twice.
func (c *KVChecker) CheckRecovered(rec kvwal.Recovered) []Violation {
	durability, ordering := c.Store.Audit(rec)
	out := make([]Violation, 0, len(durability)+len(ordering))
	for _, d := range durability {
		out = append(out, Violation{Kind: KindDurability, Detail: d})
	}
	for _, o := range ordering {
		out = append(out, Violation{Kind: KindOrdering, Detail: o})
	}
	return out
}
