package fs

import (
	"repro/internal/jbd"
)

// Recovery builds a read-only view of the filesystem as it would be
// reconstructed after a crash: journal replay (jbd.Scan) overlaid on the
// in-place metadata, with file contents read from the durable device state.
// Crash-consistency tests use it to check the fsync/fbarrier contracts.

// View is a recovered, read-only filesystem image.
type View struct {
	read    jbd.ReadFn
	journal jbd.Recovered
	metas   map[uint64]InodeMeta // home LPA -> effective metadata
}

// Recover scans the journal and reconstructs the filesystem image.
// read must return durable page contents (e.g. device.DurableData).
func Recover(read jbd.ReadFn, jcfg jbd.Config) *View {
	v := &View{read: read, metas: make(map[uint64]InodeMeta)}
	v.journal = jbd.Scan(read, jcfg)
	return v
}

// Journal returns the journal scan outcome.
func (v *View) Journal() jbd.Recovered { return v.journal }

// metaAt returns the effective metadata for an inode home LPA: the newest
// replayed journal copy, else the in-place copy, copied out of the record.
func (v *View) metaAt(home uint64) (InodeMeta, bool) {
	if d, ok := v.journal.State[home]; ok {
		if m, ok := d.(*InodeMeta); ok {
			return *m, true
		}
	}
	if d, ok := v.read(home); ok {
		if m, ok := d.(*InodeMeta); ok {
			return *m, true
		}
	}
	return InodeMeta{}, false
}

// Root returns the recovered root directory metadata. The root inode's home
// is deterministic: the first LPA after the allocator block.
func (v *View) Root(f *FS) (InodeMeta, bool) {
	return v.metaAt(f.root.home)
}

// Lookup resolves a name in a recovered directory to the child's metadata.
func (v *View) Lookup(dir InodeMeta, name string) (InodeMeta, bool) {
	h, ok := dir.Entries[name]
	if !ok {
		return InodeMeta{}, false
	}
	return v.metaAt(h)
}

// MetaByHome returns the recovered metadata for an inode home LPA.
func (v *View) MetaByHome(home uint64) (InodeMeta, bool) { return v.metaAt(home) }

// PageVersion returns the durable content version of a file page, checking
// the journal overlay first (data-journal mode logs data pages), then the
// in-place block.
func (v *View) PageVersion(m InodeMeta, idx int64) (int64, bool) {
	if idx >= int64(len(m.Blocks)) || m.Blocks[idx] == 0 {
		return 0, false
	}
	lpa := m.Blocks[idx]
	if d, ok := v.journal.State[lpa]; ok {
		if pd, ok := d.(*PageData); ok {
			return pd.Ver, true
		}
	}
	d, ok := v.read(lpa)
	if !ok {
		return 0, false
	}
	pd, ok := d.(*PageData)
	if !ok {
		return 0, false
	}
	return pd.Ver, true
}
