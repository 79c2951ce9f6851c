// Package sqlmini is a compact SQLite-workalike embedded store built on the
// filesystem layer, faithful to the IO pattern the paper analyzes (§5): in
// the default PERSIST rollback-journal mode a single insert transaction
// issues four fdatasync() calls, three of which exist purely to control
// storage order — the undo log before the journal header, the header before
// the database update, the update before the header reset. Those three can
// become fdatabarrier() without weakening transaction durability; relaxing
// the fourth too gives the ordering-only configurations (BFS-OD, EXT4-OD).
// WAL mode appends log frames and issues one sync per commit. Bench's
// warm-up and window are workload.Meter's.
package sqlmini

import (
	"math/rand"

	"repro/internal/core"
	"repro/internal/fs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// JournalMode selects the SQLite journaling strategy.
type JournalMode int

// Journal modes.
const (
	// Persist is the rollback-journal mode with journal_mode=PERSIST: the
	// journal file is kept and its header zeroed after commit (the default
	// on Android per the paper).
	Persist JournalMode = iota
	// WAL is write-ahead-log mode: one sync per commit.
	WAL
)

func (m JournalMode) String() string {
	if m == WAL {
		return "wal"
	}
	return "persist"
}

// Durability selects how the final sync of a transaction is issued.
type Durability int

// Durability levels.
const (
	// Durable keeps the transaction durable at commit: the last sync is
	// fdatasync (BFS-DR replaces only the first three with barriers).
	Durable Durability = iota
	// OrderingOnly relaxes durability: every sync becomes the ordering
	// primitive (fdatabarrier / osync / nobarrier-fdatasync).
	OrderingOnly
)

// Config parameterizes a database instance.
type Config struct {
	Mode       JournalMode
	Durability Durability
}

const (
	tablePages = 128 // size of the b-tree page pool an insert touches
	seed       = 11  // seeds a DB's victim-page stream
)

// DefaultConfig returns the paper's SQLite setup.
func DefaultConfig(mode JournalMode, dur Durability) Config {
	return Config{Mode: mode, Durability: dur}
}

// Stats are cumulative database statistics.
type Stats struct {
	Inserts      int64
	SyncCalls    int64
	BarrierCalls int64
}

// DB is one open database.
type DB struct {
	s   *core.Stack
	cfg Config
	rng *rand.Rand

	dbFile  *fs.Inode
	journal *fs.Inode // rollback journal or WAL
	walHead int64     // next WAL frame index

	stats Stats
}

// Open creates the database files and prepares the page pool.
func Open(p *sim.Proc, s *core.Stack, name string, cfg Config) (*DB, error) {
	db := &DB{s: s, cfg: cfg, rng: rand.New(rand.NewSource(seed))}
	var err error
	if db.dbFile, err = s.FS.Create(p, s.FS.Root(), name+".db"); err != nil {
		return nil, err
	}
	suffix := "-journal"
	if cfg.Mode == WAL {
		suffix = "-wal"
	}
	if db.journal, err = s.FS.Create(p, s.FS.Root(), name+suffix); err != nil {
		return nil, err
	}
	// Lay down the table pages (page 0 is the database header).
	for i := 0; i <= tablePages; i++ {
		s.FS.Write(p, db.dbFile, int64(i))
	}
	// Reserve journal space: header + a few record pages.
	for i := 0; i < 8; i++ {
		s.FS.Write(p, db.journal, int64(i))
	}
	s.FS.SyncFS(p)
	return db, nil
}

// Stats returns cumulative statistics.
func (db *DB) Stats() Stats { return db.stats }

// orderSync issues an ordering-only sync: the paper's replacement for the
// first three fdatasync calls of a PERSIST transaction. On BarrierFS this
// is fdatabarrier (regardless of the durability profile — the paper keeps
// only the *fourth* sync durable); on EXT4, Fdatabarrier degrades to
// fdatasync, reproducing the baseline cost.
func (db *DB) orderSync(p *sim.Proc, f *fs.Inode) {
	db.stats.BarrierCalls++
	db.s.FS.Fdatabarrier(p, f)
}

// commitSync issues the durability sync terminating a transaction (kept as
// a real fdatasync under Durable).
func (db *DB) commitSync(p *sim.Proc, f *fs.Inode) {
	db.stats.SyncCalls++
	if db.cfg.Durability == OrderingOnly {
		db.s.Datasync(p, f)
		return
	}
	db.s.FS.Fdatasync(p, f)
}

// Insert runs one insert transaction, following §5's accounting: PERSIST
// mode makes four sync calls (three ordering, one durability); WAL mode
// makes one.
func (db *DB) Insert(p *sim.Proc) {
	switch db.cfg.Mode {
	case WAL:
		db.insertWAL(p)
	default:
		db.insertPersist(p)
	}
	db.stats.Inserts++
}

func (db *DB) insertPersist(p *sim.Proc) {
	fsys := db.s.FS
	victim := int64(1 + db.rng.Intn(tablePages))
	// 1. Write the undo image of the victim page into the journal, then
	//    order it before the journal header.
	fsys.Write(p, db.journal, 1)
	db.orderSync(p, db.journal) // fdatasync #1
	// 2. Update the journal header (record count), ordered before the
	//    database page update.
	fsys.Write(p, db.journal, 0)
	db.orderSync(p, db.journal) // fdatasync #2
	// 3. Update the b-tree page and the database header, ordered before the
	//    journal reset.
	fsys.Write(p, db.dbFile, victim)
	fsys.Write(p, db.dbFile, 0)
	db.orderSync(p, db.dbFile) // fdatasync #3
	// 4. Reset (zero) the journal header: the commit point. Durability of
	//    the transaction hangs on this sync.
	fsys.Write(p, db.journal, 0)
	db.commitSync(p, db.journal) // fdatasync #4
}

func (db *DB) insertWAL(p *sim.Proc) {
	fsys := db.s.FS
	// Append the changed page and a commit frame to the WAL.
	fsys.Write(p, db.journal, db.walHead)
	fsys.Write(p, db.journal, db.walHead+1)
	db.walHead += 2
	db.commitSync(p, db.journal)
	// Checkpoint periodically: fold the WAL back into the database.
	if db.walHead >= 256 {
		db.checkpointWAL(p)
	}
}

func (db *DB) checkpointWAL(p *sim.Proc) {
	fsys := db.s.FS
	for i := 0; i < 16; i++ {
		fsys.Write(p, db.dbFile, int64(1+db.rng.Intn(tablePages)))
	}
	db.commitSync(p, db.dbFile)
	db.walHead = 0
}

// Bench drives inserts from a single connection for the given duration: Ops
// counts inserts, Latency is per transaction, comparable with oltp and kvwal.
func Bench(k *sim.Kernel, s *core.Stack, cfg Config, duration sim.Duration) workload.Window {
	var m workload.Meter
	k.Spawn("sqlite", func(p *sim.Proc) {
		db, err := Open(p, s, "bench", cfg)
		if err != nil {
			panic(err)
		}
		for {
			t0 := p.Now()
			db.Insert(p)
			m.Timed(p, t0, 1)
		}
	})
	workload.Warm(k, 30*sim.Millisecond, nil) // through Open plus a few transactions
	return m.Measure(k, duration)
}
