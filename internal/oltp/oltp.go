// Package oltp is a MySQL/InnoDB-flavored OLTP engine reproducing the IO
// pattern of sysbench OLTP-insert (Fig. 15): each transaction appends a
// redo-log record and fsyncs it (innodb_flush_log_at_trx_commit=1), appends
// a binlog record and fsyncs that too (sync_binlog=1), while dirty table
// pages flush in the background through a doublewrite-style batch. With 90%
// of TPC-C IO being fsync-driven log writes (§5), the sync primitive
// dominates throughput. Bench's warm-up and window are workload.Meter's.
package oltp

import (
	"math/rand"

	"repro/internal/block"
	"repro/internal/core"
	"repro/internal/fs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Config parameterizes Bench.
type Config struct {
	Clients int
}

const (
	flushEvery = 64  // the background checkpoint: commits per table-page flush
	tablePages = 512 // table size an insert dirties one page of
	benchSeed  = 3   // Bench's client c draws pages from seed benchSeed+c
)

// DefaultConfig returns the Fig. 15 OLTP-insert setup.
func DefaultConfig() Config {
	return Config{Clients: 8}
}

// Stats are cumulative engine statistics.
type Stats struct {
	Commits    int64
	LogSyncs   int64
	PageFlushs int64
}

// Engine is one database instance.
type Engine struct {
	s *core.Stack

	redo    *fs.Inode
	binlog  *fs.Inode
	table   *fs.Inode
	redoPos int64
	binPos  int64

	sinceFlush int
	stats      Stats
}

// Open creates the database files.
func Open(p *sim.Proc, s *core.Stack) (*Engine, error) {
	e := &Engine{s: s}
	var err error
	if e.redo, err = s.FS.Create(p, s.FS.Root(), "ib_logfile0"); err != nil {
		return nil, err
	}
	if e.binlog, err = s.FS.Create(p, s.FS.Root(), "binlog.000001"); err != nil {
		return nil, err
	}
	if e.table, err = s.FS.Create(p, s.FS.Root(), "sbtest.ibd"); err != nil {
		return nil, err
	}
	for i := 0; i < tablePages; i++ {
		s.FS.Write(p, e.table, int64(i))
	}
	s.FS.SyncFS(p)
	return e, nil
}

// Insert runs one insert transaction: redo-log append + sync, table page
// dirtying, binlog append + sync, periodic background page flush.
func (e *Engine) Insert(p *sim.Proc, rng *rand.Rand) {
	fsys := e.s.FS
	// Redo log: append + group-commit sync.
	fsys.Write(p, e.redo, e.redoPos%2048)
	e.redoPos++
	e.s.Sync(p, e.redo) // fsync or fbarrier per profile
	e.stats.LogSyncs++
	// Dirty a table page (stays in cache until background flush).
	fsys.Write(p, e.table, int64(rng.Intn(tablePages)))
	// Binlog: append + sync.
	fsys.Write(p, e.binlog, e.binPos%2048)
	e.binPos++
	e.s.Sync(p, e.binlog)
	e.stats.LogSyncs++
	e.stats.Commits++
	e.sinceFlush++
	if e.sinceFlush >= flushEvery {
		e.sinceFlush = 0
		fsys.WritebackAsync(p, e.table, block.RoleBackground)
		e.stats.PageFlushs++
	}
}

// Bench drives concurrent insert clients for the given duration. Ops counts
// commits; Latency is per-transaction commit latency from the shared meter,
// so oltp rows compare directly with sqlmini and kvwal output.
func Bench(k *sim.Kernel, s *core.Stack, cfg Config, duration sim.Duration) workload.Window {
	var eng *Engine
	ready := false
	var m workload.Meter
	k.Spawn("oltp/setup", func(p *sim.Proc) {
		var err error
		eng, err = Open(p, s)
		if err != nil {
			panic(err)
		}
		ready = true
	})
	for c := 0; c < cfg.Clients; c++ {
		c := c
		k.SpawnIdx("oltp/client", c, func(p *sim.Proc) {
			rng := rand.New(rand.NewSource(benchSeed + int64(c)))
			for !ready {
				p.Sleep(sim.Millisecond)
			}
			for {
				t0 := p.Now()
				eng.Insert(p, rng)
				m.Timed(p, t0, 1)
			}
		})
	}
	workload.Warm(k, 50*sim.Millisecond, nil)
	return m.Measure(k, duration)
}
