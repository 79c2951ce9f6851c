// Package oltp is a MySQL/InnoDB-flavored OLTP engine reproducing the IO
// pattern of sysbench OLTP-insert (Fig. 15): each transaction appends a
// redo-log record and fsyncs it (innodb_flush_log_at_trx_commit=1), appends
// a binlog record and fsyncs that too (sync_binlog=1), while dirty table
// pages flush in the background through a doublewrite-style batch. With 90%
// of TPC-C IO being fsync-driven log writes (§5), the sync primitive
// dominates throughput.
package oltp

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/fs"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// Config parameterizes the engine.
type Config struct {
	Clients    int
	TablePages int
	Seed       int64
}

// flushEvery is the background checkpoint: commits per table-page flush.
const flushEvery = 64

// DefaultConfig returns the Fig. 15 OLTP-insert setup.
func DefaultConfig() Config {
	return Config{Clients: 8, TablePages: 512, Seed: 3}
}

// Stats are cumulative engine statistics.
type Stats struct {
	Commits    int64
	LogSyncs   int64
	PageFlushs int64
}

// Engine is one database instance.
type Engine struct {
	s   *core.Stack
	cfg Config

	redo    *fs.Inode
	binlog  *fs.Inode
	table   *fs.Inode
	redoPos int64
	binPos  int64

	sinceFlush int
	stats      Stats
}

// Open creates the database files.
func Open(p *sim.Proc, s *core.Stack, cfg Config) (*Engine, error) {
	e := &Engine{s: s, cfg: cfg}
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
	for i := 0; i < cfg.TablePages; i++ {
		s.FS.Write(p, e.table, int64(i))
	}
	s.FS.SyncFS(p)
	return e, nil
}

// Stats returns cumulative statistics.
func (e *Engine) Stats() Stats { return e.stats }

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
	fsys.Write(p, e.table, int64(rng.Intn(e.cfg.TablePages)))
	// Binlog: append + sync.
	fsys.Write(p, e.binlog, e.binPos%2048)
	e.binPos++
	e.s.Sync(p, e.binlog)
	e.stats.LogSyncs++
	e.stats.Commits++
	e.sinceFlush++
	if e.sinceFlush >= flushEvery {
		e.sinceFlush = 0
		fsys.WritebackAsync(p, e.table)
		e.stats.PageFlushs++
	}
}

// BenchResult is the outcome of one OLTP run.
type BenchResult struct {
	Clients  int
	Commits  int64
	Window   sim.Duration
	TxPerSec float64
	// Latency summarizes per-transaction commit latency on the shared
	// internal/metrics histogram, so oltp rows compare directly with
	// sqlmini and kvwal output.
	Latency metrics.Summary
}

func (r BenchResult) String() string {
	return fmt.Sprintf("oltp-insert %2d clients %9.0f Tx/s p50=%.3fms p99=%.3fms",
		r.Clients, r.TxPerSec, r.Latency.Median, r.Latency.P99)
}

// Bench drives concurrent insert clients for the given duration.
func Bench(k *sim.Kernel, s *core.Stack, cfg Config, duration sim.Duration) BenchResult {
	var eng *Engine
	ready := false
	commits := int64(0)
	measuring := false
	rec := metrics.NewLatencyRecorder("oltp/" + s.Profile.Name)
	k.Spawn("oltp/setup", func(p *sim.Proc) {
		var err error
		eng, err = Open(p, s, cfg)
		if err != nil {
			panic(err)
		}
		ready = true
	})
	for c := 0; c < cfg.Clients; c++ {
		c := c
		k.SpawnIdx("oltp/client", c, func(p *sim.Proc) {
			rng := rand.New(rand.NewSource(cfg.Seed + int64(c)))
			for !ready {
				p.Sleep(sim.Millisecond)
			}
			for {
				t0 := p.Now()
				eng.Insert(p, rng)
				if measuring {
					commits++
					rec.Record(sim.Duration(p.Now() - t0))
				}
			}
		})
	}
	k.RunUntil(k.Now().Add(50 * sim.Millisecond))
	measuring = true
	start := k.Now()
	k.RunUntil(start.Add(duration))
	measuring = false
	end := k.Now()
	return BenchResult{
		Clients:  cfg.Clients,
		Commits:  commits,
		Window:   sim.Duration(end - start),
		TxPerSec: float64(commits) / sim.Duration(end-start).Seconds(),
		Latency:  rec.Summarize(),
	}
}
