package jbd

import (
	"testing"

	"repro/internal/block"
	"repro/internal/device"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// ioRec is one request a journal submitted: its payload and the instants
// it was submitted and completed.
type ioRec struct {
	data      any
	sub, done sim.Time
}

// recorder is the block.Submitter a journal under test mounts on: it logs
// every request with its submission and completion instants, and tracks
// the flushes the checkpointer issues, on whatever stream.
type recorder struct {
	block.Submitter
	k         *sim.Kernel
	log       []*ioRec
	ckptFlush []*ioRec // the checkpointer's flushes, in submission order
	inFlight  bool     // the newest of them has not completed
}

func (s *recorder) rec(r *block.Request) *ioRec {
	e := &ioRec{data: r.Data, sub: s.k.Now()}
	s.log = append(s.log, e)
	return e
}

func (s *recorder) Submit(p *sim.Proc, r *block.Request) {
	e := s.rec(r)
	next := r.OnComplete
	r.OnComplete = func(at sim.Time, r *block.Request) {
		e.done = at
		if next != nil {
			next(at, r)
		}
	}
	s.Submitter.Submit(p, r)
}

func (s *recorder) SubmitAndWait(p *sim.Proc, r *block.Request) {
	e := s.rec(r)
	ckpt := r.Op == block.OpFlush && p.Name() == "jbd/checkpoint"
	if ckpt {
		s.ckptFlush = append(s.ckptFlush, e)
		s.inFlight = true
	}
	s.Submitter.SubmitAndWait(p, r)
	e.done = p.Now()
	if ckpt {
		s.inFlight = false
	}
}

// txnWrite returns the logged write of txn id's commit block (jc) or
// descriptor block.
func txnWrite(log []*ioRec, id uint64, jc bool) *ioRec {
	for _, e := range log {
		switch d := e.data.(type) {
		case *DescBlock:
			if !jc && d.TxnID == id {
				return e
			}
		case *CommitBlock:
			if jc && d.TxnID == id {
				return e
			}
		}
	}
	return nil
}

// TestCheckpointOffCommitPath pins the checkpointer's own ordering domain
// on the plain SSD, whose flush programs the cache for a whole TLC program.
// 64 fsync-style commits of one block each fill a journal sized so that the
// 64th commit's reservation (descriptor, log block, commit record) takes
// free space below CheckpointLow, which starts the checkpoint; while its
// second flush, the one that programs the in-place copies, is in service,
// another caller fsyncs. Its commit must not queue behind that flush: on
// BFS-DR its JC, an ordered barrier write, completes before the flush does.
// On EXT4-DR the JC carries FLUSH|FUA, whose own flush drains the same
// cache, so the request that must get past is the JD: its transfer
// completes before the checkpoint flush does. The dispatch log shows every
// checkpoint request, both flushes, the home writes and the superblock, in
// block.RoleCheckpoint, on a domain other than the journal's stream, and
// no other request in that role.
func TestCheckpointOffCommitPath(t *testing.T) {
	const homes, commits = 16, 64
	for _, mode := range []Mode{ModeDual, ModeJBD2} {
		t.Run(mode.String(), func(t *testing.T) {
			k := sim.NewKernel()
			defer k.Close()
			dev := device.New(k, device.PlainSSD())
			l := block.NewLayer(k, dev, block.NewEpochScheduler(block.NewNOOP()),
				block.LayerConfig{DispatchOverhead: 2 * sim.Microsecond, Trace: true})
			cfg := DefaultConfig(mode)
			cfg.CheckpointLow = 16
			cfg.Pages = cfg.CheckpointLow + 3*commits - 1
			sh := &recorder{Submitter: l, k: k}
			j := New(k, sh, cfg)
			k.Spawn("fill", func(p *sim.Proc) {
				for i := 0; i < commits; i++ {
					j.DirtyBuffer(p, &Buffer{Home: uint64(20000 + i%homes)}, i)
					j.CommitAndWait(p)
				}
			})
			var fsync *Txn
			var during *ioRec
			k.Spawn("fsync", func(p *sim.Proc) {
				// Until the second checkpoint flush has been in service a while.
				for len(sh.ckptFlush) < 2 || !sh.inFlight || p.Now() < sh.ckptFlush[1].sub.Add(50*sim.Microsecond) {
					p.Sleep(5 * sim.Microsecond)
				}
				during = sh.ckptFlush[1]
				j.DirtyBuffer(p, &Buffer{Home: 30000}, "fsync")
				fsync = j.CommitAndWait(p)
			})
			k.Run()
			if fsync == nil {
				t.Fatal("the fsync never returned")
			}
			if n := j.Stats().Checkpoints; n != 1 {
				t.Fatalf("%d checkpoints, want 1", n)
			}
			got, what := txnWrite(sh.log, fsync.id, true), "JC"
			if mode == ModeJBD2 {
				got, what = txnWrite(sh.log, fsync.id, false), "JD"
			}
			if got == nil || got.done == 0 {
				t.Fatalf("the fsync's %s was never completed", what)
			}
			t.Logf("checkpoint flush %v..%v, fsync's %s %v..%v", during.sub, during.done, what, got.sub, got.done)
			if got.done >= during.done {
				t.Errorf("the fsync's %s completed at %v, not before the checkpoint flush in service (done %v)",
					what, got.done, during.done)
			}
			var flushes int
			for _, d := range l.DispatchLog() {
				ckptIO := d.Op == block.OpWrite && (d.LPA == cfg.SuperLPA || d.LPA >= 20000 && d.LPA < 20000+homes)
				if ckptIO && d.Role != block.RoleCheckpoint {
					t.Errorf("checkpoint write to LPA %d dispatched in role %d", d.LPA, d.Role)
				}
				if d.Role == block.RoleCheckpoint {
					if d.Stream == cfg.Stream {
						t.Errorf("checkpoint %v to LPA %d rode the journal's stream", d.Op, d.LPA)
					}
					if d.Op == block.OpFlush {
						flushes++
					} else if !ckptIO {
						t.Errorf("%v to LPA %d rode the checkpoint role", d.Op, d.LPA)
					}
				}
			}
			if flushes != 2 {
				t.Errorf("%d checkpoint-role flushes, want the checkpoint's 2", flushes)
			}
		})
	}
}

// TestCheckpointOnlyUnderSpacePressure pins the checkpoint cadence on the
// default journal (8 192 pages, CheckpointLow 2 048), as jbd2 runs it: only
// a reservation that takes free pages below the low-water mark starts a
// checkpoint. A single-block commit takes three pages, so the first 2 048
// fsyncs leave exactly CheckpointLow free and run none; the next one runs
// exactly one, which writes home every transaction retired by then. Over
// the steady fsync loop after it no commit waits for space, and the
// registry counters show the same cadence as Stats.
func TestCheckpointOnlyUnderSpacePressure(t *testing.T) {
	for _, mode := range []Mode{ModeJBD2, ModeNobarrier, ModeDual, ModeOptFS} {
		t.Run(mode.String(), func(t *testing.T) {
			k := sim.NewKernel()
			defer k.Close()
			l := block.NewLayer(k, device.New(k, device.UFS()), block.NewEpochScheduler(block.NewNOOP()),
				block.LayerConfig{DispatchOverhead: sim.Microsecond})
			reg := metrics.NewRegistry()
			cfg := DefaultConfig(mode)
			cfg.Metrics = reg
			j := New(k, l, cfg)
			// above commits leave free pages at or above the mark; in the
			// steady loop commits above+1, 2*above+1 and 3*above+1 cross it.
			above := (cfg.Pages - cfg.CheckpointLow) / 3
			steady := 3*above + 1
			k.Spawn("fsync", func(p *sim.Proc) {
				commit := func(i int) {
					j.DirtyBuffer(p, &Buffer{Home: uint64(20000 + i%16)}, i)
					j.CommitAndWait(p)
				}
				for i := 0; i < above; i++ {
					commit(i)
				}
				p.Sleep(20 * sim.Millisecond) // room for a checkpoint a count would start
				if n := j.Stats().Checkpoints; n != 0 || j.FreePages() != cfg.CheckpointLow {
					t.Errorf("%d checkpoints with %d pages free, want none at CheckpointLow (%d)",
						n, j.FreePages(), cfg.CheckpointLow)
				}
				commit(above)
				p.Sleep(20 * sim.Millisecond) // the checkpoint completes
				if n := j.Stats().Checkpoints; n != 1 {
					t.Errorf("%d checkpoints after the first reservation below the mark, want 1", n)
				}
				if n := reg.Counter("jbd/ckpt.txns").Value(); n != int64(above) {
					t.Errorf("jbd/ckpt.txns = %d, want the %d transactions retired before it", n, above)
				}
				for i := above + 1; i < steady; i++ {
					commit(i)
				}
				p.Sleep(20 * sim.Millisecond)
			})
			k.Run()
			s := j.Stats()
			if s.CheckpointForce != 0 || reg.Counter("jbd/ckpt.force").Value() != 0 {
				t.Errorf("%d commits (jbd/ckpt.force %d) waited for journal space in a steady fsync loop, want 0",
					s.CheckpointForce, reg.Counter("jbd/ckpt.force").Value())
			}
			// Each checkpoint frees what the commits before it took, so the
			// next comes another `above` commits on.
			if s.Checkpoints != 3 || reg.Counter("jbd/checkpoints").Value() != 3 {
				t.Errorf("%d checkpoints over %d fsyncs, want 3: one per %d commits", s.Checkpoints, steady, above)
			}
			t.Logf("%d commits, %d checkpoints, %d transactions checkpointed",
				s.Commits, s.Checkpoints, reg.Counter("jbd/ckpt.txns").Value())
		})
	}
}

// TestRetiredTxnKeepsItsWaiters pins that recycling a transaction's scratch
// when it retires loses no waiter. A transaction can retire before it is
// durable, and a proc parked on it must resume when it becomes durable,
// not before and not never, while the next transactions take the recycled
// scratch and commit. A Dual-Mode ordering-only transaction retires at its
// JC transfer without a flush, and a later WaitTxn's own flush makes it
// durable. A nobarrier transaction retires at commit completion, and the
// checkpoint that writes it home makes it durable.
func TestRetiredTxnKeepsItsWaiters(t *testing.T) {
	// watch parks a proc on x until x is durable, once, and records x's
	// state when it resumed and whether a checkpoint was in flight.
	type seen struct {
		state   TxnState
		inCkpt  bool
		resumed bool
	}
	watch := func(h *harness, x *Txn, got *seen) {
		h.k.Spawn("watch", func(w *sim.Proc) {
			h.j.waiters = append(h.j.waiters, waiter{x, StateDurable, w})
			w.Suspend()
			*got = seen{x.state, h.j.ckptBusy, true}
		})
	}
	retired := func(t *testing.T, x *Txn, got seen) {
		if !x.retired || x.state != StateCommitted {
			t.Fatalf("precondition: txn %d retired %v in state %v, want retired while committed", x.id, x.retired, x.state)
		}
		if got.resumed {
			t.Fatalf("the waiter resumed with txn %d %v", x.id, got.state)
		}
	}

	t.Run("dual-ordering", func(t *testing.T) {
		h := newHarness(ModeDual)
		defer h.close()
		var got seen
		h.run(func(p *sim.Proc) {
			h.j.DirtyBuffer(p, &Buffer{Home: 2000}, "v1")
			x := h.j.CommitOrdering(p, false)
			watch(h, x, &got)
			for !x.retired {
				p.Sleep(sim.Microsecond)
			}
			for i := 0; i < 4; i++ {
				h.j.DirtyBuffer(p, &Buffer{Home: uint64(3000 + i)}, i)
				h.j.CommitAndWait(p)
			}
			retired(t, x, got)
			h.j.WaitTxn(p, x)
		})
		if !got.resumed {
			t.Fatal("the waiter never resumed")
		}
		if got.state != StateDurable {
			t.Errorf("the waiter resumed with the transaction %v, want durable", got.state)
		}
	})

	t.Run("nobarrier-checkpoint", func(t *testing.T) {
		h := newHarness(ModeNobarrier)
		defer h.close()
		var got seen
		h.run(func(p *sim.Proc) {
			b := &Buffer{Home: 2000}
			h.j.DirtyBuffer(p, b, "v1")
			committer := h.k.Spawn("committer", func(cp *sim.Proc) { h.j.CommitAndWait(cp) })
			p.Sleep(5 * sim.Microsecond) // let the commit freeze the buffer
			x := b.Frozen()
			if x == nil {
				t.Fatal("precondition: the commit did not freeze the buffer")
			}
			watch(h, x, &got)
			p.Join(committer)
			retired(t, x, got)
			for i := 0; h.j.Stats().Checkpoints == 0; i++ {
				h.j.DirtyBuffer(p, &Buffer{Home: uint64(3000 + i)}, i)
				h.j.CommitAndWait(p)
			}
		})
		if !got.resumed {
			t.Fatal("the waiter never resumed")
		}
		if got.state != StateDurable || !got.inCkpt {
			t.Errorf("the waiter resumed with the transaction %v (checkpoint in flight %v), want durable by the checkpoint",
				got.state, got.inCkpt)
		}
	})
}
