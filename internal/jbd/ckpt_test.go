package jbd

import (
	"testing"

	"repro/internal/block"
	"repro/internal/device"
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
// 64 fsync-style commits fill a checkpoint batch; while the checkpoint's
// second flush, the one that programs the in-place copies, is in service,
// another caller fsyncs. Its commit must not queue behind that flush: on
// BFS-DR its JC, an ordered barrier write, completes before the flush does.
// On EXT4-DR the JC carries FLUSH|FUA, whose own flush drains the same
// cache, so the request that must get past is the JD: its transfer
// completes before the checkpoint flush does. The dispatch log shows every
// checkpoint request, both flushes, the home writes and the superblock, on
// the derived stream and none on the journal's.
func TestCheckpointOffCommitPath(t *testing.T) {
	const homes = 16
	for _, mode := range []Mode{ModeDual, ModeJBD2} {
		t.Run(mode.String(), func(t *testing.T) {
			k := sim.NewKernel()
			defer k.Close()
			dev := device.New(k, device.PlainSSD())
			l := block.NewLayer(k, dev, block.NewEpochScheduler(block.NewNOOP()),
				block.LayerConfig{DispatchOverhead: 2 * sim.Microsecond, Trace: true})
			cfg := DefaultConfig(mode)
			ckpt := block.CheckpointStream(cfg.Stream)
			sh := &recorder{Submitter: l, k: k}
			j := New(k, sh, cfg)
			k.Spawn("fill", func(p *sim.Proc) {
				for i := 0; i < 64; i++ {
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
				if ckptIO && d.Stream != ckpt {
					t.Errorf("checkpoint write to LPA %d dispatched on stream %d, want %d", d.LPA, d.Stream, ckpt)
				}
				if d.Stream == ckpt {
					if d.Op == block.OpFlush {
						flushes++
					} else if !ckptIO {
						t.Errorf("%v to LPA %d rode the checkpoint stream", d.Op, d.LPA)
					}
				}
			}
			if flushes != 2 {
				t.Errorf("%d flushes on the checkpoint stream, want the checkpoint's 2", flushes)
			}
		})
	}
}
