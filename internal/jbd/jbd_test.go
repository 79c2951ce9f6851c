package jbd

import (
	"reflect"
	"testing"

	"repro/internal/block"
	"repro/internal/device"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// harness builds kernel + device + block layer + journal.
type harness struct {
	k   *sim.Kernel
	dev *device.Device
	l   *block.Layer
	j   *Journal
}

func newHarness(mode Mode) *harness {
	k := sim.NewKernel()
	cfg := device.UFS()
	cfg.QueueDepth = 16
	cfg.DMAPerPage = 10 * sim.Microsecond
	cfg.CmdOverhead = 2 * sim.Microsecond
	dev := device.New(k, cfg)
	l := block.NewLayer(k, dev, block.NewEpochScheduler(block.NewNOOP()), block.LayerConfig{
		DispatchOverhead: sim.Microsecond,
	})
	jc := DefaultConfig(mode)
	jc.Pages = 128
	jc.CheckpointLow = 16
	j := New(k, l, jc)
	return &harness{k: k, dev: dev, l: l, j: j}
}

func (h *harness) run(body func(p *sim.Proc)) {
	h.k.Spawn("app", body)
	h.k.Run()
}

func (h *harness) close() { h.k.Close() }

func TestJBD2CommitDurable(t *testing.T) {
	h := newHarness(ModeJBD2)
	defer h.close()
	buf := &Buffer{Home: 2000, Name: "inode-1"}
	h.run(func(p *sim.Proc) {
		h.j.DirtyBuffer(p, buf, "v1")
		txn := h.j.CommitAndWait(p)
		if txn == nil || txn.state != StateDurable {
			t.Fatalf("txn state = %v", txn.state)
		}
	})
	if h.j.Stats().Commits != 1 {
		t.Errorf("commits = %d", h.j.Stats().Commits)
	}
	if h.j.Stats().Flushes == 0 {
		t.Error("JBD2 barrier commit should flush")
	}
	// The journal records must be durable on the device.
	rec := Scan(h.dev.DurableData, h.j.cfg)
	if len(rec.Applied) != 1 {
		t.Fatalf("recovered %d txns, want 1", len(rec.Applied))
	}
	if rec.State[2000] != "v1" {
		t.Errorf("recovered snapshot = %v", rec.State[2000])
	}
}

func TestJBD2NobarrierDoesNotFlush(t *testing.T) {
	h := newHarness(ModeNobarrier)
	defer h.close()
	buf := &Buffer{Home: 2000}
	h.run(func(p *sim.Proc) {
		h.j.DirtyBuffer(p, buf, "v1")
		txn := h.j.CommitAndWait(p)
		if txn.state != StateCommitted {
			t.Errorf("nobarrier txn state = %v, want committed", txn.state)
		}
	})
	if h.j.Stats().Flushes != 0 {
		t.Errorf("nobarrier mount flushed %d times", h.j.Stats().Flushes)
	}
}

func TestEmptyCommitDelimitsEpoch(t *testing.T) {
	h := newHarness(ModeDual)
	defer h.close()
	h.run(func(p *sim.Proc) {
		txn := h.j.CommitOrdering(p, true)
		if txn == nil {
			t.Fatal("forced empty commit returned nil")
		}
	})
	if h.j.Stats().EmptyCommits != 1 {
		t.Errorf("empty commits = %d", h.j.Stats().EmptyCommits)
	}
}

func TestDualModeConcurrentCommits(t *testing.T) {
	// fbarrier-style ordering commits must overlap: with 8 back-to-back
	// ordering commits, more than one transaction must be in the committing
	// state at once (Dual-Mode's defining property).
	h := newHarness(ModeDual)
	defer h.close()
	h.run(func(p *sim.Proc) {
		for i := 0; i < 8; i++ {
			buf := &Buffer{Home: uint64(2000 + i)}
			h.j.DirtyBuffer(p, buf, i)
			h.j.CommitOrdering(p, false)
		}
		// Drain: wait for the last txn durably via an fsync-style call.
		h.j.CommitAndWait(p)
	})
	if h.j.Stats().MaxCommitting < 2 {
		t.Errorf("max committing = %d; Dual mode should pipeline commits", h.j.Stats().MaxCommitting)
	}
	if h.j.Stats().Commits != 8 {
		t.Errorf("commits = %d", h.j.Stats().Commits)
	}
}

func TestDualOrderingReturnsBeforeDurable(t *testing.T) {
	h := newHarness(ModeDual)
	defer h.close()
	var orderingDone, jbd2Equivalent sim.Duration
	h.run(func(p *sim.Proc) {
		buf := &Buffer{Home: 2000}
		h.j.DirtyBuffer(p, buf, "x")
		t0 := p.Now()
		h.j.CommitOrdering(p, false)
		orderingDone = sim.Duration(p.Now() - t0)
	})
	h2 := newHarness(ModeJBD2)
	defer h2.close()
	h2.run(func(p *sim.Proc) {
		buf := &Buffer{Home: 2000}
		h2.j.DirtyBuffer(p, buf, "x")
		t0 := p.Now()
		h2.j.CommitAndWait(p)
		jbd2Equivalent = sim.Duration(p.Now() - t0)
	})
	if orderingDone*2 > jbd2Equivalent {
		t.Errorf("ordering commit (%v) not clearly faster than durable JBD2 commit (%v)",
			orderingDone, jbd2Equivalent)
	}
}

func TestDualFsyncDurable(t *testing.T) {
	h := newHarness(ModeDual)
	defer h.close()
	h.run(func(p *sim.Proc) {
		buf := &Buffer{Home: 2000}
		h.j.DirtyBuffer(p, buf, "precious")
		txn := h.j.CommitAndWait(p)
		if txn.state != StateDurable {
			t.Fatalf("state = %v", txn.state)
		}
		rec := Scan(h.dev.DurableData, h.j.cfg)
		if rec.State[2000] != "precious" {
			t.Errorf("journal content not durable after dual fsync: %v", rec.State[2000])
		}
	})
}

// A durability wait on a Dual-Mode ordering-only transaction that already
// left the committing list must flush: no engine flush will cover it, and
// with nothing else committed the wait has no other flush to ride.
func TestDualWaitOnRetiredOrderingTxnFlushes(t *testing.T) {
	h := newHarness(ModeDual)
	defer h.close()
	h.run(func(p *sim.Proc) {
		h.j.DirtyBuffer(p, &Buffer{Home: 2000}, "v1")
		txn := h.j.CommitOrdering(p, false)
		p.Sleep(100 * sim.Microsecond) // JC completes; the flush thread retires txn
		if !txn.jcTransferred || !txn.retired || txn.state != StateCommitted {
			t.Fatalf("precondition: jc=%v retired=%v state=%v", txn.jcTransferred, txn.retired, txn.state)
		}
		before := h.dev.Stats().Flushes
		h.j.WaitTxn(p, txn)
		if got := h.dev.Stats().Flushes; got == before {
			t.Errorf("WaitTxn acknowledged txn %d durable without a flush (device flushes stayed %d)", txn.id, got)
		}
		if h.j.AckedDurable() != txn.id {
			t.Errorf("acked durable = %d, want %d", h.j.AckedDurable(), txn.id)
		}
	})
}

// On every engine but Dual-Mode, a writer that redirties a buffer frozen in
// a committing transaction blocks until the holder releases it: a barrier
// JBD2 at its durable commit, a nobarrier mount and OptFS at commit
// completion, before any checkpoint or flush makes the holder durable.
func TestJBD2ConflictBlocksWriter(t *testing.T) {
	for _, c := range []struct {
		mode Mode
		at   TxnState // the holder's state when the writer resumes
	}{
		{ModeJBD2, StateDurable},
		{ModeNobarrier, StateCommitted},
		{ModeOptFS, StateCommitted},
	} {
		t.Run(c.mode.String(), func(t *testing.T) {
			h := newHarness(c.mode)
			defer h.close()
			buf := &Buffer{Home: 2000}
			var reachedAt, redirtyAt sim.Time
			got := StateRunning // the holder's state when the writer resumed
			h.run(func(p *sim.Proc) {
				h.j.DirtyBuffer(p, buf, "v1")
				committer := h.k.Spawn("committer", func(cp *sim.Proc) { h.j.CommitAndWait(cp) })
				p.Sleep(5 * sim.Microsecond) // let the commit freeze the buffer
				hold := buf.Frozen()
				if hold == nil {
					t.Error("precondition: the commit did not freeze the buffer")
					return
				}
				// The watcher parks on the holder's waiters directly, so it
				// wakes with no wake-up charge when the holder reaches c.at.
				h.k.Spawn("watch", func(wp *sim.Proc) {
					ws := &hold.waiters[c.at-StateCommitted]
					for hold.state < c.at {
						*ws = append(*ws, wp)
						wp.Suspend()
					}
					reachedAt = wp.Now()
				})
				h.j.DirtyBuffer(p, buf, "v2")
				redirtyAt, got = p.Now(), hold.state
				p.Join(committer)
			})
			if redirtyAt == 0 {
				t.Fatalf("writer never resumed; the holder reached %v at %v", c.at, reachedAt)
			}
			if got != c.at {
				t.Errorf("writer resumed with the holder %v, want %v", got, c.at)
			}
			if want := reachedAt.Add(h.j.cfg.WakeLatency); redirtyAt != want {
				t.Errorf("writer resumed at %v, want %v: one wake-up after the holder reached %v", redirtyAt, want, c.at)
			}
			if h.j.Stats().ConflictBlocks != 1 {
				t.Errorf("conflict blocks = %d, want 1", h.j.Stats().ConflictBlocks)
			}
		})
	}
}

func TestDualConflictParksWithoutBlocking(t *testing.T) {
	h := newHarness(ModeDual)
	defer h.close()
	buf := &Buffer{Home: 2000}
	h.run(func(p *sim.Proc) {
		h.j.DirtyBuffer(p, buf, "v1")
		h.j.CommitOrdering(p, false) // freezes buf in committing txn
		t0 := p.Now()
		h.j.DirtyBuffer(p, buf, "v2") // must park, not block
		if p.Now() != t0 {
			t.Error("dual-mode DirtyBuffer blocked on conflict")
		}
		if h.j.Stats().ConflictParked != 1 {
			t.Errorf("parked = %d", h.j.Stats().ConflictParked)
		}
		// The conflicted buffer lands in the running txn once the committing
		// transaction retires; committing it must produce v2 in the journal.
		h.j.CommitAndWait(p)
		if len(h.j.running.buffers) != 0 {
			// Buffer should have been committed by now (conflict resolved
			// before the second commit closed).
			t.Logf("note: buffer still running; conflict resolved later")
		}
		h.j.CommitAndWait(p)
		rec := Scan(h.dev.DurableData, h.j.cfg)
		if rec.State[2000] != "v2" {
			t.Errorf("final recovered value = %v, want v2", rec.State[2000])
		}
	})
}

// Dual-Mode's commit thread waits for the conflict-page list only until the
// holder's JC is transferred, never for its flush: a buffer frozen in a
// durability-seeking T1 and dirtied again parks, and T2 freezes it once T1's
// JC completes, while T1's flush is still running.
func TestDualConflictResolvesAtJCTransfer(t *testing.T) {
	h := newHarness(ModeDual)
	defer h.close()
	buf := &Buffer{Home: 2000}
	h.run(func(p *sim.Proc) {
		h.j.DirtyBuffer(p, buf, "v1")
		t1 := h.j.running
		durable := h.k.Spawn("fsync", func(q *sim.Proc) { h.j.CommitAndWait(q) })
		for t1.state == StateRunning {
			p.Sleep(sim.Microsecond)
		}
		h.j.DirtyBuffer(p, buf, "v2")
		if !buf.conflict {
			t.Fatal("precondition: v2 did not park behind T1")
		}
		t2 := h.j.CommitOrdering(p, true) // forced: v2 is parked, not running
		if t2 == nil || t2 == t1 || t2.state < StateCommitted {
			t.Fatalf("T2 did not commit: %+v", t2)
		}
		if !t1.jcTransferred {
			t.Error("T2 froze before T1's JC was transferred")
		}
		if t1.state >= StateDurable {
			t.Errorf("T2 committed only after T1's flush (T1 %v): the flush gated the next commit", t1.state)
		}
		if len(t2.frozen) != 1 || t2.frozen[0].Snapshot != "v2" {
			t.Errorf("T2 froze %v, want v2 of the parked buffer", t2.frozen)
		}
		p.Join(durable)
		h.j.CommitAndWait(p)
		if rec := Scan(h.dev.DurableData, h.j.cfg); rec.State[2000] != "v2" {
			t.Errorf("recovered %v, want v2", rec.State[2000])
		}
	})
}

func TestCheckpointReclaimsJournalSpace(t *testing.T) {
	h := newHarness(ModeJBD2)
	defer h.close()
	h.run(func(p *sim.Proc) {
		// Each commit logs 1 buffer = 3 pages; 128-page journal with
		// low-water 16 forces checkpoints over 60 commits.
		for i := 0; i < 60; i++ {
			buf := &Buffer{Home: uint64(2000 + i%4)}
			h.j.DirtyBuffer(p, buf, i)
			h.j.CommitAndWait(p)
		}
	})
	if h.j.Stats().Checkpoints == 0 {
		t.Error("no checkpoints despite journal pressure")
	}
	if h.j.FreePages() <= 0 {
		t.Errorf("free pages = %d", h.j.FreePages())
	}
	// After checkpointing, in-place homes hold the data.
	found := 0
	for i := 0; i < 4; i++ {
		if _, ok := h.dev.DurableData(uint64(2000 + i)); ok {
			found++
		}
	}
	if found == 0 {
		t.Error("checkpoint never wrote home locations")
	}
}

func TestOptFSCommitNoFlush(t *testing.T) {
	h := newHarness(ModeOptFS)
	defer h.close()
	h.run(func(p *sim.Proc) {
		buf := &Buffer{Home: 2000}
		h.j.DirtyBuffer(p, buf, "opt")
		txn := h.j.CommitOrdering(p, false)
		if txn.state != StateCommitted {
			t.Errorf("state = %v", txn.state)
		}
		// No flush on the commit path; the delayed-durability flush fires
		// much later (500ms), after this check.
		if h.dev.Stats().Flushes != 0 {
			t.Errorf("osync flushed %d times; OptFS must not flush on commit", h.dev.Stats().Flushes)
		}
	})
}

func TestOptFSDelayedDurability(t *testing.T) {
	h := newHarness(ModeOptFS)
	defer h.close()
	var txn *Txn
	h.k.Spawn("app", func(p *sim.Proc) {
		buf := &Buffer{Home: 2000}
		h.j.DirtyBuffer(p, buf, "late")
		txn = h.j.CommitOrdering(p, false)
	})
	h.k.RunUntil(sim.Time(2 * sim.Second)) // beyond the delayed-flush interval
	if txn.state != StateDurable {
		t.Errorf("state after delayed flush window = %v", txn.state)
	}
}

func TestRecoveryStopsAtIncompleteTxn(t *testing.T) {
	// Hand-build journal images to exercise the scan logic directly.
	cfg := DefaultConfig(ModeJBD2)
	cfg.Pages = 32
	img := map[uint64]any{
		cfg.SuperLPA: &SuperBlock{TailTxn: 1},
		// txn 1: complete.
		cfg.Start + 0: &DescBlock{TxnID: 1, N: 1},
		cfg.Start + 1: &LogBlock{TxnID: 1, Index: 0, Home: 500, Snapshot: "a"},
		cfg.Start + 2: &CommitBlock{TxnID: 1, N: 1},
		// txn 2: missing its log block (crash mid-commit).
		cfg.Start + 3: &DescBlock{TxnID: 2, N: 1},
		cfg.Start + 5: &CommitBlock{TxnID: 2, N: 1},
		// txn 3: complete, but must NOT be applied (ordering).
		cfg.Start + 6: &DescBlock{TxnID: 3, N: 1},
		cfg.Start + 7: &LogBlock{TxnID: 3, Index: 0, Home: 500, Snapshot: "c"},
		cfg.Start + 8: &CommitBlock{TxnID: 3, N: 1},
	}
	read := func(lpa uint64) (any, bool) { v, ok := img[lpa]; return v, ok }
	rec := Scan(read, cfg)
	if len(rec.Applied) != 1 || rec.Applied[0] != 1 {
		t.Fatalf("applied = %v, want [1]", rec.Applied)
	}
	if rec.State[500] != "a" {
		t.Errorf("state = %v; replay leaked past incomplete txn", rec.State[500])
	}
	if rec.Incomplete != 1 {
		t.Errorf("incomplete = %d", rec.Incomplete)
	}
}

func TestRecoveryRespectsTail(t *testing.T) {
	cfg := DefaultConfig(ModeJBD2)
	cfg.Pages = 16
	img := map[uint64]any{
		cfg.SuperLPA: &SuperBlock{TailTxn: 2},
		// Stale txn 1 (already checkpointed): must be ignored.
		cfg.Start + 0: &DescBlock{TxnID: 1, N: 1},
		cfg.Start + 1: &LogBlock{TxnID: 1, Index: 0, Home: 500, Snapshot: "stale"},
		cfg.Start + 2: &CommitBlock{TxnID: 1, N: 1},
		cfg.Start + 3: &DescBlock{TxnID: 2, N: 1},
		cfg.Start + 4: &LogBlock{TxnID: 2, Index: 0, Home: 500, Snapshot: "fresh"},
		cfg.Start + 5: &CommitBlock{TxnID: 2, N: 1},
	}
	read := func(lpa uint64) (any, bool) { v, ok := img[lpa]; return v, ok }
	rec := Scan(read, cfg)
	if rec.State[500] != "fresh" {
		t.Errorf("state = %v", rec.State[500])
	}
	if len(rec.Applied) != 1 || rec.Applied[0] != 2 {
		t.Errorf("applied = %v", rec.Applied)
	}
}

// TestCarvedRecordsImmutable copies the descriptor, log and commit records
// one commit wrote, and the superblock the checkpoints of 200 more commits
// left, then requires the records themselves to still equal the copies
// after 200 commits and a checkpoint more: a carved record is never handed
// out twice, so the device may hold it forever.
func TestCarvedRecordsImmutable(t *testing.T) {
	for _, mode := range []Mode{ModeJBD2, ModeDual, ModeOptFS} {
		t.Run(mode.String(), func(t *testing.T) {
			h := newHarness(mode)
			defer h.close()
			cfg := h.j.cfg
			type record struct{ got, want any }
			var recs []record
			h.run(func(p *sim.Proc) {
				commit := func(i int) *Txn {
					h.j.DirtyBuffer(p, &Buffer{Home: uint64(2000 + i%4)}, i)
					h.j.DirtyBuffer(p, &Buffer{Home: uint64(3000 + i%4)}, -i)
					return h.j.CommitAndWait(p)
				}
				id := commit(0).id
				for lpa := cfg.Start; lpa < cfg.Start+uint64(cfg.Pages); lpa++ {
					d, _ := h.dev.DurableData(lpa)
					switch rec := d.(type) {
					case *DescBlock:
						if rec.TxnID == id {
							recs = append(recs, record{d, *rec})
						}
					case *LogBlock:
						if rec.TxnID == id {
							recs = append(recs, record{d, *rec})
						}
					case *CommitBlock:
						if rec.TxnID == id {
							recs = append(recs, record{d, *rec})
						}
					}
				}
				if len(recs) != 4 {
					t.Fatalf("commit wrote %d records, want desc + 2 logs + commit", len(recs))
				}
				for i := 1; i <= 200; i++ {
					commit(i)
				}
				if h.j.Stats().Checkpoints == 0 {
					t.Fatal("200 commits on a 128-page journal ran no checkpoint")
				}
				d, _ := h.dev.DurableData(cfg.SuperLPA)
				sb, ok := d.(*SuperBlock)
				if !ok {
					t.Fatalf("superblock page holds %T, want *SuperBlock", d)
				}
				recs = append(recs, record{d, *sb})
				ckpts := h.j.Stats().Checkpoints
				for i := 201; i <= 400; i++ {
					commit(i)
				}
				if h.j.Stats().Checkpoints == ckpts {
					t.Fatal("200 more commits ran no checkpoint")
				}
				if d, _ := h.dev.DurableData(cfg.SuperLPA); d == any(sb) {
					t.Fatal("a later checkpoint left the same superblock record")
				}
			})
			for _, r := range recs {
				if got := reflect.ValueOf(r.got).Elem().Interface(); !reflect.DeepEqual(got, r.want) {
					t.Errorf("record changed after later commits: got %+v, want %+v", got, r.want)
				}
			}
		})
	}
}

func TestJournalCrashRecoveryEndToEnd(t *testing.T) {
	// Commit transactions, crash mid-stream, recover, and check that the
	// set of recovered transactions is a prefix.
	h := newHarness(ModeDual)
	committed := 0
	h.k.Spawn("app", func(p *sim.Proc) {
		for i := 0; ; i++ {
			buf := &Buffer{Home: uint64(3000 + i)}
			h.j.DirtyBuffer(p, buf, i)
			h.j.CommitAndWait(p)
			committed++
		}
	})
	h.k.RunUntil(sim.Time(20 * sim.Millisecond))
	h.dev.Crash()
	var rec Recovered
	h.k.Spawn("recover", func(p *sim.Proc) {
		d2 := device.Recover(p, h.dev)
		rec = Scan(d2.DurableData, h.j.cfg)
	})
	h.k.Run()
	defer h.close()
	if committed == 0 {
		t.Skip("nothing committed before crash; widen the window")
	}
	// Every CommitAndWait that returned must be accounted for: either
	// checkpointed in place (ids below the recovered tail) or replayed
	// from the journal.
	accounted := int(rec.TailTxn-1) + len(rec.Applied)
	if accounted < committed {
		t.Errorf("recovered %d txns (tail=%d), but %d fsync-style commits returned",
			len(rec.Applied), rec.TailTxn, committed)
	}
	// Applied ids must be contiguous ascending.
	for i := 1; i < len(rec.Applied); i++ {
		if rec.Applied[i] != rec.Applied[i-1]+1 {
			t.Fatalf("applied ids not contiguous: %v", rec.Applied)
		}
	}
}

// Only the four engines mount: any other Mode is refused at New.
func TestNewRefusesInvalidMode(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New mounted an invalid mode")
		}
	}()
	k := sim.NewKernel()
	defer k.Close()
	New(k, nil, DefaultConfig(Mode(4)))
}

func TestModeAndStateStrings(t *testing.T) {
	if ModeJBD2.String() != "jbd2" || ModeDual.String() != "dual" || ModeOptFS.String() != "optfs" ||
		ModeNobarrier.String() != "nobarrier" || Mode(4).String() != "invalid" {
		t.Error("mode strings")
	}
	if StateRunning.String() != "running" || StateDurable.String() != "durable" {
		t.Error("state strings")
	}
}

// TestRetireCoversExactlyItsTransactions pins retire's coverage now that
// its flush rides a stream of its own and later JCs pass it. T1 seeks
// durability; T2 commits right behind it with a large JD, so T2's JC is
// still queued when T1's JC transfers and the flush thread calls retire;
// T3 commits after that call, and its JC transfers while the flush drains
// the cache. At the instant a transaction is made durable, its JC must be
// transferred and no longer volatile in the device cache. Retire must
// cover T2 (it was committed when retire was called) and must not credit
// T3.
func TestRetireCoversExactlyItsTransactions(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	cfg := device.UFS()
	cfg.DMAPerPage = 10 * sim.Microsecond
	cfg.CmdOverhead = 2 * sim.Microsecond
	dev := device.New(k, cfg)
	l := block.NewLayer(k, dev, block.NewEpochScheduler(block.NewNOOP()), block.LayerConfig{
		DispatchOverhead: sim.Microsecond,
	})
	reg := metrics.NewRegistry()
	jcfg := DefaultConfig(ModeDual)
	jcfg.Metrics = reg
	j := New(k, l, jcfg)
	// volatileJC reports whether id's commit record is still in the cache.
	volatileJC := func(id uint64) bool {
		for _, w := range dev.CaptureConstraints().Writes {
			if cb, ok := w.Data.(*CommitBlock); ok && cb.TxnID == id {
				return true
			}
		}
		return false
	}
	// onDurable checks t at the instant retire makes it durable: the
	// watcher parks on t's durable waiters directly, so it runs without a
	// wake-up charge, before the device can program anything more.
	var t1, t2, t3 *Txn
	var t3AtT1 TxnState = -1 // T3's state when T1 is made durable; -1: T3 not committed yet
	onDurable := func(x *Txn, name string) {
		k.Spawn("watch", func(p *sim.Proc) {
			ws := &x.waiters[StateDurable-StateCommitted]
			for x.state < StateDurable {
				*ws = append(*ws, p)
				p.Suspend()
			}
			if !x.jcTransferred || volatileJC(x.id) {
				t.Errorf("%s (txn %d) made durable at %v with its JC not on the storage surface (transferred %v)",
					name, x.id, p.Now(), x.jcTransferred)
			}
			if x == t1 && t3 != nil {
				t3AtT1 = t3.state
			}
		})
	}
	k.Spawn("app", func(p *sim.Proc) {
		j.DirtyBuffer(p, &Buffer{Home: 2000}, "t1")
		t1 = j.running
		onDurable(t1, "T1")
		k.Spawn("fsync", func(q *sim.Proc) { j.CommitAndWait(q) })
		for t1.state < StateCommitted {
			p.Sleep(sim.Microsecond)
		}
		for i := 0; i < 24; i++ {
			j.DirtyBuffer(p, &Buffer{Home: uint64(3000 + i)}, i)
		}
		t2 = j.CommitOrdering(p, false)
		onDurable(t2, "T2")
		for !t1.jcTransferred {
			p.Sleep(sim.Microsecond)
		}
		if t2.jcTransferred {
			t.Fatal("precondition: T2's JC transferred before T1's flush was issued")
		}
		// The flush thread has called retire once its wake-up has passed.
		p.Sleep(jcfg.WakeLatency + sim.Microsecond)
		for i := 0; i < 4; i++ {
			j.DirtyBuffer(p, &Buffer{Home: uint64(4000 + i)}, i)
		}
		t3 = j.CommitOrdering(p, false)
		onDurable(t3, "T3")
	})
	k.Run()
	if t1.state != StateDurable || t2.state != StateDurable {
		t.Fatalf("T1 %v, T2 %v: retire did not cover the transaction committed when it was called", t1.state, t2.state)
	}
	if t3AtT1 < 0 {
		t.Fatal("precondition: T3 not committed before T1's flush completed")
	}
	if t3AtT1 >= StateDurable {
		t.Error("T3, committed after retire was called, was credited by its flush")
	}
	if !t3.jcTransferred || t3.state == StateDurable {
		t.Errorf("T3: JC transferred %v, state %v; want an ordering-only transaction left committed", t3.jcTransferred, t3.state)
	}
	if got := reg.Counter("jbd/retire.wait_ns").Value(); got == 0 {
		t.Error("jbd/retire.wait_ns = 0: retire never waited for T2's JC")
	}
	if got := reg.Counter("jbd/retire.txns").Value(); got != 2 {
		t.Errorf("jbd/retire.txns = %d, want T1 and T2", got)
	}
}
