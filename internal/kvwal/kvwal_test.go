package kvwal

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/sim"
)

func newStack(t *testing.T, prof core.Profile) (*sim.Kernel, *core.Stack) {
	t.Helper()
	k := sim.NewKernel()
	return k, core.NewStack(k, prof)
}

// put, del and get drive the store one key at a time through Apply and
// GetE; get fails the test on a read error.
func put(p *sim.Proc, st *Store, key string) uint64 {
	return st.Apply(p, []Op{{Kind: Put, Key: key}})
}

func del(p *sim.Proc, st *Store, key string) uint64 {
	return st.Apply(p, []Op{{Kind: Delete, Key: key}})
}

func get(t *testing.T, p *sim.Proc, st *Store, key string) (uint64, bool) {
	seq, ok, err := st.GetE(p, key)
	if err != nil {
		t.Fatalf("get %s: %v", key, err)
	}
	return seq, ok
}

func TestPutGetDelete(t *testing.T) {
	k, s := newStack(t, core.BFSDR(device.PlainSSD()))
	defer k.Close()
	k.Spawn("app", func(p *sim.Proc) {
		st, err := Open(p, s, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		seqA := put(p, st, "alpha")
		seqB := put(p, st, "beta")
		if got, ok := get(t, p, st, "alpha"); !ok || got != seqA {
			t.Errorf("alpha: got (%d,%v), want seq %d", got, ok, seqA)
		}
		if seqA == 0 || seqB != seqA+1 {
			t.Errorf("Apply seqs not per-op: alpha=%d beta=%d", seqA, seqB)
		}
		del(p, st, "alpha")
		if _, ok := get(t, p, st, "alpha"); ok {
			t.Error("alpha still visible after delete")
		}
		if _, ok := get(t, p, st, "beta"); !ok {
			t.Error("beta lost")
		}
		if _, ok := get(t, p, st, "never"); ok {
			t.Error("phantom key")
		}
		// BarrierFS only orders a group commit: before any checkpoint
		// nothing committed is durable yet.
		if n := st.Stats().CheckpointSyncs; n != 0 || st.DurableSeq() >= st.CommittedSeq() {
			t.Errorf("%d checkpoints, durable seq %d, committed seq %d: want no checkpoint and durable < committed",
				n, st.DurableSeq(), st.CommittedSeq())
		}
		k.Stop()
	})
	k.Run()
}

// TestApplyAsyncCopiesOps: a batch owns a copy of its ops, so the caller may
// reuse its slice — single-op or multi-op — as soon as ApplyAsync returns.
func TestApplyAsyncCopiesOps(t *testing.T) {
	k, s := newStack(t, core.BFSDR(device.PlainSSD()))
	defer k.Close()
	k.Spawn("app", func(p *sim.Proc) {
		st, err := Open(p, s, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		one := []Op{{Kind: Put, Key: "one"}}
		many := []Op{{Kind: Put, Key: "a"}, {Kind: Put, Key: "b"}}
		b1 := st.ApplyAsync(p, one)
		b2 := st.ApplyAsync(p, many)
		one[0] = Op{Kind: Put, Key: "reused-one"}
		many[0], many[1] = Op{Kind: Delete, Key: "one"}, Op{Kind: Put, Key: "reused-b"}
		b1.Wait(p)
		if last := b2.Wait(p); last != 3 {
			t.Errorf("multi-op batch's last seq %d, want 3", last)
		}
		for _, key := range []string{"one", "a", "b"} {
			if _, ok := get(t, p, st, key); !ok {
				t.Errorf("%s: applied op lost to the caller's reuse of its slice", key)
			}
		}
		for _, key := range []string{"reused-one", "reused-b"} {
			if _, ok := get(t, p, st, key); ok {
				t.Errorf("%s: the caller's later write to its slice was applied", key)
			}
		}
		k.Stop()
	})
	k.Run()
}

// TestBatchesRecycle: a waited batch goes back to its store and is the next
// ApplyAsync's batch; clients sharing group commits each get the last
// sequence number of their own ops, never a recycled neighbour's; and the
// store recovers clean afterwards.
func TestBatchesRecycle(t *testing.T) {
	k, s := newStack(t, core.BFSDR(device.NVMeSSD()))
	defer k.Close()
	var st *Store
	ready := false
	k.Spawn("setup", func(p *sim.Proc) {
		var err error
		if st, err = Open(p, s, DefaultConfig()); err != nil {
			t.Fatal(err)
		}
		b1 := st.ApplyAsync(p, []Op{{Kind: Put, Key: "first"}})
		b1.Wait(p)
		b2 := st.ApplyAsync(p, []Op{{Kind: Put, Key: "x"}, {Kind: Put, Key: "y"}})
		if b2 != b1 {
			t.Error("the next ApplyAsync after Wait did not reuse the waited batch")
		}
		if last := b2.Wait(p); last != 3 {
			t.Errorf("recycled batch's last seq %d, want 3", last)
		}
		ready = true
	})
	const clients, batches = 8, 20
	for c := 0; c < clients; c++ {
		c := c
		k.Spawn(fmt.Sprintf("client%d", c), func(p *sim.Proc) {
			for !ready {
				p.Sleep(sim.Millisecond)
			}
			ops := make([]Op, 0, 4)
			for n := 0; n < batches; n++ {
				ops = ops[:0]
				for i := 0; i <= (c+n)%4; i++ {
					ops = append(ops, Op{Kind: Put, Key: fmt.Sprintf("c%d-n%d-i%d", c, n, i)})
				}
				last := st.Apply(p, ops)
				for i, op := range ops {
					if seq, ok := st.Peek(op.Key); !ok || seq != last-uint64(len(ops)-1-i) {
						t.Errorf("client %d batch %d op %d: seq (%d,%v), Apply returned last %d",
							c, n, i, seq, ok, last)
					}
				}
			}
		})
	}
	k.Run()
	stats := st.Stats()
	if stats.GroupCommits >= stats.Batches {
		t.Errorf("group commits (%d) not shared: %d batches", stats.GroupCommits, stats.Batches)
	}
	if len(st.free) > clients {
		t.Errorf("%d batches allocated for %d clients: waited batches are not reused", len(st.free), clients)
	}
	var rec Recovered
	k.Spawn("crash", func(p *sim.Proc) {
		st.ForceCheckpoint(p)
		s.Crash()
		view, _ := s.RecoverView(p)
		rec = st.Recover(view)
	})
	k.Run()
	if dur, ord := st.Audit(rec); len(dur) > 0 || len(ord) > 0 {
		t.Errorf("violations after recycled batches: dur=%v ord=%v", dur, ord)
	}
	if rec.Keys["c7-n19-i2"].Seq == 0 {
		t.Error("the last client's last batch is missing from the recovered image")
	}
}

// TestGroupCommitAmortizes checks that concurrent clients' batches merge
// into shared group commits: with many clients there must be fewer sync
// calls than batches.
func TestGroupCommitAmortizes(t *testing.T) {
	for _, prof := range []core.Profile{
		core.EXT4DR(device.NVMeSSD()), core.BFSDR(device.NVMeSSD()),
	} {
		k, s := newStack(t, prof)
		var st *Store
		ready := false
		k.Spawn("setup", func(p *sim.Proc) {
			var err error
			st, err = Open(p, s, DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			ready = true
		})
		const clients, batches = 8, 20
		for c := 0; c < clients; c++ {
			c := c
			k.Spawn(fmt.Sprintf("client%d", c), func(p *sim.Proc) {
				for !ready {
					p.Sleep(sim.Millisecond)
				}
				for n := 0; n < batches; n++ {
					st.Apply(p, []Op{
						{Kind: Put, Key: fmt.Sprintf("c%d-k%d", c, n)},
						{Kind: Put, Key: fmt.Sprintf("c%d-k%d", c, n+1000)},
					})
				}
			})
		}
		k.Run()
		stats := st.Stats()
		if stats.Batches != clients*batches {
			t.Errorf("%s: batches = %d, want %d", prof.Name, stats.Batches, clients*batches)
		}
		if stats.GroupCommits >= stats.Batches {
			t.Errorf("%s: group commits (%d) not amortized below batches (%d)",
				prof.Name, stats.GroupCommits, stats.Batches)
		}
		if stats.WALRecords != stats.Batches*2 {
			t.Errorf("%s: wal records = %d, want %d", prof.Name, stats.WALRecords, stats.Batches*2)
		}
		k.Close()
	}
}

// TestCheckpointOffTheCommitPath: on BarrierFS the periodic checkpoint runs
// beside the group-commit leader, so CommittedSeq advances while the
// checkpoint's fdatasync is in flight, and the checkpoint makes durable only
// what was committed when it started: on return DurableSeq is at most the
// CommittedSeq seen once the fdatasync was under way, and below the
// CommittedSeq of the return. A monitor polls every microsecond; on
// BarrierFS a checkpoint is the store's only fdatasync.
func TestCheckpointOffTheCommitPath(t *testing.T) {
	k, s := newStack(t, core.BFSDR(device.NVMeSSD()))
	defer k.Close()
	cfg := DefaultConfig()
	cfg.CheckpointEvery = 4
	var st *Store
	k.Spawn("setup", func(p *sim.Proc) {
		var err error
		if st, err = Open(p, s, cfg); err != nil {
			t.Fatal(err)
		}
		base := s.FS.Stats().Fdatasyncs
		inFlight := func() bool { return s.FS.Stats().Fdatasyncs-base > st.Stats().CheckpointSyncs }
		var started, advanced, checked int
		var atStart uint64 // CommittedSeq once the in-flight fdatasync was seen
		flying, syncs := false, int64(0)
		for p.Now() < sim.Time(20*sim.Millisecond) {
			p.Advance(sim.Microsecond)
			if n := st.Stats().CheckpointSyncs; n != syncs {
				syncs, flying = n, false
				if d, c := st.DurableSeq(), st.CommittedSeq(); d > atStart || d >= c {
					t.Errorf("checkpoint %d returned: durable seq %d, committed seq %d at its start and %d now",
						n, d, atStart, c)
				}
				checked++
			}
			switch {
			case !flying && inFlight():
				flying, atStart = true, st.CommittedSeq()
				started++
			case flying && st.CommittedSeq() > atStart:
				advanced++
			}
		}
		if started < 3 || checked < 3 || advanced == 0 {
			t.Errorf("%d checkpoints started, %d checked, committed seq advanced at %d polls in flight: want >= 3, >= 3, > 0",
				started, checked, advanced)
		}
		k.Stop()
	})
	for c := 0; c < 4; c++ {
		c := c
		k.Spawn(fmt.Sprintf("client%d", c), func(p *sim.Proc) {
			for st == nil {
				p.Sleep(sim.Millisecond)
			}
			for n := 0; ; n++ {
				put(p, st, fmt.Sprintf("c%d-k%d", c, n%64))
			}
		})
	}
	k.Run()
}

// TestFlushCompactionAndWALWrap drives enough distinct keys through a tiny
// configuration to force memtable flushes, WAL ring wrap-around and at
// least one compaction, then verifies reads against a model.
func TestFlushCompactionAndWALWrap(t *testing.T) {
	k, s := newStack(t, core.BFSDR(device.NVMeSSD()))
	defer k.Close()
	cfg := Config{WALPages: 64, MemtableCap: 16, CompactFanIn: 2, CheckpointEvery: 8}
	k.Spawn("app", func(p *sim.Proc) {
		st, err := Open(p, s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		model := make(map[string]bool)
		for i := 0; i < 300; i++ {
			key := fmt.Sprintf("k%03d", i%100)
			if i%7 == 3 {
				del(p, st, key)
				model[key] = false
			} else {
				put(p, st, key)
				model[key] = true
			}
		}
		checkIndex(t, st)
		// Let in-flight background flush/compaction settle before auditing
		// the steady state.
		p.Sleep(20 * sim.Millisecond)
		stats := st.Stats()
		if stats.Flushes == 0 {
			t.Error("no memtable flushes despite tiny cap")
		}
		if stats.Compactions == 0 {
			t.Error("no compactions despite fan-in 2")
		}
		if stats.WALRecords != 300 {
			t.Errorf("wal records = %d", stats.WALRecords)
		}
		for key, present := range model {
			_, ok := get(t, p, st, key)
			if ok != present {
				t.Errorf("key %s: present=%v, model says %v", key, ok, present)
			}
		}
		if stats.SegmentsLive > cfg.CompactFanIn+1 {
			// Compaction may lag by one in-progress flush but must bound the
			// live set.
			t.Errorf("segments live = %d, compaction not keeping up", stats.SegmentsLive)
		}
		k.Stop()
	})
	k.Run()
}

// checkIndex requires the segment index to name, for every key, the entry
// a newest-first walk of the live segments finds.
func checkIndex(t *testing.T, st *Store) {
	t.Helper()
	want := make(map[string]segRef)
	for _, seg := range st.segs { // oldest first; newer segments overwrite
		for i, e := range seg.entries {
			want[e.key] = segRef{seg, i}
		}
	}
	if len(st.index) != len(want) {
		t.Fatalf("index holds %d keys, the live segments %d", len(st.index), len(want))
	}
	for key, r := range want {
		if st.index[key] != r {
			t.Fatalf("index[%s] = segment %d entry %d, want segment %d entry %d",
				key, st.index[key].seg.id, st.index[key].n, r.seg.id, r.n)
		}
	}
}

// TestRecoverCleanImage crashes after an explicit durability checkpoint:
// everything acknowledged must be recovered with no violations.
func TestRecoverCleanImage(t *testing.T) {
	for _, prof := range []core.Profile{
		core.EXT4DR(device.PlainSSD()), core.BFSDR(device.PlainSSD()),
		core.EXT4MQ(device.NVMeSSD()), core.BFSMQ(device.NVMeSSD()),
	} {
		k, s := newStack(t, prof)
		var st *Store
		k.Spawn("app", func(p *sim.Proc) {
			var err error
			st, err = Open(p, s, DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 40; i++ {
				put(p, st, fmt.Sprintf("k%03d", i))
			}
			del(p, st, "k005")
			st.ForceCheckpoint(p)
			s.Crash()
		})
		k.Run()
		var rec Recovered
		k.Spawn("recover", func(p *sim.Proc) {
			view, _ := s.RecoverView(p)
			rec = st.Recover(view)
		})
		k.Run()
		durErrs, ordErrs := st.Audit(rec)
		if len(durErrs) > 0 || len(ordErrs) > 0 {
			t.Errorf("%s: violations after clean checkpoint: dur=%v ord=%v",
				prof.Name, durErrs, ordErrs)
		}
		if e, ok := rec.Keys["k007"]; !ok || e.Del {
			t.Errorf("%s: k007 missing from recovered image", prof.Name)
		}
		if e, ok := rec.Keys["k005"]; ok && !e.Del {
			t.Errorf("%s: deleted k005 resurfaced", prof.Name)
		}
		k.Close()
	}
}

// TestRecoverAfterCompaction checkpoints, compacts, crashes, and verifies
// the recovered image reads through the merged segment set.
func TestRecoverAfterCompaction(t *testing.T) {
	k, s := newStack(t, core.BFSDR(device.NVMeSSD()))
	cfg := Config{WALPages: 64, MemtableCap: 8, CompactFanIn: 2, CheckpointEvery: 4}
	var st *Store
	k.Spawn("app", func(p *sim.Proc) {
		var err error
		st, err = Open(p, s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 120; i++ {
			put(p, st, fmt.Sprintf("k%03d", i%40))
		}
		st.ForceCheckpoint(p)
		// Let background flush/compaction quiesce before the crash so the
		// manifest reflects a compacted state.
		p.Sleep(20 * sim.Millisecond)
		if st.Stats().Compactions == 0 {
			t.Error("setup failed to trigger compaction")
		}
		s.Crash()
	})
	k.Run()
	var rec Recovered
	k.Spawn("recover", func(p *sim.Proc) {
		view, _ := s.RecoverView(p)
		rec = st.Recover(view)
	})
	k.Run()
	defer k.Close()
	durErrs, ordErrs := st.Audit(rec)
	if len(durErrs) > 0 || len(ordErrs) > 0 {
		t.Errorf("violations: dur=%v ord=%v", durErrs, ordErrs)
	}
	for i := 0; i < 40; i++ {
		key := fmt.Sprintf("k%03d", i)
		if e, ok := rec.Keys[key]; !ok || e.Del {
			t.Errorf("key %s lost across compaction + crash", key)
		}
	}
}

// TestBenchSmoke runs the bench harness briefly on one profile.
func TestBenchSmoke(t *testing.T) {
	k, s := newStack(t, core.BFSDR(device.NVMeSSD()))
	defer k.Close()
	res := Bench(k, s, 4, 20*sim.Millisecond)
	if res.Ops == 0 {
		t.Fatal("no ops acknowledged")
	}
	if res.Latency.Count == 0 {
		t.Error("no latency samples")
	}
	if res.GroupMean < 1 {
		t.Errorf("group mean = %.2f", res.GroupMean)
	}
}

// TestAuditDeleteReflectedAfterCompaction: a durably acked put followed by
// a delete the recovered image reflects (the delete is at or below the
// recovered checkpoint) leaves the key absent once compaction drops the
// tombstone. That is the delete, not a lost put.
func TestAuditDeleteReflectedAfterCompaction(t *testing.T) {
	k, s := newStack(t, core.BFSDR(device.NVMeSSD()))
	defer k.Close()
	cfg := Config{WALPages: 64, MemtableCap: 4, CompactFanIn: 2, CheckpointEvery: 1 << 20}
	var st *Store
	var delSeq uint64
	k.Spawn("app", func(p *sim.Proc) {
		var err error
		if st, err = Open(p, s, cfg); err != nil {
			t.Fatal(err)
		}
		put(p, st, "k")
		st.ForceCheckpoint(p)
		delSeq = del(p, st, "k")
		for i := 0; st.Stats().Compactions == 0; i++ {
			if i == 200 {
				t.Fatal("no compaction after 200 puts")
			}
			put(p, st, fmt.Sprintf("o%03d", i))
			p.Sleep(sim.Millisecond)
		}
		s.FS.SyncFS(p)
		s.Crash()
	})
	k.Run()
	var rec Recovered
	k.Spawn("recover", func(p *sim.Proc) {
		view, _ := s.RecoverView(p)
		rec = st.Recover(view)
	})
	k.Run()
	if max(rec.Checkpoint, rec.PrefixSeq) < delSeq {
		t.Fatalf("recovered image ends at seq %d, before the delete (seq %d)", max(rec.Checkpoint, rec.PrefixSeq), delSeq)
	}
	if e, ok := rec.Keys["k"]; ok {
		t.Fatalf("key recovered as %+v: compaction kept its tombstone, so the case is not covered", e)
	}
	if dur, ord := st.Audit(rec); len(dur) > 0 || len(ord) > 0 {
		t.Errorf("violations: dur=%v ord=%v", dur, ord)
	}
}

// TestKeyNames: the benchmark's key table holds one fmt.Sprintf("k%05d")
// name per key of the universe.
func TestKeyNames(t *testing.T) {
	names := benchKeys()
	if len(names) != benchKeySpace {
		t.Fatalf("%d names, want %d", len(names), benchKeySpace)
	}
	for k, got := range names {
		if want := fmt.Sprintf("k%05d", k); got != want {
			t.Fatalf("key %d: %q, want %q", k, got, want)
		}
	}
}
