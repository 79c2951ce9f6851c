package crashmc

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/block"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/fs"
	"repro/internal/par"
	"repro/internal/sim"
)

// smallJournal is the canonical cheap-replay profile for the ordering
// scenario tests.
func smallJournal(p core.Profile) core.Profile { return CompactJournal(p, 128) }

func at(us int) sim.Time { return sim.Time(sim.Duration(us) * sim.Microsecond) }

func times(us ...int) []sim.Time {
	var out []sim.Time
	for _, u := range us {
		out = append(out, at(u))
	}
	return out
}

// logTo routes the capped-state-space notice into the test log.
func logTo(t *testing.T) func(string, ...any) {
	return func(f string, a ...any) { t.Logf(f, a...) }
}

// ordering is the bounded-replay §4.1 codelet on prof: the Ordering part,
// its journal window shrunk to 128 pages.
func ordering(prof core.Profile, writes int) Workload {
	return OnStack(smallJournal(prof), Ordering(writes))
}

// orderingAt enumerates ordering(prof, writes) at crash instant us. The
// canonical scenario is exhaustive: a capped enumeration fails the test.
func orderingAt(t *testing.T, prof core.Profile, us, writes int) Result {
	t.Helper()
	res := Enumerate(ordering(prof, writes), Config{CrashAt: at(us), Log: logTo(t)})
	t.Log(res.String())
	if res.Capped {
		t.Fatalf("%s: enumeration capped; the canonical workload must be exhaustive", res.Profile)
	}
	return res
}

// budget is the suite's enumeration budget for workloads on full-size
// journals: 256 states, then 32 sampled cuts past the cap. Every image pays
// a scan of the journal window, so -short (CI's -race run) looks at a
// quarter as many.
func budget(t *testing.T, at sim.Time) Config {
	cfg := Config{CrashAt: at, MaxStates: 256, Samples: 32, Log: logTo(t)}
	if testing.Short() {
		cfg.MaxStates, cfg.Samples = 64, 8
	}
	return cfg
}

// sweepClean enumerates w at every crash instant within the suite's budget,
// the instants fanned out across CPUs, and requires every state clean and
// every result to carry its crash time through.
func sweepClean(t *testing.T, w Workload, ts []sim.Time) {
	t.Helper()
	results := make([]Result, len(ts))
	par.For(len(ts), func(i int) { results[i] = Enumerate(w, budget(t, ts[i])) })
	requireClean(t, results...)
	for i, res := range results {
		if res.CrashAt != ts[i] {
			t.Errorf("result %d: crash time %v, want %v", i, res.CrashAt, ts[i])
		}
	}
}

// requireClean fails the test on any violation in results.
func requireClean(t *testing.T, results ...Result) {
	t.Helper()
	for _, res := range results {
		if !res.Ok() {
			for _, v := range res.Violations {
				t.Errorf("%s: [%s/%s] %s %s", res.Profile, v.Checker, v.Kind, v.State, v.Detail)
			}
			t.Errorf("%v", res)
		}
	}
}

func TestOrderingEXT4DRNoViolationInAnyState(t *testing.T) {
	// EXT4-DR's fdatabarrier degrades to transfer-and-flush: at most one
	// barrier-separated write is ever volatile, so the admissible state
	// space is tiny — and every state must audit clean.
	for _, us := range []int{1200, 2500, 6000} {
		requireClean(t, orderingAt(t, core.EXT4DR(device.PlainSSD()), us, 0))
	}
}

func TestOrderingBFSDRNoViolationInAnyState(t *testing.T) {
	// BarrierFS never flushes in this workload, so dozens of writes are
	// volatile at once — but every write closes an epoch, so the constraint
	// DAG is a chain and the admissible states are exactly its prefixes:
	// states = volatile + 1, *linear* where nobarrier is exponential.
	res := orderingAt(t, core.BFSDR(device.PlainSSD()), 2500, 0)
	requireClean(t, res)
	if res.Volatile == 0 {
		t.Fatal("BFS-DR: expected volatile writes at the crash instant")
	}
	if res.StatesExplored != res.Volatile+1 {
		t.Fatalf("BFS-DR: %d states for %d chained volatile writes, want %d (epoch-chain prefixes)",
			res.StatesExplored, res.Volatile, res.Volatile+1)
	}
}

func TestOrderingMQProfilesNoViolationInAnyState(t *testing.T) {
	for _, prof := range []core.Profile{
		core.EXT4MQ(device.PlainSSD()),
		core.BFSMQ(device.PlainSSD()),
	} {
		res := orderingAt(t, prof, 2500, 0)
		requireClean(t, res)
		if prof.Name == "BFS-MQ" && res.Volatile == 0 {
			// The clean verdict is only meaningful if the run exercised
			// volatile state.
			t.Fatal("BFS-MQ: expected volatile writes at the crash instant")
		}
	}
}

func TestNobarrierOrderingViolationReachable(t *testing.T) {
	// The paper's motivating result as a positive finding: EXT4 mounted
	// nobarrier on a legacy device admits crash states where a later
	// barrier-separated write persists while an earlier one is lost. The
	// bounded workload keeps the unconstrained state space exhaustively
	// enumerable: every admissible state is visited, no sampling.
	res := orderingAt(t, core.EXT4OD(device.LegacySSD()), 2500, 3)
	if res.StatesExplored != 1<<res.Volatile {
		t.Fatalf("unconstrained DAG: %d states for %d volatile writes, want 2^%d=%d",
			res.StatesExplored, res.Volatile, res.Volatile, 1<<res.Volatile)
	}
	if res.Ordering == 0 {
		t.Fatal("EXT4-nobarrier: expected at least one reachable ordering-violation state")
	}
	if res.Durability == 0 {
		t.Fatal("EXT4-nobarrier: expected durability violations (fsync acked at transfer)")
	}
}

func TestNobarrierDeterministic(t *testing.T) {
	w := ordering(core.EXT4OD(device.LegacySSD()), 3)
	cfg := Config{CrashAt: at(2500), Log: func(string, ...any) {}}
	a, b := Enumerate(w, cfg), Enumerate(w, cfg)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("model checking is not deterministic across runs:\n%+v\nvs\n%+v", a, b)
	}
}

func TestCapFallsBackToSamplingWithNotice(t *testing.T) {
	logged := 0
	cfg := Config{
		CrashAt:   at(2500),
		MaxStates: 1000,
		Samples:   64,
		Log:       func(f string, a ...any) { logged++; t.Logf(f, a...) },
	}
	// Unbounded nobarrier workload: far beyond the cap.
	res := Enumerate(ordering(core.EXT4OD(device.LegacySSD()), 0), cfg)
	t.Log(res.String())
	if !res.Capped {
		t.Fatal("expected the state cap to trip")
	}
	if logged == 0 {
		t.Fatal("cap tripped silently: Config.Log was not called")
	}
	if res.Sampled == 0 {
		t.Fatal("expected sampled cuts beyond the exhaustive prefix")
	}
	if res.Ok() {
		t.Fatal("nobarrier violations must still surface under the sampling fallback")
	}
}

// rideRun is what one allocRidesCommit run reached: how many times A's
// Fdatasync returned, how many commits had waited for journal space by then,
// whether B's fsync returned before a flush of its commit was seen, and
// whether B's commit was dispatched before A's Fdatasync began.
type rideRun struct {
	reached    int
	forced     int64
	missed     bool
	dispatched bool
}

// rideStart is the instant A's Fdatasync begins, once B's commit froze A's
// allocation.
type rideStart int

const (
	atFreeze rideStart = iota
	// inFlush: once the device has begun the flush that makes B's commit
	// durable, so A's data reaches the device after that flush.
	inFlush
	// inSuper: once the checkpointer's superblock write, which B's commit
	// waits behind in reserve, is in the device cache. A's own flush is then
	// queued ahead of B's JD and JC, which transfer right behind it.
	inSuper
)

// allocRidesCommit first fsyncs prefill files of its own, filling a small
// journal, then creates and writes file A and lets a second proc's fsync of
// file B freeze the running transaction — A's inode, directory entry and
// allocation with it — and calls A's Fdatasync at start, while that commit
// is still in flight. Power fails the instant Fdatasync returns.
func allocRidesCommit(run *rideRun, prefill int, start rideStart) Part {
	return func(k *sim.Kernel, s *core.Stack) []Checker {
		chk := &DurabilityChecker{FS: s.FS, File: "a.dat"}
		create := func(p *sim.Proc, name string) *fs.Inode {
			f, err := s.FS.Create(p, s.FS.Root(), name)
			if err != nil {
				panic(err)
			}
			s.FS.Write(p, f, 0)
			return f
		}
		k.Spawn("app", func(p *sim.Proc) {
			for n := 0; n < prefill; n++ {
				s.FS.Fsync(p, create(p, fmt.Sprintf("fill%d.dat", n)))
			}
			a, b := create(p, chk.File), create(p, "b.dat")
			bDone := false
			k.Spawn("fsync-b", func(q *sim.Proc) { s.FS.Fsync(q, b); bDone = true })
			for a.MetaPending() {
				p.Sleep(sim.Microsecond) // until B's commit freezes A's metadata
			}
			commits := s.FS.Journal().Stats().Commits
			switch start {
			case inFlush:
				for flushes := s.Dev.Stats().Flushes; s.Dev.Stats().Flushes == flushes && !bDone; {
					p.Sleep(sim.Microsecond) // until B's commit flush starts
				}
				run.missed = bDone
			case inSuper:
				for fua := s.Dev.Stats().FUAWrites; s.Dev.Stats().FUAWrites == fua; {
					p.Sleep(sim.Microsecond) // until the superblock write is cached
				}
				run.dispatched = s.FS.Journal().Stats().Commits != commits
			}
			s.FS.Fdatasync(p, a)
			ver, _, _ := s.FS.Read(p, a, 0, 0)
			chk.Synced = append(chk.Synced, AckedWrite{Idx: 0, Ver: ver})
			run.reached++
			run.forced = s.FS.Journal().Stats().CheckpointForce
			k.Stop()
		})
		return []Checker{chk}
	}
}

// TestFdatasyncWaitsForFrozenAllocation pins fdatasync's contract when the
// file's allocation rides another caller's commit: the metadata is no longer
// pending in the running transaction, but it is not durable either, so
// fdatasync must wait for the transaction that froze it (ext4 waits on
// i_datasync_tid). A crash the instant it returns may not lose the file.
//
// The 16-page journals pre-filled by a few fsyncs make B's commit wait in
// reserve for a checkpoint after it froze A's allocation; on OptFS the
// commit waits for its own transfers before sending JC. Either way the
// commit is not on the device when A's data and flush are. The inFlush rows
// take the other side of the window: B's commit is on the device and its
// flush has begun, so that flush cannot cover A's data. On the legacy
// device, whose cache writes back out of order, JC's FUA does not carry it
// either: JBD2's fdatasync flushes after its wait because B's commit had
// sent its preflush before A's data transferred (ext4's
// jbd2_trans_will_send_data_barrier).
//
// The inSuper rows hold the capture rule: a Dual-Mode commit lets go of its
// buffers when its JC is transferred, before its flush. A's fdatasync
// decides to wait on B's commit while that commit waits in reserve, queues
// its own flush ahead of B's JD and JC, and reaches its wait after B's JC
// has transferred but long before B's flush. A 50 µs wake-up latency
// outlasts the JD/JC transfers queued behind A's flush (the default 15 µs
// does not), which is what opens the window: an fdatasync that re-read the
// buffer's owner when it waits would find none and return with B's JC
// still volatile.
func TestFdatasyncWaitsForFrozenAllocation(t *testing.T) {
	nvme := device.NVMeSSD()
	small := func(p core.Profile) core.Profile { return CompactJournal(p, 16) }
	slowWake := func(p core.Profile) core.Profile {
		p = small(p)
		p.FS.Journal.WakeLatency = 50 * sim.Microsecond
		return p
	}
	for _, c := range []struct {
		prof    core.Profile
		prefill int
		start   rideStart
	}{
		{core.EXT4DR(nvme), 0, atFreeze},
		{core.EXT4MQ(nvme), 0, atFreeze},
		{core.BFSDR(nvme), 0, atFreeze},
		{core.BFSMQ(nvme), 0, atFreeze},
		{small(core.EXT4DR(nvme)), 2, atFreeze},
		{small(core.BFSDR(nvme)), 2, atFreeze},
		{small(core.BFSMQ(nvme)), 3, atFreeze},
		{core.OptFS(nvme), 0, atFreeze},
		{core.EXT4DR(nvme), 0, inFlush},
		{core.EXT4DR(device.LegacySSD()), 0, inFlush},
		{core.EXT4MQ(nvme), 0, inFlush},
		{core.BFSDR(nvme), 0, inFlush},
		{core.BFSMQ(nvme), 0, inFlush},
		{core.OptFS(nvme), 0, inFlush},
		{slowWake(core.BFSDR(nvme)), 2, inSuper},
		{slowWake(core.BFSMQ(nvme)), 2, inSuper},
	} {
		var run rideRun
		res := Enumerate(OnStack(c.prof, allocRidesCommit(&run, c.prefill, c.start)), Config{CrashAt: at(1000000)})
		t.Logf("prefill %d, start %d, %d commits waited for space: %s", c.prefill, c.start, run.forced, res.String())
		requireClean(t, res)
		if run.reached != 1 {
			t.Fatalf("%s (prefill %d): Fdatasync never returned", c.prof.Name, c.prefill)
		}
		if c.prefill > 0 && run.forced == 0 {
			t.Errorf("%s (prefill %d): no commit waited for journal space", c.prof.Name, c.prefill)
		}
		if run.missed {
			t.Errorf("%s: B's fsync returned before its commit flush was seen", c.prof.Name)
		}
		if run.dispatched {
			t.Errorf("%s: B's commit was dispatched before A's Fdatasync began", c.prof.Name)
		}
	}
}

// crossRun is what one syncAfterBackground run reached: whether A's sync
// returned, and whether B's commit had frozen A's metadata by then.
type crossRun struct {
	reached, frozeFirst bool
}

// syncAfterBackground creates file A with pages new pages and file B, hands
// A's pages to background writeback, which the multi-queue layer moves off
// the order stream, and syncs A (fsync with meta, else fdatasync) while a
// second proc fbarriers B. B's commit freezes the running transaction, and
// A's new allocation with it, while A's sync waits for that writeback.
// Power fails the instant A's sync returns.
func syncAfterBackground(run *crossRun, pages int, meta bool) Part {
	return func(k *sim.Kernel, s *core.Stack) []Checker {
		chk := &DurabilityChecker{FS: s.FS, File: "a.dat"}
		k.Spawn("app", func(p *sim.Proc) {
			a, err := s.FS.Create(p, s.FS.Root(), chk.File)
			if err != nil {
				panic(err)
			}
			b, err := s.FS.Create(p, s.FS.Root(), "b.dat")
			if err != nil {
				panic(err)
			}
			for n := 0; n < pages; n++ {
				s.FS.Write(p, a, int64(n))
			}
			s.FS.Write(p, b, 0)
			s.FS.WritebackAsync(p, a, block.RoleBackground)
			done := false
			k.Spawn("fbarrier-b", func(q *sim.Proc) {
				s.FS.Fbarrier(q, b)
				run.frozeFirst = !done && !a.MetaPending()
			})
			if meta {
				s.FS.Fsync(p, a)
			} else {
				s.FS.Fdatasync(p, a)
			}
			done = true
			for n := 0; n < pages; n++ {
				ver, _ := s.FS.PageVer(a, int64(n))
				chk.Synced = append(chk.Synced, AckedWrite{Idx: int64(n), Ver: ver})
			}
			run.reached = true
			k.Stop()
		})
		return []Checker{chk}
	}
}

// TestSyncAfterCrossStreamWriteback pins the order of fs.sync's first two
// steps: wait for the file's writeback on other streams, then decide what
// to commit. The wait blocks, and another caller's commit may freeze the
// file's metadata meanwhile: a decision taken before the wait finds the
// metadata pending, no commit holding it, and after the wait no path that
// covers it (an fsync that then waits on the commit it captured, none,
// panics). BFS-DR and EXT4-MQ are controls.
func TestSyncAfterCrossStreamWriteback(t *testing.T) {
	nvme := device.NVMeSSD()
	for _, prof := range []core.Profile{core.BFSMQ(nvme), core.BFSDR(nvme), core.EXT4MQ(nvme)} {
		for _, meta := range []bool{true, false} {
			var run crossRun
			res := Enumerate(OnStack(prof, syncAfterBackground(&run, 32, meta)), Config{CrashAt: at(1000000), Log: logTo(t)})
			t.Logf("meta %v: %s", meta, res.String())
			requireClean(t, res)
			if !run.reached {
				t.Fatalf("%s (meta %v): A's sync never returned", prof.Name, meta)
			}
			if !run.frozeFirst {
				t.Errorf("%s (meta %v): B's commit did not freeze A's metadata before A's sync returned", prof.Name, meta)
			}
		}
	}
}

func TestKVScenarioBarrierEnginesClean(t *testing.T) {
	if testing.Short() {
		t.Skip("kv model checking in -short mode")
	}
	small := func(p core.Profile) core.Profile { return CompactJournal(p, 512) }
	cfg := Config{CrashAt: at(20000), MaxStates: 2000, Samples: 64, Log: logTo(t)}
	res := Enumerate(OnStack(small(core.BFSDR(device.PlainSSD())), KV(2)), cfg)
	t.Log(res.String())
	requireClean(t, res)
	if res.Volatile == 0 {
		t.Fatal("BFS-DR kv: expected volatile writes at the crash instant")
	}

	// At 58 ms a spread-writeback burst is in the cache; at 60 ms it holds
	// only order-stream writes.
	cfg.CrashAt = at(58000)
	mq := Enumerate(OnStack(small(core.BFSMQ(device.PlainSSD())), KV(2)), cfg)
	t.Log(mq.String())
	requireClean(t, mq)
	if mq.Streams < 2 {
		t.Fatalf("BFS-MQ kv: expected cross-stream volatile writes (spread writeback), got %d streams", mq.Streams)
	}
}
