package crashmc

import (
	"fmt"
	"reflect"
	"testing"

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
// and whether B's fsync returned before a flush of its commit was seen.
type rideRun struct {
	reached int
	forced  int64
	missed  bool
}

// allocRidesCommit first fsyncs prefill files of its own, filling a small
// journal, then creates and writes file A and lets a second proc's fsync of
// file B freeze the running transaction — A's inode, directory entry and
// allocation with it — and calls A's Fdatasync while that commit is still in
// flight. With inFlush, A's Fdatasync starts only once the device has begun
// the flush that makes B's commit durable, so A's data reaches the device
// after that flush. Power fails the instant Fdatasync returns.
func allocRidesCommit(run *rideRun, prefill int, inFlush bool) Part {
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
			if inFlush {
				for flushes := s.Dev.Stats().Flushes; s.Dev.Stats().Flushes == flushes && !bDone; {
					p.Sleep(sim.Microsecond) // until B's commit flush starts
				}
				run.missed = bDone
			}
			s.FS.Fdatasync(p, a)
			ver, _, _ := s.FS.Read(p, a, 0)
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
func TestFdatasyncWaitsForFrozenAllocation(t *testing.T) {
	nvme := device.NVMeSSD()
	small := func(p core.Profile) core.Profile { return CompactJournal(p, 16) }
	for _, c := range []struct {
		prof    core.Profile
		prefill int
		inFlush bool
	}{
		{core.EXT4DR(nvme), 0, false},
		{core.EXT4MQ(nvme), 0, false},
		{core.BFSDR(nvme), 0, false},
		{core.BFSMQ(nvme), 0, false},
		{small(core.EXT4DR(nvme)), 2, false},
		{small(core.BFSDR(nvme)), 2, false},
		{small(core.BFSMQ(nvme)), 3, false},
		{core.OptFS(nvme), 0, false},
		{core.EXT4DR(nvme), 0, true},
		{core.EXT4DR(device.LegacySSD()), 0, true},
		{core.EXT4MQ(nvme), 0, true},
		{core.BFSDR(nvme), 0, true},
		{core.BFSMQ(nvme), 0, true},
		{core.OptFS(nvme), 0, true},
	} {
		var run rideRun
		res := Enumerate(OnStack(c.prof, allocRidesCommit(&run, c.prefill, c.inFlush)), Config{CrashAt: at(1000000)})
		t.Logf("prefill %d, in flush %v, %d commits waited for space: %s", c.prefill, c.inFlush, run.forced, res.String())
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

	cfg.CrashAt = at(60000)
	mq := Enumerate(OnStack(small(core.BFSMQ(device.PlainSSD())), KV(2)), cfg)
	t.Log(mq.String())
	requireClean(t, mq)
	if mq.Streams < 2 {
		t.Fatalf("BFS-MQ kv: expected cross-stream volatile writes (spread writeback), got %d streams", mq.Streams)
	}
}
