package crashmc

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/sim"
)

// smallJournal is the canonical cheap-replay profile for the ordering
// scenario tests.
func smallJournal(p core.Profile) core.Profile { return CompactJournal(p, 128) }

func at(us int) sim.Time { return sim.Time(sim.Duration(us) * sim.Microsecond) }

func cfgAt(t *testing.T, us int, writes int) Config {
	return Config{
		CrashAt: at(us),
		Writes:  writes,
		Log:     func(f string, a ...any) { t.Logf(f, a...) },
	}
}

func requireClean(t *testing.T, res Result) {
	t.Helper()
	t.Log(res.String())
	if res.Capped {
		t.Fatalf("%s: enumeration capped; the canonical workload must be exhaustive", res.Profile)
	}
	if !res.Ok() {
		for _, v := range res.Violations {
			t.Errorf("%s: [%s/%s] %s %s", res.Profile, v.Checker, v.Kind, v.State, v.Detail)
		}
		t.Fatalf("%s: %d durability / %d ordering / %d consistency violations in %d states",
			res.Profile, res.Durability, res.Ordering, res.Consistency, res.ViolationStates)
	}
}

func TestOrderingEXT4DRNoViolationInAnyState(t *testing.T) {
	// EXT4-DR's fdatabarrier degrades to transfer-and-flush: at most one
	// barrier-separated write is ever volatile, so the admissible state
	// space is tiny — and every state must audit clean.
	for _, us := range []int{1200, 2500, 6000} {
		res := OrderingScenario(smallJournal(core.EXT4DR(device.PlainSSD())), cfgAt(t, us, 0))
		requireClean(t, res)
	}
}

func TestOrderingBFSDRNoViolationInAnyState(t *testing.T) {
	// BarrierFS never flushes in this workload, so dozens of writes are
	// volatile at once — but every write closes an epoch, so the constraint
	// DAG is a chain and the admissible states are exactly its prefixes:
	// states = volatile + 1, *linear* where nobarrier is exponential.
	res := OrderingScenario(smallJournal(core.BFSDR(device.PlainSSD())), cfgAt(t, 2500, 0))
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
		res := OrderingScenario(smallJournal(prof), cfgAt(t, 2500, 0))
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
	res := OrderingScenario(smallJournal(core.EXT4OD(device.LegacySSD())), cfgAt(t, 2500, 3))
	t.Log(res.String())
	if res.Capped {
		t.Fatal("EXT4-nobarrier canonical workload must enumerate exhaustively")
	}
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
	cfg := Config{CrashAt: at(2500), Writes: 3, Log: func(string, ...any) {}}
	a := OrderingScenario(smallJournal(core.EXT4OD(device.LegacySSD())), cfg)
	b := OrderingScenario(smallJournal(core.EXT4OD(device.LegacySSD())), cfg)
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
	res := OrderingScenario(smallJournal(core.EXT4OD(device.LegacySSD())), cfg)
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

func TestKVScenarioBarrierEnginesClean(t *testing.T) {
	if testing.Short() {
		t.Skip("kv model checking in -short mode")
	}
	small := func(p core.Profile) core.Profile { return CompactJournal(p, 512) }
	cfg := Config{
		CrashAt:   at(20000),
		MaxStates: 2000,
		Samples:   64,
		Log:       func(f string, a ...any) { t.Logf(f, a...) },
	}
	res := Enumerate(OnStack(small(core.BFSDR(device.PlainSSD())), KV(2)), cfg)
	t.Log(res.String())
	if !res.Ok() {
		for _, v := range res.Violations {
			t.Errorf("[%s/%s] %s %s", v.Checker, v.Kind, v.State, v.Detail)
		}
		t.Fatal("BFS-DR kv: violations in admissible crash states")
	}
	if res.Volatile == 0 {
		t.Fatal("BFS-DR kv: expected volatile writes at the crash instant")
	}

	cfg.CrashAt = at(60000)
	mq := Enumerate(OnStack(small(core.BFSMQ(device.PlainSSD())), KV(2)), cfg)
	t.Log(mq.String())
	if !mq.Ok() {
		t.Fatalf("BFS-MQ kv: %d violations", mq.Durability+mq.Ordering+mq.Consistency)
	}
	if mq.Streams < 2 {
		t.Fatalf("BFS-MQ kv: expected cross-stream volatile writes (spread writeback), got %d streams", mq.Streams)
	}
}
