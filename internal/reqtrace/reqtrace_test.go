package reqtrace

import (
	"testing"

	"repro/internal/sim"
)

func us(n int64) sim.Time { return sim.Time(n) * sim.Time(sim.Microsecond) }

func TestZeroCtxIsNoOp(t *testing.T) {
	var c Ctx
	c.Stamp(StageAdmit, us(1))
	c.StampChain(StageDevDone, us(2))
	if c.Active() {
		t.Fatal("zero Ctx reports Active")
	}
	var s *Sampler
	if got := s.Admit(us(1)); got.Active() {
		t.Fatal("nil sampler Admit returned active ctx")
	}
	s.Finish(Ctx{}, us(2))
	if s.Take() != nil || s.Dropped() != 0 {
		t.Fatal("nil sampler leaked state")
	}
}

func TestStampFirstWinsExceptDevDone(t *testing.T) {
	s := NewSampler(Config{Uniform: 1})
	c := s.Admit(us(10))
	c.Stamp(StageGCEnqueue, us(20))
	c.Stamp(StageGCEnqueue, us(30)) // first-wins
	c.Stamp(StageDevDone, us(40))
	c.Stamp(StageDevDone, us(50)) // last-wins
	s.Finish(c, us(60))
	exs := s.Take()
	if len(exs) == 0 {
		t.Fatal("no exemplar kept")
	}
	e := exs[0]
	if e.At(StageGCEnqueue) != us(20) {
		t.Fatalf("gc-enqueue = %d, want first-wins %d", e.At(StageGCEnqueue), us(20))
	}
	if e.At(StageDevDone) != us(50) {
		t.Fatalf("dev-done = %d, want last-wins %d", e.At(StageDevDone), us(50))
	}
	if e.Total != sim.Duration(us(60)-us(10)) {
		t.Fatalf("total = %d", e.Total)
	}
}

func TestRecycledCtxGoesQuiet(t *testing.T) {
	s := NewSampler(Config{Uniform: 1})
	c1 := s.Admit(us(1))
	s.Finish(c1, us(2)) // recycles the record
	c2 := s.Admit(us(3))
	// The stale handle must neither stamp nor corrupt the reused record.
	c1.Stamp(StageDevStart, us(4))
	c1.StampChain(StageDevDone, us(5))
	if c1.Active() {
		t.Fatal("stale ctx reports Active")
	}
	s.Finish(c2, us(6))
	exs := s.Take()
	for _, e := range exs[1:] {
		if e.Has(StageDevStart) || e.Has(StageDevDone) {
			t.Fatal("stale ctx stamped a recycled record")
		}
	}
}

func TestChainFanOut(t *testing.T) {
	s := NewSampler(Config{Uniform: 1})
	a := s.Admit(us(1))
	b := s.Admit(us(2))
	c := s.Admit(us(3))
	head := Chain(Chain(Ctx{}, a), b)
	head = Chain(head, c)
	if head != a {
		t.Fatal("chain head moved")
	}
	head.StampChain(StageDurIssue, us(10))
	head.Stamp(StageAck, us(11)) // plain stamp stays on the head only
	for i, m := range []Ctx{a, b, c} {
		s.Finish(m, us(int64(20+i)))
	}
	exs := s.Take()
	if len(exs) != 3 {
		t.Fatalf("kept %d exemplars, want 3", len(exs))
	}
	for i, e := range exs {
		if e.At(StageDurIssue) != us(10) {
			t.Fatalf("member %d missing chained dur-issue stamp", i)
		}
	}
	// Chaining an inactive member must not sever the chain.
	if got := Chain(a, Ctx{}); got != a {
		t.Fatal("chaining zero member changed head")
	}
}

func TestAttributeTopSumsToTotal(t *testing.T) {
	// Sweep every subset of interior boundaries: the partition identity
	// must hold regardless of which stamps landed.
	for mask := 0; mask < 8; mask++ {
		e := Exemplar{}
		e.Stamps[StageAdmit] = us(100)
		e.Mask = 1 << StageAdmit
		if mask&1 != 0 {
			e.Stamps[StageGCEnqueue] = us(130)
			e.Mask |= 1 << StageGCEnqueue
		}
		if mask&2 != 0 {
			e.Stamps[StageDurIssue] = us(150)
			e.Mask |= 1 << StageDurIssue
		}
		if mask&4 != 0 {
			e.Stamps[StageDurDone] = us(180)
			e.Mask |= 1 << StageDurDone
		}
		e.Stamps[StageAck] = us(200)
		e.Mask |= 1 << StageAck
		e.Total = sim.Duration(us(200) - us(100))
		d := AttributeTop(e)
		var sum sim.Duration
		for _, v := range d {
			if v < 0 {
				t.Fatalf("mask %b: negative segment %v", mask, d)
			}
			sum += v
		}
		if sum != e.Total {
			t.Fatalf("mask %b: segments sum to %d, want %d (%v)", mask, sum, e.Total, d)
		}
	}
}

func TestAttributeSubSumsToDurability(t *testing.T) {
	e := Exemplar{}
	set := func(s Stage, at sim.Time) {
		e.Stamps[s] = at
		e.Mask |= 1 << s
	}
	set(StageAdmit, us(0))
	set(StageGCEnqueue, us(10))
	set(StageDurIssue, us(20))
	set(StageBlockQueue, us(25)) // data writeback races the journal
	set(StageJournalDispatch, us(30))
	set(StageBlockDispatch, us(35))
	set(StageDevStart, us(40))
	set(StageDevDone, us(70))
	set(StageDurDone, us(80))
	set(StageAck, us(90))
	e.Total = sim.Duration(us(90))
	top := AttributeTop(e)
	sub := AttributeSub(e)
	var subSum sim.Duration
	for _, v := range sub {
		if v < 0 {
			t.Fatalf("negative sub segment %v", sub)
		}
		subSum += v
	}
	if subSum != top[TopDurability] {
		t.Fatalf("sub segments sum to %d, want durability window %d", subSum, top[TopDurability])
	}
	if sub[SubDevice] != sim.Duration(us(70)-us(40)) {
		t.Fatalf("device segment = %d", sub[SubDevice])
	}
}

func TestSamplerTailKeepsSlowest(t *testing.T) {
	s := NewSampler(Config{TopK: 2, Window: 100 * sim.Microsecond})
	// One window of ten requests with distinct latencies 1..10us.
	for i := 1; i <= 10; i++ {
		c := s.Admit(us(0))
		s.Finish(c, us(int64(i)))
	}
	// Cross into the next window to flush, then drain.
	c := s.Admit(us(200))
	s.Finish(c, us(201))
	exs := s.Take()
	var tails []sim.Duration
	for _, e := range exs {
		if e.Tail {
			tails = append(tails, e.Total)
		}
	}
	want := map[sim.Duration]bool{
		sim.Duration(us(10)): true,
		sim.Duration(us(9)):  true,
	}
	found := 0
	for _, tot := range tails {
		if want[tot] {
			found++
		}
	}
	if found != 2 {
		t.Fatalf("tail exemplars %v do not contain the two slowest", tails)
	}
}

func TestSamplerUniform(t *testing.T) {
	s := NewSampler(Config{Uniform: 4, TopK: 1, Window: sim.Duration(us(1_000_000))})
	for i := 0; i < 40; i++ {
		c := s.Admit(us(int64(i)))
		s.Finish(c, us(int64(i)+1))
	}
	exs := s.Take()
	uniform := 0
	for _, e := range exs {
		if !e.Tail {
			uniform++
		}
	}
	if uniform != 10 {
		t.Fatalf("kept %d uniform exemplars, want 10", uniform)
	}
}

func TestSamplerMaxCap(t *testing.T) {
	s := NewSampler(Config{Uniform: 1, Max: 5, TopK: 1, Window: sim.Duration(us(1_000_000))})
	for i := 0; i < 20; i++ {
		c := s.Admit(us(int64(i)))
		s.Finish(c, us(int64(i)+1))
	}
	if got := len(s.Take()); got != 5 {
		t.Fatalf("kept %d exemplars, want capped 5", got)
	}
	if s.Dropped() == 0 {
		t.Fatal("cap overflow not counted")
	}
}

// onProc runs body as the one proc of a fresh kernel.
func onProc(t *testing.T, body func(p *sim.Proc)) {
	t.Helper()
	k := sim.NewKernel()
	defer k.Close()
	ran := false
	k.Spawn("p", func(p *sim.Proc) { body(p); ran = true })
	k.Run()
	if !ran {
		t.Fatal("proc body did not finish")
	}
}

func TestProcSlot(t *testing.T) {
	onProc(t, func(p *sim.Proc) {
		if got := Of(p); got != (Ctx{}) {
			t.Fatalf("fresh proc reads %+v, want the zero Ctx", got)
		}
		s := NewSampler(Config{Uniform: 1})
		c := s.Admit(us(1))
		if prev := With(p, c); prev != (Ctx{}) {
			t.Fatalf("With replaced %+v, want the zero Ctx", prev)
		}
		if got := Of(p); got != c || !got.Active() {
			t.Fatalf("Of = %+v, want the active %+v", got, c)
		}
		if prev := With(p, Ctx{}); prev != c {
			t.Fatalf("With replaced %+v, want %+v", prev, c)
		}
		if got := Of(p); got.Active() {
			t.Fatal("cleared slot reads an active Ctx")
		}
		With(p, c)
		s.Finish(c, us(2))
		if Of(p).Active() {
			t.Fatal("slot context still active after Finish recycled its record")
		}
	})
}

func TestProcSlotAllocatesNothing(t *testing.T) {
	onProc(t, func(p *sim.Proc) {
		c := NewSampler(Config{}).Admit(us(1))
		if n := testing.AllocsPerRun(100, func() {
			With(p, c)
			_ = Of(p)
			With(p, Ctx{})
		}); n != 0 {
			t.Fatalf("With+Of allocate %v times per run, want 0", n)
		}
	})
}

func TestSamplerPoolsRecords(t *testing.T) {
	s := NewSampler(Config{})
	c1 := s.Admit(us(1))
	r1 := c1.rec
	s.Finish(c1, us(2))
	c2 := s.Admit(us(3))
	if c2.rec != r1 {
		t.Fatal("record not recycled through the pool")
	}
	if c2.rec.mask != 1<<StageAdmit {
		t.Fatalf("recycled record carries stale stamps: mask %b", c2.rec.mask)
	}
}
