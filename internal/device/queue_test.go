package device

import (
	"fmt"
	"math/rand"
	"path"
	"testing"

	"repro/internal/sim"
)

// rescanEligible is the seed's eligibility predicate, kept as the oracle for
// the incremental ready set: it decides whether c may begin service by
// rescanning every command the device holds (queued or in service) for an
// earlier one of the same stream that the SCSI rules make c wait for. A
// read waits for nothing.
func rescanEligible(c *Command, held []*Command) bool {
	if c.Kind == CmdRead {
		return true
	}
	for _, o := range held {
		if o.Stream != c.Stream || o.seq >= c.seq {
			continue
		}
		switch c.Prio {
		case PrioOrdered:
			return false // only after everything received before it
		case PrioSimple:
			if o.Prio != PrioSimple {
				return false // must not pass an earlier ordered/head-of-queue command
			}
		}
	}
	return true
}

// queueOracle shadows a device's command queue from the outside (submits it
// saw accepted, completions it saw fire) and checks the device's incremental
// bookkeeping against a rescan after every one of them.
type queueOracle struct {
	t          *testing.T
	d          *Device
	held       []*Command            // accepted and not yet completed, in seq order
	readySince map[*Command]sim.Time // first instant a command was seen ready
	byStream   map[uint64][]*Command // every accepted command, per stream, in seq order
	done       map[*Command]bool
	failed     bool // a check failed: the run is stopped, later checks are moot
}

func newQueueOracle(t *testing.T, d *Device) *queueOracle {
	return &queueOracle{t: t, d: d, readySince: map[*Command]sim.Time{},
		byStream: map[uint64][]*Command{}, done: map[*Command]bool{}}
}

func (o *queueOracle) submitted(c *Command) {
	o.held = append(o.held, c)
	o.byStream[c.Stream] = append(o.byStream[c.Stream], c)
	o.check("submit")
}

func (o *queueOracle) completed(c *Command) {
	for i, h := range o.held {
		if h == c {
			o.held = append(o.held[:i], o.held[i+1:]...)
			break
		}
	}
	// SCSI order, observed from outside: when c completes, every earlier
	// command of its stream that c had to wait for has completed (a read
	// waits for none).
	for _, e := range o.byStream[c.Stream] {
		if e.seq >= c.seq {
			break
		}
		waits := c.Kind != CmdRead &&
			(c.Prio == PrioOrdered || (c.Prio == PrioSimple && e.Prio != PrioSimple))
		if waits && !o.done[e] {
			o.t.Errorf("stream %d: %v seq %d completed before earlier %v seq %d",
				c.Stream, c.Prio, c.seq, e.Prio, e.seq)
		}
	}
	o.done[c] = true
	delete(o.readySince, c)
	o.check("complete")
}

func (o *queueOracle) check(when string) {
	d, now := o.d, o.d.k.Now()
	if d.dead || o.failed {
		return
	}
	if d.occupancy != len(o.held) {
		o.fail("%s @%v: occupancy %d, oracle holds %d", when, now, d.occupancy, len(o.held))
		return
	}
	want, hoq := 0, 0
	for _, c := range o.held {
		if c.state == cmdInService {
			delete(o.readySince, c)
			continue
		}
		elig := rescanEligible(c, o.held)
		if elig != (c.state == cmdReady) {
			o.fail("%s @%v: stream %d %v seq %d: rescan says eligible=%v, device state %d",
				when, now, c.Stream, c.Prio, c.seq, elig, c.state)
			return
		}
		if !elig {
			continue
		}
		want++
		if c.Prio == PrioHeadOfQueue {
			hoq++
		}
		// No lost wakeup: a ready command is picked within the instant it
		// became ready, so none is ever seen ready at two instants.
		if since, seen := o.readySince[c]; seen && since != now {
			o.fail("%s @%v: seq %d ready since %v and still not in service", when, now, c.seq, since)
			return
		}
		o.readySince[c] = now
	}
	if len(d.ready) != want || d.readyHoQ != hoq {
		o.fail("%s @%v: ready set has %d (%d head-of-queue), rescan finds %d (%d)",
			when, now, len(d.ready), d.readyHoQ, want, hoq)
		return
	}
	for i, c := range d.ready {
		if c.state != cmdReady || (i > 0 && d.ready[i-1].seq >= c.seq) {
			o.fail("%s @%v: ready set not a seq-ordered list of ready commands at %d", when, now, i)
			return
		}
	}
	if d.pickers < len(d.ready) {
		o.fail("%s @%v: %d ready commands but only %d workers on their way to pick",
			when, now, len(d.ready), d.pickers)
	}
}

// fail reports a failed check and stops the simulation. Checks run inside
// simulated procs; t.Fatal there would end the test just as well (it
// surfaces on the Run caller), Stop lets the caller report where it stood.
func (o *queueOracle) fail(format string, args ...any) {
	o.t.Helper()
	o.t.Errorf(format, args...)
	o.failed = true
	o.d.k.Stop()
}

// randomCommand draws one command of the property test's mix: all three
// priorities, writes (plain, barrier, FUA, PreFlush), reads and flushes.
func randomCommand(rng *rand.Rand, stream uint64) *Command {
	c := &Command{Stream: stream, LPA: stream<<16 | uint64(rng.Intn(64)), Data: rng.Int63()}
	switch r := rng.Intn(100); {
	case r < 60:
		c.Prio = PrioSimple
	case r < 90:
		c.Prio = PrioOrdered
	default:
		c.Prio = PrioHeadOfQueue
	}
	switch r := rng.Intn(100); {
	case r < 70:
		c.Kind = CmdWrite
		c.Barrier = c.Prio == PrioOrdered && rng.Intn(2) == 0
		c.FUA = rng.Intn(8) == 0
		c.PreFlush = rng.Intn(16) == 0
	case r < 88:
		c.Kind = CmdRead
	case r < 96:
		c.Kind = CmdFlush
	default:
		c.Kind = CmdBarrier
	}
	return c
}

// driveRandomStreams spawns one submitter per stream (two on stream 0, so a
// stream also sees interleaved hosts) issuing perHost random commands each,
// and reports submits and completions to the oracle.
func driveRandomStreams(k *sim.Kernel, d *Device, o *queueOracle, seed int64, perHost int, completed *int) {
	for h, stream := range []uint64{0, 0, 1, 2} {
		rng := rand.New(rand.NewSource(seed<<8 + int64(h)))
		k.SpawnIdx("host", h, func(p *sim.Proc) {
			for i := 0; i < perHost; i++ {
				c := randomCommand(rng, stream)
				c.Done = func(sim.Time, *Command) {
					*completed++
					o.completed(c)
				}
				for !d.Submit(c) {
					if d.Dead() {
						return
					}
					d.WaitSpace(p)
				}
				o.submitted(c)
				if rng.Intn(3) > 0 { // otherwise submit back to back, in the same instant
					p.Advance(sim.Duration(rng.Intn(40)) * sim.Microsecond)
				}
			}
		})
	}
}

// propertyKernels runs a device property in two subtests, each on fresh
// sim.NewKernels with the dispatch trace kept and handed to body. "handler"
// runs the property once. "reference" runs it twice and requires the second
// run to dispatch exactly the events of the first, so that the property's
// outcome rests on the kernel's event order and on nothing else (map order,
// wall time, state left over from an earlier run). param names the case
// below either subtest; it may be empty.
func propertyKernels(t *testing.T, param string, body func(t *testing.T, k *sim.Kernel, tr *sim.Trace)) {
	run := func(t *testing.T) *sim.Trace {
		k := sim.NewKernel()
		defer k.Close()
		tr := k.StartTrace(true)
		body(t, k, tr)
		return tr
	}
	t.Run(path.Join("handler", param), func(t *testing.T) { run(t) })
	t.Run(path.Join("reference", param), func(t *testing.T) {
		a := run(t)
		if t.Failed() {
			return
		}
		if b := run(t); a.Len() != b.Len() || a.Hash() != b.Hash() {
			t.Errorf("a second run dispatched %d events (hash %016x), the first %d (hash %016x)",
				b.Len(), b.Hash(), a.Len(), a.Hash())
		}
	})
}

func propertyConfig(seed int64) Config {
	cfg := tinyConfig()
	cfg.QueueDepth = 8
	cfg.CachePages = 24 // small enough that cache admission stalls too
	cfg.Seed = seed
	return cfg
}

// TestReadySetMatchesRescanOracle is the exactness property of the command
// service: after every submit and every completion the incremental ready set
// equals what the seed's rescanning predicate computes over the whole queue,
// every ready command has a worker on its way and enters service within the
// instant it became eligible, and completions respect SCSI order per stream.
func TestReadySetMatchesRescanOracle(t *testing.T) {
	const perHost = 120
	for _, seed := range []int64{1, 2, 3, 7, 11, 42} {
		propertyKernels(t, fmt.Sprintf("seed%d", seed), func(t *testing.T, k *sim.Kernel, _ *sim.Trace) {
			d := New(k, propertyConfig(seed))
			o := newQueueOracle(t, d)
			completed := 0
			driveRandomStreams(k, d, o, seed, perHost, &completed)
			k.Run()
			if o.failed {
				return
			}
			if completed != 4*perHost || len(o.held) != 0 {
				t.Fatalf("completed %d of %d commands, %d still held", completed, 4*perHost, len(o.held))
			}
			// The one futile wake left: a worker completing in the same
			// instant re-picks inline and takes the command a woken
			// worker was on its way to.
			if f := d.Stats().FutileWakes; f > 4*perHost/50 {
				t.Errorf("%d futile worker wakes for %d commands, want at most 2%%", f, 4*perHost)
			}
		})
	}
}

// TestCrashMidRunStandsDown crashes the device in the middle of the random
// mix: every worker, daemon and host must observe death and stand down (Run
// returns with nothing runnable, Close reaps every parked proc).
func TestCrashMidRunStandsDown(t *testing.T) {
	for _, crashUs := range []int{150, 900, 2500} {
		propertyKernels(t, fmt.Sprintf("crash@%dus", crashUs), func(t *testing.T, k *sim.Kernel, _ *sim.Trace) {
			d := New(k, propertyConfig(5))
			o := newQueueOracle(t, d)
			completed := 0
			driveRandomStreams(k, d, o, 5, 200, &completed)
			k.RunUntil(sim.Time(sim.Duration(crashUs) * sim.Microsecond))
			before := completed
			d.Crash()
			k.Run()
			if completed != before {
				t.Errorf("%d commands completed on a dead device", completed-before)
			}
			if d.Submit(&Command{Kind: CmdWrite}) || d.occupancy != 0 {
				t.Error("dead device accepted a command or still reports occupancy")
			}
			k.Close() // panics if a proc survives
		})
	}
}

// driveOrderedStream is the peel ladder's device rung: n 4 KB writes in
// epochs of eight, the eighth an ordered barrier write, from a single host
// that recycles its commands from Done.
func driveOrderedStream(k *sim.Kernel, d *Device, n int) {
	var free []*Command
	recycle := func(_ sim.Time, c *Command) { free = append(free, c) }
	k.Spawn("host", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			var c *Command
			if m := len(free); m > 0 {
				c, free = free[m-1], free[:m-1]
			} else {
				c = new(Command)
			}
			*c = Command{Kind: CmdWrite, LPA: uint64(i % 2048), Data: i, Done: recycle}
			if i%8 == 7 {
				c.Barrier, c.Prio = true, PrioOrdered
			}
			for !d.Submit(c) {
				d.WaitSpace(p)
			}
		}
	})
}

// TestOrderedStreamEventBudget pins the cost of a command in kernel events,
// a seeded count that repeats exactly: the ordered stream on the NVMe-class
// device must stay within 12 dispatches per command (106 before the exact
// wake) with at most 1 % of the commands' worth of futile worker wakes.
func TestOrderedStreamEventBudget(t *testing.T) {
	const n = 4000
	k := sim.NewKernel()
	defer k.Close()
	ks := &sim.KernelStats{}
	k.AttachStats(ks)
	d := New(k, NVMeSSD())
	driveOrderedStream(k, d, n)
	k.Run()
	if got := d.Stats().Writes; got != n {
		t.Fatalf("%d of %d writes serviced", got, n)
	}
	events := ks.HandlerDispatches.Load() + ks.GoroutineDispatches.Load()
	if perCmd := float64(events) / n; perCmd > 12 {
		t.Errorf("%.2f kernel events per command, budget 12", perCmd)
	}
	if futile := d.Stats().FutileWakes; futile > n/100 {
		t.Errorf("%d futile worker wakes for %d commands, budget %d", futile, n, n/100)
	}
}

// TestCacheEntriesRecycled checks the entry pool's ownership story: the
// cache never holds more entries than pages, a long run allocates no more
// entries than were ever cached at once, and FUA writers (who free their own
// entry) do not leak or double-free.
func TestCacheEntriesRecycled(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	cfg := tinyConfig()
	d := New(k, cfg)
	const n = 2000
	k.Spawn("host", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			c := &Command{Kind: CmdWrite, LPA: uint64(i % 40), Data: i, FUA: i%5 == 0}
			for !d.Submit(c) {
				d.WaitSpace(p)
			}
		}
		submitWait(p, d, &Command{Kind: CmdFlush, Prio: PrioHeadOfQueue})
	})
	k.Run()
	if d.cachePages != 0 || d.cacheHead != nil || d.flightHead != nil || d.wbNext != nil {
		t.Fatalf("cache not empty after flush: %d pages", d.cachePages)
	}
	pooled := 0
	for e := d.freeEntries; e != nil; e = e.next {
		if pooled++; pooled > cfg.CachePages {
			break
		}
	}
	if pooled == 0 || pooled > cfg.CachePages {
		t.Errorf("free list holds %d entries after %d writes; want between 1 and the cache size %d",
			pooled, n, cfg.CachePages)
	}
}

// TestFUADurableAcrossSealStall: a FUA write must not complete before its
// page is on the medium, also when the FTL appender is stalled on the
// segment seal barrier at that moment. (The scanning reaper took an entry
// whose append had not been issued yet for index 0 and retired it early.)
func TestFUADurableAcrossSealStall(t *testing.T) {
	k := sim.NewKernel()
	cfg := tinyConfig()
	cfg.CachePages = 1024
	d := New(k, cfg)
	early := 0
	k.Spawn("host", func(p *sim.Proc) {
		for i := 0; i < 2000; i++ {
			lpa, val := uint64(i), i
			c := &Command{Kind: CmdWrite, LPA: lpa, Data: val, FUA: i%3 == 0}
			if c.FUA {
				c.Done = func(sim.Time, *Command) {
					if got, ok := d.FTL().DurableData(lpa); !ok || got != val {
						early++
					}
				}
			}
			for !d.Submit(c) {
				d.WaitSpace(p)
			}
		}
	})
	k.Run()
	if d.FTL().Stats().Stalls == 0 {
		t.Error("the run never stalled on the seal barrier; the test lost its subject")
	}
	if early > 0 {
		t.Errorf("%d FUA writes completed before their page was durable", early)
	}
	k.Close()
}
