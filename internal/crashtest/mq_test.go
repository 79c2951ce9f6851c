package crashtest

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/crashmc"
	"repro/internal/device"
	"repro/internal/fs"
	"repro/internal/jbd"
	"repro/internal/sim"
)

// The multi-queue regressions. Each workload is declared once, as a
// crashmc.Part, and audited under both quantifiers at the same crash
// instant: the one state the simulator produced (the regression as first
// written) and then every state the device may legally expose there, up to
// a cap that is logged when it trips.

// pointDeadline bounds the workloads whose crash instant is a program
// point: power fails where the app proc stops the kernel, and a run that
// has not got there by this virtual time has hung.
const pointDeadline = sim.Time(sim.Second)

// imageLog is a checker that reports nothing and remembers every state it
// is shown by what survived in it: the replayed journal transactions and
// the recovered page versions of every file.
type imageLog struct {
	fs     *fs.FS
	images map[string]bool
}

func (l *imageLog) part(_ *sim.Kernel, s *core.Stack) []crashmc.Checker {
	l.fs, l.images = s.FS, make(map[string]bool)
	return []crashmc.Checker{l}
}

func (l *imageLog) Name() string { return "image-log" }

func (l *imageLog) Check(st *crashmc.State) []crashmc.Violation {
	var b strings.Builder
	fmt.Fprint(&b, st.View.Journal().Applied)
	if root, ok := st.View.Root(l.fs); ok {
		names := make([]string, 0, len(root.Entries))
		for name := range root.Entries {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			meta, ok := st.View.Lookup(root, name)
			fmt.Fprintf(&b, " %s/%v:", name, ok)
			for idx := range meta.Blocks {
				ver, _ := st.View.PageVersion(meta, int64(idx))
				fmt.Fprintf(&b, "%d,", ver)
			}
		}
	}
	l.images[b.String()] = true
	return nil
}

// underBoth runs parts on prof to the crash instant twice — sampled, then
// enumerated — and checks the quantifiers agree: same instant, the sampled
// image is one of the enumerated images, and every violation the sample
// reports the enumeration reports too.
func underBoth(t *testing.T, prof core.Profile, at sim.Time, parts ...crashmc.Part) (sampled, all crashmc.Result) {
	t.Helper()
	var log imageLog
	w := crashmc.OnStack(prof, append(parts, log.part)...)
	sampled = crashmc.Sample(w, at)
	one := log.images
	budget := crashmc.Config{CrashAt: at, MaxStates: 256, Samples: 32,
		Log: func(f string, a ...any) { t.Logf(prof.Name+": "+f, a...) }}
	if testing.Short() {
		// Every image pays a scan of the full-size journal these profiles
		// keep; -short (CI's -race run) looks at a quarter as many.
		budget.MaxStates, budget.Samples = 64, 8
	}
	all = crashmc.Enumerate(w, budget)
	t.Logf("sampled: %v", sampled)
	t.Logf("enumerated: %v", all)
	if sampled.CrashAt != all.CrashAt || sampled.Volatile != all.Volatile {
		t.Errorf("%s: the quantifiers crashed at different instants: %v vs %v", prof.Name, sampled, all)
	}
	for image := range one {
		if len(one) != 1 || !log.images[image] {
			t.Errorf("%s crash@%v: the sampled image (%d audited) is not among the %d enumerated ones",
				prof.Name, sampled.CrashAt, len(one), len(log.images))
		}
	}
	if sampled.Durability > all.Durability || sampled.Ordering > all.Ordering || sampled.Consistency > all.Consistency {
		t.Errorf("%s crash@%v: the sample reports violations the enumeration does not: %v vs %v",
			prof.Name, sampled.CrashAt, sampled, all)
	}
	return sampled, all
}

func requireClean(t *testing.T, results ...crashmc.Result) {
	t.Helper()
	for _, res := range results {
		if !res.Ok() {
			t.Errorf("%v: %v", res, res.Violations)
		}
	}
}

// orderedData audits the ordered-mode contract on files written through
// background writeback: any block their recovered (journal-committed)
// metadata references must have durable data.
type orderedData struct {
	fs    *fs.FS
	files []string
}

func (c *orderedData) Name() string { return "ordered-data" }

func (c *orderedData) Check(st *crashmc.State) []crashmc.Violation {
	root, ok := st.View.Root(c.fs)
	if !ok {
		return nil
	}
	var out []crashmc.Violation
	for _, name := range c.files {
		meta, ok := st.View.Lookup(root, name)
		if !ok {
			continue // creation never committed: nothing promised
		}
		for idx := int64(0); idx < int64(len(meta.Blocks)); idx++ {
			if meta.Blocks[idx] == 0 {
				continue
			}
			if _, ok := st.View.PageVersion(meta, idx); !ok {
				out = append(out, crashmc.Violation{Kind: crashmc.KindOrdering, Detail: fmt.Sprintf(
					"%s page %d: committed metadata references a block with no durable data (ordered-mode violation)", name, idx)})
			}
		}
	}
	return out
}

// mqBackground crashes a multi-queue stack while background writeback is
// in full flight: one foreground thread writes and fsyncs its own file
// while bulk writers push pages through WritebackAsync — the traffic the MQ
// layer scatters onto data streams. It audits two contracts:
//
//  1. durability: every fsync-acknowledged foreground write survives;
//  2. on the Dual engine: any block the recovered (journal-committed)
//     metadata of a bulk file references must have durable data —
//     committed metadata pointing at never-written pages is exactly the
//     D-before-JD violation that per-stream scattering would reintroduce
//     if the journal did not wait on cross-stream data dependencies.
//
// Check 2 is not applied to the JBD2 engine: the seed's JBD2 model freezes
// a transaction's metadata without writing back the covered inodes' still-
// dirty pages (real ext4-ordered does commit-time inode writeback), so a
// commit can land between Write() and WritebackAsync() and reference data
// that was never submitted — a pre-existing single-queue window (EXT4-DR
// exhibits it on this very workload) that the multi-queue layer neither
// causes nor widens.
func mqBackground(k *sim.Kernel, s *core.Stack) []crashmc.Checker {
	bulk := &orderedData{fs: s.FS}
	for b := 0; b < 2; b++ {
		name := fmt.Sprintf("bulk%d.dat", b)
		bulk.files = append(bulk.files, name)
		k.Spawn(fmt.Sprintf("bulk%d", b), func(p *sim.Proc) {
			f, err := s.FS.Create(p, s.FS.Root(), name)
			if err != nil {
				panic(err)
			}
			for n := int64(0); ; n++ {
				for i := 0; i < 16; i++ {
					s.FS.Write(p, f, n*16+int64(i))
				}
				s.FS.WritebackAsync(p, f)
			}
		})
	}
	fg := &crashmc.DurabilityChecker{FS: s.FS, File: "fg.dat"}
	k.Spawn("foreground", func(p *sim.Proc) {
		f, err := s.FS.Create(p, s.FS.Root(), fg.File)
		if err != nil {
			panic(err)
		}
		for i := int64(0); ; i++ {
			s.FS.Write(p, f, i)
			s.FS.Fsync(p, f)
			ver, _ := s.FS.Read(p, f, i)
			fg.Synced = append(fg.Synced, crashmc.AckedWrite{Idx: i, Ver: ver})
		}
	})
	if s.Profile.FS.Journal.Mode != jbd.ModeDual {
		return []crashmc.Checker{fg}
	}
	return []crashmc.Checker{fg, bulk}
}

// TestMQCrashUnderBackgroundLoad sweeps crash points on both multi-queue
// stacks while background writeback is being scattered across streams.
func TestMQCrashUnderBackgroundLoad(t *testing.T) {
	for _, mk := range []func(device.Config) core.Profile{core.EXT4DR, core.EXT4MQ, core.BFSMQ} {
		for _, at := range times(800, 2500, 7000, 16000, 30000) {
			sampled, all := underBoth(t, mk(device.NVMeSSD()), at, mqBackground)
			requireClean(t, sampled, all)
		}
	}
}

// ackAll records the current version of pages 0..pages-1 of f as
// acknowledged.
func ackAll(p *sim.Proc, s *core.Stack, f *fs.Inode, pages int64, chk *crashmc.DurabilityChecker) {
	for i := int64(0); i < pages; i++ {
		ver, _ := s.FS.Read(p, f, i)
		chk.Synced = append(chk.Synced, crashmc.AckedWrite{Idx: i, Ver: ver})
	}
}

// spreadFsync overwrites a settled file, pushes the pages through
// background writeback and fdatasyncs; power fails the instant fdatasync's
// promise is made. *reached counts the runs that got there.
func spreadFsync(reached *int) crashmc.Part {
	const pages = 64
	return func(k *sim.Kernel, s *core.Stack) []crashmc.Checker {
		chk := &crashmc.DurabilityChecker{FS: s.FS, File: "spread.dat"}
		k.Spawn("app", func(p *sim.Proc) {
			f, err := s.FS.Create(p, s.FS.Root(), chk.File)
			if err != nil {
				panic(err)
			}
			for i := int64(0); i < pages; i++ {
				s.FS.Write(p, f, i)
			}
			s.FS.Fsync(p, f) // settle allocation: the rest is pure overwrite
			// Overwrites in the same jiffy dirty no metadata, so the coming
			// fdatasync takes the no-commit path — the journal's ordered-data
			// dependencies cannot save it; only the fdatawait can.
			for i := int64(0); i < pages; i++ {
				s.FS.Write(p, f, i)
			}
			s.FS.WritebackAsync(p, f) // scattered onto data streams, pages now clean
			s.FS.Fdatasync(p, f)
			ackAll(p, s, f, pages, chk)
			*reached++
			k.Stop() // power fails the instant fdatasync's promise is made
		})
		return []crashmc.Checker{chk}
	}
}

// TestMQFsyncCoversSpreadWriteback pins the filemap_fdatawait contract on
// the multi-queue stacks: pages submitted through background writeback are
// marked clean at submission and may still be queued on a data stream —
// outside the reach of stream 0's flush — when fsync is called. fsync must
// wait on that in-flight writeback before returning; a crash immediately
// after fsync may lose nothing.
func TestMQFsyncCoversSpreadWriteback(t *testing.T) {
	for _, mk := range []func(device.Config) core.Profile{core.EXT4MQ, core.BFSMQ} {
		prof := mk(device.NVMeSSD())
		reached := 0
		sampled, all := underBoth(t, prof, pointDeadline, spreadFsync(&reached))
		requireClean(t, sampled, all)
		if reached != 2 {
			t.Errorf("%s: %d of 2 runs returned from fdatasync", prof.Name, reached)
		}
	}
}

// spreadFdatabarrier overwrites file A, pushes it through background
// writeback, calls fdatabarrier and then makes a marker in file B durable;
// power fails there. The versions of A the barrier ordered before the
// marker are promised by the durable marker as an fsync would promise
// them. With mq set it also asserts the direct contract on the scattered
// writeback — the requests themselves are recycled at completion, so it is
// asked of the filesystem: Fdatawait right after Fdatabarrier finds nothing
// left to wait for. *reached counts the runs that got to the marker sync.
func spreadFdatabarrier(mq *testing.T, reached *int) crashmc.Part {
	const pages = 64
	return func(k *sim.Kernel, s *core.Stack) []crashmc.Checker {
		chk := &crashmc.DurabilityChecker{FS: s.FS, File: "barrier.dat"}
		k.Spawn("app", func(p *sim.Proc) {
			f, err := s.FS.Create(p, s.FS.Root(), chk.File)
			if err != nil {
				panic(err)
			}
			g, err := s.FS.Create(p, s.FS.Root(), "marker.dat")
			if err != nil {
				panic(err)
			}
			for i := int64(0); i < pages; i++ {
				s.FS.Write(p, f, i)
			}
			s.FS.Write(p, g, 0)
			s.FS.Fsync(p, f) // settle allocation: the rest is pure overwrite
			s.FS.Fsync(p, g)
			// Overwrite and push through background writeback: the requests
			// scatter onto data streams and the pages are already clean when the
			// barrier call arrives, so only waitCrossStream can see them.
			for i := int64(0); i < pages; i++ {
				s.FS.Write(p, f, i)
			}
			var spread0 int64
			if mq != nil {
				spread0 = s.MQ.Stats().Spread
			}
			s.FS.WritebackAsync(p, f)
			if mq != nil && s.MQ.Stats().Spread == spread0 {
				mq.Error("background writeback was not scattered off stream 0; test is vacuous")
			}
			s.FS.Fdatabarrier(p, f)
			// The direct contract: nothing the barrier cannot order may still be
			// in flight when it returns. SpreadOrderless moves every background
			// write off stream 0, so none of the writeback is the barrier's to
			// order, and draining what is left must take no time at all.
			if mq != nil {
				returned := p.Now()
				s.FS.Fdatawait(p, f)
				if p.Now() != returned {
					mq.Errorf("scattered writeback drained at %v, Fdatabarrier returned at %v", p.Now(), returned)
				}
			}
			ackAll(p, s, f, pages, chk)
			// End to end: a durable write to a *different* file is ordered after
			// the barrier; its fdatasync waits on nothing of file A.
			s.FS.Write(p, g, 0)
			s.FS.Fdatasync(p, g)
			*reached++
			k.Stop()
		})
		return []crashmc.Checker{chk}
	}
}

// TestMQFdatabarrierCoversSpreadWriteback pins the same filemap_fdatawait
// contract for the *barrier* path that TestMQFsyncCoversSpreadWriteback
// pins for fsync: fdatabarrier promises that preceding writes reach
// storage before following ones, but pages submitted through background
// writeback may still be queued on a data stream — where stream 0's
// epochs cannot order them — when fdatabarrier is called. fdatabarrierDual
// must Wait-on-Transfer for exactly that in-flight cross-stream writeback
// (waitCrossStream) before the barrier means anything, so the test asserts
// Fdatawait finds the scattered writeback drained the moment Fdatabarrier
// returns, then crash-checks end to end against a second file: the barrier ordered
// file A's writeback before file B's marker, so a durable marker with lost
// A-pages is an ordering violation.
func TestMQFdatabarrierCoversSpreadWriteback(t *testing.T) {
	reached := 0
	sampled, all := underBoth(t, core.BFSMQ(device.NVMeSSD()), pointDeadline, spreadFdatabarrier(t, &reached))
	requireClean(t, sampled, all)
	if reached != 2 {
		t.Fatalf("%d of 2 runs reached the marker sync", reached)
	}
}

// TestDurabilityMQ and TestOrderingMQ run the standard sweeps on the MQ
// stacks: the multi-queue layer must meet the same contracts as the
// single-queue one.
func TestDurabilityMQ(t *testing.T) {
	for _, mk := range []func(device.Config) core.Profile{core.EXT4MQ, core.BFSMQ} {
		sweepClean(t, durability(mk(device.NVMeSSD())), times(500, 2500, 9000, 30000))
	}
}

func TestOrderingMQ(t *testing.T) {
	sweepClean(t, crashmc.OrderingSweep(core.BFSMQ(device.NVMeSSD())),
		times(300, 900, 2000, 4500, 9000, 15000, 25000))
}

// pdflushFsync runs rounds of overwrite + fsync with the pdflush daemon
// writing back underneath, so background writes are in flight under every
// fsync; power fails after the last. *reached counts the runs in which
// every fsync returned; *stack is left at the last run's stack.
func pdflushFsync(reached *int, stack **core.Stack) crashmc.Part {
	const pages, rounds = 256, 8
	return func(k *sim.Kernel, s *core.Stack) []crashmc.Checker {
		*stack = s
		chk := &crashmc.DurabilityChecker{FS: s.FS, File: "pdflush.dat"}
		k.Spawn("app", func(p *sim.Proc) {
			f, err := s.FS.Create(p, s.FS.Root(), chk.File)
			if err != nil {
				panic(err)
			}
			for r := 0; r < rounds; r++ {
				for i := int64(0); i < pages; i++ {
					s.FS.Write(p, f, i)
				}
				s.FS.Fsync(p, f)
			}
			ackAll(p, s, f, pages, chk)
			*reached++
			k.Stop()
		})
		return []crashmc.Checker{chk}
	}
}

// pdflushEvery turns the pdflush daemon on at the interval the regression
// needs: short enough that it runs under every round.
func pdflushEvery(prof core.Profile) core.Profile {
	prof.FS.PdflushInterval = 50 * sim.Microsecond
	return prof
}

// TestMQFsyncCoversPdflushWriteback is TestMQFsyncCoversSpreadWriteback with
// the pdflush daemon as the background writer: its requests are pooled and
// nobody but the block layer and the transaction holds them once they are
// submitted, so an fsync that waits on one (waitCrossStream) races its
// completion for the request's recycling. Rounds of overwrite + fsync keep
// background writes in flight under every fsync; each must return, and a
// crash after the last may lose nothing.
func TestMQFsyncCoversPdflushWriteback(t *testing.T) {
	for _, mk := range []func(device.Config) core.Profile{core.EXT4MQ, core.BFSMQ} {
		prof := pdflushEvery(mk(device.NVMeSSD()))
		reached := 0
		var stack *core.Stack
		sampled, all := underBoth(t, prof, pointDeadline, pdflushFsync(&reached, &stack))
		requireClean(t, sampled, all)
		if reached != 2 {
			t.Fatalf("%s: fsync never returned (a waiter parked on a recycled request)", prof.Name)
		}
		if stack.FS.Stats().PdflushRuns == 0 {
			t.Errorf("%s: pdflush never ran; test is vacuous", prof.Name)
		}
	}
}

// TestMQWorkloadsViolateOnLegacy is the positive control of the four
// workloads above: on a nobarrier mount over a legacy device, where fsync
// acknowledges at transfer and the cache persists in any order, each of
// them must find the loss — under enumeration, and wherever the sample
// does too the enumeration agrees (underBoth).
func TestMQWorkloadsViolateOnLegacy(t *testing.T) {
	legacy := core.EXT4OD(device.LegacySSD())
	var reached int
	var stack *core.Stack
	for _, c := range []struct {
		name string
		prof core.Profile
		at   sim.Time
		part crashmc.Part
	}{
		{"mq-background", legacy, times(2500)[0], mqBackground},
		{"spread-writeback fsync", legacy, pointDeadline, spreadFsync(&reached)},
		{"spread-writeback fdatabarrier", legacy, pointDeadline, spreadFdatabarrier(nil, &reached)},
		{"pdflush fsync", pdflushEvery(legacy), pointDeadline, pdflushFsync(&reached, &stack)},
	} {
		if _, all := underBoth(t, c.prof, c.at, c.part); all.Durability == 0 {
			t.Errorf("%s: no admissible state of the unsafe stack loses acknowledged data: %v", c.name, all)
		}
	}
}
