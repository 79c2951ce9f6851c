package crashmc

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/fs"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// imageLog is a checker that reports nothing and remembers every state it
// is shown by what survived in it: the replayed journal transactions and
// the recovered page versions of every file.
type imageLog struct {
	fs     *fs.FS
	images map[string]bool
}

func (l *imageLog) part(_ *sim.Kernel, s *core.Stack) []Checker {
	l.fs, l.images = s.FS, make(map[string]bool)
	return []Checker{l}
}

func (l *imageLog) Name() string { return "image-log" }

func (l *imageLog) Check(st *State) []Violation {
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
// reports the enumeration reports too. (internal/crashtest carries the
// same helper for the multi-queue regression workloads declared there.)
func underBoth(t *testing.T, prof core.Profile, at sim.Time, parts ...Part) (sampled, all Result) {
	t.Helper()
	var log imageLog
	w := OnStack(prof, append(parts, log.part)...)
	sampled = Sample(w, at)
	one := log.images
	all = Enumerate(w, Config{CrashAt: at, MaxStates: 256, Samples: 32,
		Log: func(f string, a ...any) { t.Logf(prof.Name+": "+f, a...) }})
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

// TestQuantifiersAgree runs every workload declared in this package under
// both quantifiers at the same crash instant (the multi-queue regression
// workloads get the same treatment where they are declared, in
// internal/crashtest): they agree, both are clean on the barrier stack,
// and on a nobarrier mount over a legacy device the enumeration finds the
// loss.
func TestQuantifiersAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("kv and cluster model checking in -short mode")
	}
	ring, slices := clusterTraffic(3)
	for _, c := range []struct {
		name  string
		us    int
		parts []Part
	}{
		{"durability", 2500, []Part{Durability}},
		{"ordering", 2500, []Part{Ordering(0)}},
		{"kv", 20000, []Part{KV(2)}},
		{"cluster shard", 20000, []Part{clusterShard(ring, 0, slices[0])}},
		{"ordering+sparse", 4000, []Part{Ordering(0), sparseWriter(nil)}},
	} {
		sampled, all := underBoth(t, CompactJournal(core.BFSDR(device.PlainSSD()), 512), at(c.us), c.parts...)
		for _, res := range []Result{sampled, all} {
			if !res.Ok() {
				t.Errorf("%s: %v: %v", c.name, res, res.Violations)
			}
		}
		_, all = underBoth(t, CompactJournal(core.EXT4OD(device.LegacySSD()), 512), at(c.us), c.parts...)
		if all.Ok() {
			t.Errorf("%s: no admissible state of the unsafe stack violates anything: %v", c.name, all)
		}
	}
}

// TestSamplesCounted: N sampled instants of any workload move the live
// crashmc/samples counter by N.
func TestSamplesCounted(t *testing.T) {
	reg := metrics.NewRegistry()
	metrics.SetLive(reg)
	defer metrics.SetLive(nil)
	samples := reg.Counter("crashmc/samples")
	ring, slices := clusterTraffic(3)
	prof := core.BFSDR(device.PlainSSD())
	for _, c := range []struct {
		name string
		w    Workload
	}{
		{"durability", OnStack(prof, Durability)},
		{"ordering sweep", OrderingSweep(core.BFSOD(device.PlainSSD()))},
		{"ordering", OnStack(prof, Ordering(0))},
		{"kv", OnStack(prof, KV(2))},
		{"cluster shard", OnStack(prof, clusterShard(ring, 0, slices[0]))},
	} {
		before := samples.Value()
		times := []sim.Time{at(300), at(900), at(2000)}
		Sweep(c.w, times)
		if got := samples.Value() - before; got != int64(len(times)) {
			t.Errorf("%s: %d sampled instants moved crashmc/samples by %d", c.name, len(times), got)
		}
	}
}
