package kvwal

import (
	"fmt"
	"testing"
	"unsafe"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/sim"
)

// TestCompactionRecyclesRetiredRuns drives a small store that flushes and
// compacts often. The recovery shadow stays bounded: it holds the live
// segments, the compaction's inputs and the segments a manifest from the
// durable one on names, plus at most one finished compaction's inputs,
// which the next durable manifest retires. Where every manifest is durable
// at publish (EXT4), each merged run after the third compaction lands in an
// array a retired segment held.
func TestCompactionRecyclesRetiredRuns(t *testing.T) {
	for _, prof := range []core.Profile{core.EXT4DR(device.PlainSSD()), core.BFSDR(device.PlainSSD())} {
		ext4 := prof.Name == "EXT4-DR"
		k, s := newStack(t, prof)
		cfg := Config{WALPages: 64, MemtableCap: 16, CompactFanIn: 2, CheckpointEvery: 4}
		owner := make(map[*segEnt]*segment) // array base -> the last segment seen holding it
		recycled := make(map[*segment]bool) // segments seen holding an array a retired one held
		var compactions, reused int64
		k.Spawn("app", func(p *sim.Proc) {
			st, err := Open(p, s, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 1500; i++ {
				put(p, st, fmt.Sprintf("k%03d", i*7%40))
				for _, seg := range st.shadow {
					base := unsafe.SliceData(seg.entries)
					if prev := owner[base]; prev != seg {
						if prev != nil && prev.entries != nil {
							t.Fatalf("%s: segment %d shares its array with segment %d, which is not retired",
								prof.Name, seg.id, prev.id)
						}
						recycled[seg] = prev != nil
						owner[base] = seg
					}
				}
				if c := st.stats.Compactions; c > compactions {
					compactions = c
					if recycled[st.segs[0]] {
						reused++
					} else if c > 3 && ext4 {
						t.Errorf("%s: compaction %d merged into a new array", prof.Name, c)
					}
				}
				named := make(map[*segment]bool)
				for _, segs := range [][]*segment{st.segs, st.compIn} {
					for _, seg := range segs {
						named[seg] = true
					}
				}
				for v, m := range st.manifestHist {
					if v < st.durableVer {
						t.Fatalf("%s: manifest v%d kept below the durable v%d", prof.Name, v, st.durableVer)
					}
					for _, seg := range m.segs {
						named[seg] = true
					}
				}
				if len(st.shadow) > len(named)+cfg.CompactFanIn+1 {
					t.Fatalf("%s: shadow holds %d segments; live, compacting and retained-manifest ones are %d",
						prof.Name, len(st.shadow), len(named))
				}
			}
			k.Stop()
		})
		k.Run()
		k.Close()
		if compactions < 8 {
			t.Fatalf("%s: %d compactions, want at least 8", prof.Name, compactions)
		}
		t.Logf("%s: %d of %d merged runs in recycled arrays", prof.Name, reused, compactions)
	}
}
