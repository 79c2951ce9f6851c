package kvwal

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/block"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/fs"
	"repro/internal/sim"
)

// foldCompact is the map-and-sort fold compaction used before it merged
// sorted runs, kept as FuzzCompactMerge's oracle: inputs oldest first, a
// later entry replaces an earlier one only with a strictly newer seq, and
// tombstones are dropped.
func foldCompact(inputs []*segment) []segEnt {
	newest := make(map[string]segEnt)
	for _, seg := range inputs {
		for _, e := range seg.entries {
			if cur, ok := newest[e.key]; !ok || e.seq > cur.seq {
				newest[e.key] = e
			}
		}
	}
	var ents []segEnt
	for key, e := range newest {
		if e.del {
			continue
		}
		ents = append(ents, segEnt{key: key, seq: e.seq})
	}
	sort.Slice(ents, func(i, j int) bool { return ents[i].key < ents[j].key })
	return ents
}

// runsOf decodes fuzz bytes into sorted runs: 0xFF starts the next run, and
// any other byte pair is an entry — the first byte picks one of 40 keys, the
// second carries the seq (seq 0 is an ingested entry) and, in its low bit,
// the tombstone flag. A key repeated within a run keeps its last entry.
func runsOf(data []byte) []*segment {
	var segs []*segment
	cur := map[string]segEnt{}
	flush := func() {
		seg := &segment{}
		for _, e := range cur {
			seg.entries = append(seg.entries, e)
		}
		slices.SortFunc(seg.entries, bySegKey)
		for i := range seg.entries {
			seg.entries[i].page, seg.entries[i].ver = int64(i), int64(len(segs)*100+i+1)
		}
		segs = append(segs, seg)
		cur = map[string]segEnt{}
	}
	for i := 0; i < len(data); i++ {
		if data[i] == 0xFF {
			flush()
			continue
		}
		if i+1 == len(data) {
			break
		}
		key := "k" + strconv.Itoa(int(data[i])%40)
		cur[key] = segEnt{key: key, seq: uint64(data[i+1] >> 1), del: data[i+1]&1 == 1}
		i++
	}
	flush()
	return segs
}

// FuzzCompactMerge checks the k-way merge against the map fold it replaced,
// over random sorted runs with keys shared across runs, tombstones, seq
// ties and seq-0 ingested entries. It counts, then merges twice: into a new
// array, and into a recycled one, as compactOnce may, that is pre-filled
// with stale entries and has spare capacity.
func FuzzCompactMerge(f *testing.F) {
	f.Add([]byte{1, 5 << 1, 0xFF, 1, 9<<1 | 1})             // a tombstone shadows an older put
	f.Add([]byte{2, 0, 0xFF, 2, 0})                         // two ingests of one key
	f.Add([]byte{3, 4 << 1, 0xFF, 3, 4<<1 | 1, 0xFF, 3, 0}) // a seq tie: the oldest run wins
	f.Add([]byte{1, 7, 12, 8, 0xFF, 0xFF, 1, 2, 30, 0, 0xFF, 12, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		segs := runsOf(data)
		want := foldCompact(segs)
		pos := make([]int, len(segs))
		n := mergeRuns(segs, pos, nil)
		if n != len(want) {
			t.Fatalf("merge counts %d entries, the fold keeps %d", n, len(want))
		}
		stale := make([]segEnt, n+7)
		for i := range stale {
			stale[i] = segEnt{key: "stale" + strconv.Itoa(i), seq: 1 << 40, del: i%2 == 0, page: int64(i), ver: -1}
		}
		for _, out := range []struct {
			name string
			run  []segEnt
		}{{"new", make([]segEnt, n)}, {"recycled", stale[:n]}} {
			if m := mergeRuns(segs, pos, out.run); m != n {
				t.Fatalf("merge into a %s array filled %d entries after counting %d", out.name, m, n)
			}
			if !slices.Equal(out.run, want) {
				t.Fatalf("merge into a %s array %v\nfold %v", out.name, out.run, want)
			}
		}
	})
}

// ioKey names a data request the way a dispatch record can be joined on:
// the fs never reuses an LPA, so a segment page's write and its background
// read each have one key.
type ioKey struct {
	lpa uint64
	op  block.Op
	bg  bool
}

func keyOf(lpa uint64, op block.Op, role block.Role) ioKey {
	return ioKey{lpa, op, role != block.RoleSync}
}

// submitters sits between fs and the block layer and notes which proc
// submitted each request.
type submitters struct {
	*block.Layer
	by map[ioKey]string
}

func (s *submitters) Submit(p *sim.Proc, r *block.Request) {
	s.by[keyOf(r.LPA, r.Op, r.Role)] = p.Name()
	s.Layer.Submit(p, r)
}

func (s *submitters) SubmitAndWait(p *sim.Proc, r *block.Request) {
	s.by[keyOf(r.LPA, r.Op, r.Role)] = p.Name()
	s.Layer.SubmitAndWait(p, r)
}

// TestCompactionIsIdleIO reads the block layer's dispatch log of a store
// that flushes and compacts with evicted segments: compaction's input reads
// and merged-run writes carry block.RoleIdle, and nothing else does — not
// the memtable flush's segment writes, nor the manifest, WAL and journal.
func TestCompactionIsIdleIO(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	prof := core.BFSDR(device.NVMeSSD())
	layer := block.NewLayer(k, device.New(k, prof.Device), block.NewEpochScheduler(block.NewNOOP()),
		block.LayerConfig{DispatchOverhead: prof.DispatchOverhead, Trace: true})
	front := &submitters{Layer: layer, by: make(map[ioKey]string)}
	fsys := fs.New(k, front, prof.FS)
	cfg := Config{WALPages: 64, MemtableCap: 16, CompactFanIn: 2, CheckpointEvery: 8, EvictSegments: true}
	var compactions int64
	k.Spawn("app", func(p *sim.Proc) {
		st, err := OpenFS(p, fsys, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 300; i++ {
			put(p, st, fmt.Sprintf("k%03d", i%100))
		}
		p.Sleep(20 * sim.Millisecond)
		compactions = st.Stats().Compactions
		k.Stop()
	})
	k.Run()
	if compactions == 0 {
		t.Fatal("no compactions")
	}

	counts := make(map[string]int)
	for _, rec := range layer.DispatchLog() {
		if rec.Op == block.OpFlush {
			continue
		}
		who := front.by[keyOf(rec.LPA, rec.Op, rec.Role)]
		bg := rec.Role != block.RoleSync
		var class string
		switch {
		case who == "kv/compact" && bg:
			class = "compaction " + rec.Op.String()
		case who == "kv/flush" && bg:
			class = "flush segment " + rec.Op.String()
		case who == "kv/compact" || who == "kv/flush":
			class = "manifest " + rec.Op.String()
		case who == "kv/commit":
			class = "WAL " + rec.Op.String()
		default:
			class = "other (" + who + ") " + rec.Op.String()
		}
		counts[class]++
		if want := strings.HasPrefix(class, "compaction "); (rec.Role == block.RoleIdle) != want {
			t.Errorf("%s of LPA %d carries role %d: RoleIdle %v, want %v", class, rec.LPA, rec.Role, !want, want)
		}
	}
	for _, class := range []string{"compaction read", "compaction write", "flush segment write", "manifest write", "WAL write"} {
		if counts[class] == 0 {
			t.Errorf("no %s in the dispatch log (%v)", class, counts)
		}
	}
}
