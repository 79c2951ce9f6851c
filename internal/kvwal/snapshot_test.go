package kvwal

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/sim"
)

// LiveKeys must walk memtable, immutable memtable, and on-disk segments and
// report exactly the live (non-deleted) set, sorted.
func TestLiveKeysShadowsAllTiers(t *testing.T) {
	k, s := newStack(t, core.BFSDR(device.PlainSSD()))
	defer k.Close()
	k.Spawn("app", func(p *sim.Proc) {
		cfg := DefaultConfig()
		cfg.MemtableCap = 4 // force flushes so keys land in segments
		st, err := Open(p, s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := map[string]bool{}
		for i := 0; i < 20; i++ {
			key := fmt.Sprintf("k%03d", i)
			put(p, st, key)
			want[key] = true
		}
		del(p, st, "k003")
		delete(want, "k003")
		put(p, st, "k003") // resurrect: newest state wins
		want["k003"] = true
		del(p, st, "k007")
		delete(want, "k007")

		got := st.LiveKeys()
		if !sort.StringsAreSorted(got) {
			t.Error("LiveKeys not sorted")
		}
		if len(got) != len(want) {
			t.Errorf("LiveKeys: %d keys, want %d", len(got), len(want))
		}
		for _, key := range got {
			if !want[key] {
				t.Errorf("LiveKeys reports dead or phantom key %s", key)
			}
		}
		for key := range want {
			seq, ok := st.Peek(key)
			if !ok || seq == 0 {
				t.Errorf("Peek(%s) = (%d,%v), want live with a real seq", key, seq, ok)
			}
		}
		if _, ok := st.Peek("k007"); ok {
			t.Error("Peek sees deleted key")
		}
		k.Stop()
	})
	k.Run()
}

// Ingest lands bulk-copied keys as a seq-0 segment: readable immediately,
// durable across recovery, and always losing to a real write of the same
// key.
func TestIngestDurableAndLosesToRealWrites(t *testing.T) {
	k, s := newStack(t, core.BFSDR(device.PlainSSD()))
	defer k.Close()
	k.Spawn("app", func(p *sim.Proc) {
		st, err := Open(p, s, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		st.Ingest(p, []string{"b", "a", "c", "a"}) // unsorted, with a dup
		for _, key := range []string{"a", "b", "c"} {
			if seq, ok := st.Peek(key); !ok || seq != 0 {
				t.Errorf("ingested %s: (%d,%v), want live at seq 0", key, seq, ok)
			}
		}
		if st.Stats().Ingests != 1 {
			t.Errorf("Ingests = %d, want 1", st.Stats().Ingests)
		}
		// A real write beats the ingested placeholder.
		seqB := put(p, st, "b")
		if got, ok := st.Peek("b"); !ok || got != seqB {
			t.Errorf("real write lost to ingest: (%d,%v), want seq %d", got, ok, seqB)
		}
		del(p, st, "c")
		if _, ok := st.Peek("c"); ok {
			t.Error("delete lost to ingest")
		}

		// Crash and recover: the ingest segment is manifest-published, so it
		// survives; the ordering discipline survives with it. Checkpoint
		// first — BFS-DR acks at the barrier, so without it the real writes
		// may legally not survive the crash and the ingest would show
		// through.
		st.ForceCheckpoint(p)
		s.Crash()
		view, _ := s.RecoverView(p)
		rec := st.Recover(view)
		if e, ok := rec.Keys["a"]; !ok || e.Del || e.Seq != 0 {
			t.Errorf("recovered a: (%+v,%v), want live at seq 0", e, ok)
		}
		if e, ok := rec.Keys["b"]; !ok || e.Del || e.Seq != seqB {
			t.Errorf("recovered b: (%+v,%v), want live at real seq %d", e, ok, seqB)
		}
		if e, ok := rec.Keys["c"]; ok && !e.Del {
			t.Error("deleted key c resurrected by ingest segment after crash")
		}
		k.Stop()
	})
	k.Run()
}
