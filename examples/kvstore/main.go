// KV store example: a barrier-enabled WAL key-value store (internal/kvwal)
// on a BarrierFS stack. Concurrent clients group-commit Put batches with
// one fdatabarrier per group; the power then fails mid-commit and the
// store recovers. The point of the walkthrough: barrier group commit is
// cheap, yet every key the store acknowledged as durable survives the
// crash, and the surviving write-ahead log is a prefix of the committed
// history — the paper's ordering guarantee, observed from an application.
package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/kvwal"
	"repro/internal/sim"
)

func main() {
	k := sim.NewKernel()
	s := core.NewStack(k, core.BFSDR(device.PlainSSD()))
	var st *kvwal.Store
	k.Spawn("setup", func(p *sim.Proc) {
		var err error
		st, err = kvwal.Open(p, s, kvwal.DefaultConfig())
		if err != nil {
			panic(err)
		}
		// A first batch of mail: committed, then explicitly checkpointed, so
		// it is durably acknowledged.
		for i := 0; i < 32; i++ {
			st.Apply(p, []kvwal.Op{{Kind: kvwal.Put, Key: fmt.Sprintf("inbox/%04d", i)}})
		}
		st.Apply(p, []kvwal.Op{{Kind: kvwal.Delete, Key: "inbox/0007"}})
		st.ForceCheckpoint(p)
		fmt.Printf("checkpointed: committed=%d durable=%d\n", st.CommittedSeq(), st.DurableSeq())
		// GetE's error is a hard media failure; this device has no fault
		// plan, so none can occur.
		if seq, ok, _ := st.GetE(p, "inbox/0003"); ok {
			fmt.Printf("get inbox/0003 -> seq %d\n", seq)
		}
		if _, ok, _ := st.GetE(p, "inbox/0007"); !ok {
			fmt.Println("get inbox/0007 -> deleted")
		}
		// Three clients keep committing; the power fails while their groups
		// are in flight.
		for c := 0; c < 3; c++ {
			c := c
			k.SpawnIdx("client", c, func(p *sim.Proc) {
				for n := 0; ; n++ {
					st.Apply(p, []kvwal.Op{
						{Kind: kvwal.Put, Key: fmt.Sprintf("feed/%d-%04d", c, n)},
						{Kind: kvwal.Put, Key: fmt.Sprintf("feed/%d-%04d", c, n+1)},
					})
				}
			})
		}
	})
	k.RunUntil(sim.Time(40 * sim.Millisecond))
	s.Crash()
	fmt.Printf("\npower failure: committed=%d durable=%d (the gap is the barrier window)\n",
		st.CommittedSeq(), st.DurableSeq())

	k.Spawn("recover", func(p *sim.Proc) {
		view, _ := s.RecoverView(p)
		rec := st.Recover(view)
		durErrs, ordErrs := st.Audit(rec)
		live := 0
		for _, e := range rec.Keys {
			if !e.Del {
				live++
			}
		}
		fmt.Printf("recovered: %d live keys, wal replayed to seq %d (checkpoint %d)\n",
			live, rec.PrefixSeq, rec.Checkpoint)
		fmt.Printf("durability violations: %d, ordering violations: %d\n", len(durErrs), len(ordErrs))
		if e, ok := rec.Keys["inbox/0003"]; ok && !e.Del {
			fmt.Println("inbox/0003 survived (was durably acknowledged)")
		}
		if e, ok := rec.Keys["inbox/0007"]; !ok || e.Del {
			fmt.Println("inbox/0007 stayed deleted (no resurrection)")
		}
	})
	k.Run()
	k.Close()
}
