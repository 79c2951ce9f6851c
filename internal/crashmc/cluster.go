package crashmc

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/kvcluster"
	"repro/internal/kvwal"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Cluster crash checking: kill M of N kvcluster shards at an enumerated
// crash state each, recover, and audit the routed keyspace for durability
// and per-key prefix ordering.
//
// kvcluster routing is replication-free: every key lives on exactly one
// shard, so no invariant spans two shards and the cluster's crash-state
// space factorizes — the product of per-shard admissible states never
// couples through any checked predicate. Checking each killed shard's
// enumeration independently therefore covers every cluster crash state
// (sum of per-shard state counts, not their product), which is what keeps
// killing M shards tractable.

// ClusterChecker audits one killed shard's recovered image against the
// cluster contract: the store's own durability/prefix-ordering audit
// (KVChecker), plus routing — every recovered key must consistent-hash to
// this shard, or a write was persisted somewhere reads will never look.
type ClusterChecker struct {
	Ring  *kvcluster.Ring
	Shard int
	Store *kvwal.Store
}

// Name implements Checker.
func (c *ClusterChecker) Name() string { return "kvcluster" }

// Check implements Checker. A nil Store means the crash landed inside
// Open: nothing was ever acknowledged (see KVChecker).
func (c *ClusterChecker) Check(st *State) []Violation {
	if c.Store == nil {
		return nil
	}
	rec := c.Store.Recover(st.View)
	kv := &KVChecker{Store: c.Store}
	out := kv.CheckRecovered(rec)
	keys := make([]string, 0, len(rec.Keys))
	for key := range rec.Keys {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		if home := c.Ring.Shard(key); home != c.Shard {
			out = append(out, Violation{Kind: KindConsistency,
				Detail: fmt.Sprintf("key %q recovered on shard %d but routes to shard %d",
					key, c.Shard, home)})
		}
	}
	return out
}

// ClusterResult is the outcome of a clusterScenario: the cluster-wide
// totals (the embedded Result) over one enumeration per killed shard.
type ClusterResult struct {
	Result
	Shards   int
	Killed   int
	PerShard []Result
}

func (r ClusterResult) String() string {
	return fmt.Sprintf("%s cluster %d/%d shards killed: %d states / %d images — %s",
		r.Profile, r.Killed, r.Shards, r.StatesExplored, r.ImagesChecked,
		r.verdict("every admissible crash state recovers clean"))
}

// clusterTraffic is the deterministic routed request stream the scenario
// replays: Zipfian keys over a small space so overwrites and deletes
// collide, a write-heavy mix, enough volume to cycle until any crash
// instant.
func clusterTraffic(shards int) (*kvcluster.Ring, [][]kvcluster.Request) {
	ring := kvcluster.NewRing(shards)
	tr := kvcluster.Traffic{
		Arrivals:  workload.ArrivalConfig{RatePerS: 200_000, Seed: 23},
		Mix:       workload.Mix{ReadPct: 10, DeletePct: 15},
		KeySpace:  512,
		ZipfTheta: 0.9,
		Duration:  50 * sim.Millisecond,
	}
	return ring, kvcluster.Partition(tr.Generate(), ring)
}

// clusterScenario takes an N-shard kvcluster (ShardedStacks shape: one
// stack per shard), drives each of the first `kill` shards with its routed
// slice of the cluster traffic to the crash instant, crashes it, and
// enumerates every admissible crash state. Surviving shards never crash,
// so they have nothing to enumerate (see the factorization note above).
func clusterScenario(prof core.Profile, shards, kill int, cfg Config) ClusterResult {
	if kill > shards {
		kill = shards
	}
	ring, parts := clusterTraffic(shards)
	out := ClusterResult{Result: Result{Profile: prof.Name}, Shards: shards, Killed: kill}
	for i := 0; i < kill; i++ {
		res := Enumerate(OnStack(prof, clusterShard(ring, i, parts[i])), cfg)
		out.PerShard = append(out.PerShard, res)
		out.add(res)
	}
	return out
}

// clusterShard is one shard of the cluster as a workload part: a
// closed-loop replay of the shard's routed slice, cycling so the stream
// outlasts any crash instant, audited by the ClusterChecker for position
// shard of ring plus the journal and fs invariants.
func clusterShard(ring *kvcluster.Ring, shard int, reqs []kvcluster.Request) Part {
	return func(k *sim.Kernel, s *core.Stack) []Checker {
		chk := &ClusterChecker{Ring: ring, Shard: shard}
		openStore(k, s, "kvc/setup", &chk.Store)
		k.Spawn("kvc/client", func(p *sim.Proc) {
			if !awaitStore(p, s, &chk.Store) {
				return
			}
			if len(reqs) == 0 {
				for {
					p.Suspend()
				}
			}
			var batch []kvwal.Op
			for n := 0; ; n++ {
				r := reqs[n%len(reqs)]
				switch r.Class {
				case workload.ClassGet:
					chk.Store.Get(p, r.Key)
				case workload.ClassDelete:
					batch = append(batch, kvwal.Op{Kind: kvwal.Delete, Key: r.Key})
				default:
					batch = append(batch, kvwal.Op{Kind: kvwal.Put, Key: r.Key})
				}
				if len(batch) >= 3 {
					chk.Store.Apply(p, batch)
					batch = nil
				}
			}
		})
		return append([]Checker{chk}, journalAndFS(s)...)
	}
}
