package kvcluster

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/kvwal"
	"repro/internal/metrics"
	"repro/internal/reqtrace"
	"repro/internal/sim"
	"repro/internal/workload"
)

// R-way replicated deployment. Every shard is a full barrier-enabled IO
// stack (its own device, block layer, filesystem, kvwal store), all living
// in ONE kernel so a client can drive several replicas in lockstep:
//
//   - writes go to every replica of the key (write-both): one ApplyAsync
//     per replica, then one wait for all the group commits — the replicas
//     commit in parallel, each with its own shard-local group commit;
//   - reads try the primary and fail over down the replica list on a hard
//     media error (fault.ErrUNC past the block layer's retry budget) or a
//     killed shard, with read-repair re-priming the failed replica.
//
// Placement is the ring's successor list (Ring.ShardsFor): deterministic
// per key, stable under shard death — marking a shard down only promotes
// the next distinct owner for the keys it served.

// ErrUnavailable reports that no live replica could serve the operation.
var ErrUnavailable = errors.New("kvcluster: no live replica")

// clusterObs are the cluster's registry instruments: the one count of each
// failover, read repair, degraded shed and replica write.
type clusterObs struct {
	failovers, repairs, shed, repWrites *metrics.Counter
	// rebalance counters/gauge (kvcluster/rebalance/*)
	rebKeys, rebDual, rebCutovers, rebAborts, rebSkipped *metrics.Counter
	rebRanges                                            *metrics.Gauge
}

// node is one shard: a full stack plus its store and liveness mark.
type node struct {
	stack *core.Stack
	store *kvwal.Store
	down  bool
}

// Cluster is a live replicated deployment: Shards full stacks in one
// kernel behind a consistent-hash ring with successor-list replication.
type Cluster struct {
	k     *sim.Kernel
	cfg   Config
	ring  *Ring
	nodes []*node
	mig   *Migration  // active (or failed-and-pinned) migration
	epoch int         // bumped when a migration starts
	wild  map[int]int // admission epoch -> in-flight writes outside any migrating range
	obs   clusterObs
}

// OpenCluster builds the shard stacks and opens their stores. Call from a
// process on the kernel that will drive the cluster; the stores' daemons
// (group-commit leaders, flushers, compactors) spawn onto the same kernel.
func OpenCluster(p *sim.Proc, cfg Config) (*Cluster, error) {
	cfg = cfg.withDefaults()
	c := &Cluster{
		k: p.Kernel(), cfg: cfg,
		ring: NewRing(cfg.Shards),
		wild: make(map[int]int),
	}
	reg := metrics.Resolve(cfg.Metrics) // nil registry: nil, no-op instruments
	c.obs = clusterObs{
		failovers:   reg.Counter("kvcluster/failovers"),
		repairs:     reg.Counter("kvcluster/read.repairs"),
		shed:        reg.Counter("kvcluster/degraded.shed"),
		repWrites:   reg.Counter("kvcluster/replica.writes"),
		rebKeys:     reg.Counter("kvcluster/rebalance/keys.copied"),
		rebDual:     reg.Counter("kvcluster/rebalance/dual.writes"),
		rebCutovers: reg.Counter("kvcluster/rebalance/cutovers"),
		rebAborts:   reg.Counter("kvcluster/rebalance/aborts"),
		rebSkipped:  reg.Counter("kvcluster/rebalance/copy.skipped"),
		rebRanges:   reg.Gauge("kvcluster/rebalance/ranges.migrating"),
	}
	for i := 0; i < cfg.Shards; i++ {
		if err := c.addNode(p, i); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// addNode builds shard i's stack and opens its store: fresh cluster setup,
// Resize growth, and ReplaceShard rebuilds all land here. An index inside
// the current node list replaces that slot (the old stack is abandoned);
// the index one past the end appends.
func (c *Cluster) addNode(p *sim.Proc, i int) error {
	prof := c.cfg.Profile(c.cfg.shardDevice(i))
	prof.Name = fmt.Sprintf("%s/replica%d", prof.Name, i)
	if prof.Metrics == nil {
		prof.Metrics = c.cfg.Metrics
	}
	st := core.NewStack(c.k, prof)
	store, err := kvwal.Open(p, st, c.cfg.Store)
	if err != nil {
		return err
	}
	if i < len(c.nodes) {
		c.nodes[i] = &node{stack: st, store: store}
	} else {
		c.nodes = append(c.nodes, &node{stack: st, store: store})
	}
	return nil
}

// wildDone retires one untracked in-flight write admitted at epoch.
func (c *Cluster) wildDone(epoch int) {
	if c.wild[epoch]--; c.wild[epoch] <= 0 {
		delete(c.wild, epoch)
	}
}

// wildBefore counts untracked writes still in flight that were admitted
// before the given epoch — the only writes a migration started at that
// epoch could have missed both in its snapshot and in its tracking.
func (c *Cluster) wildBefore(epoch int) int {
	n := 0
	for e, cnt := range c.wild {
		if e < epoch {
			n += cnt
		}
	}
	return n
}

// downFn adapts node liveness for the ring's ShardsForUp walks.
func (c *Cluster) downFn() func(int) bool {
	return func(s int) bool { return c.nodes[s].down }
}

// Ring returns the placement ring.
func (c *Cluster) Ring() *Ring { return c.ring }

// Store returns shard i's store (verification hooks).
func (c *Cluster) Store(i int) *kvwal.Store { return c.nodes[i].store }

// Stack returns shard i's IO stack (fault hooks, crash injection).
func (c *Cluster) Stack(i int) *core.Stack { return c.nodes[i].stack }

// KillShard marks shard i dead: it stops serving reads and writes
// (fail-stop at the service level; its device and daemons idle on). Reads
// of its keys fail over to the surviving replicas; writes commit on the
// remaining replica set.
func (c *Cluster) KillShard(i int) { c.nodes[i].down = true }

// Put writes key to every live replica and returns once all of their
// group commits acknowledged (write-both), traced under reqtrace.Of(p).
func (c *Cluster) Put(p *sim.Proc, key string) error {
	return c.apply(p, kvwal.Op{Kind: kvwal.Put, Key: key})
}

// Delete submits a tombstone to every live replica, traced under
// reqtrace.Of(p).
func (c *Cluster) Delete(p *sim.Proc, key string) error {
	return c.apply(p, kvwal.Op{Kind: kvwal.Delete, Key: key})
}

// serve executes one generated request: the runner's serveFunc.
func (c *Cluster) serve(p *sim.Proc, r Request) error {
	switch r.Class {
	case workload.ClassGet:
		_, _, err := c.Get(p, r.Key)
		return err
	case workload.ClassDelete:
		return c.Delete(p, r.Key)
	}
	return c.Put(p, r.Key)
}

// ownersForWrite resolves a key's write set. Under an active migration the
// containing range's state decides: Copying routes old-only (the key is
// tracked for catch-up), CatchUp and Cutover dual-write old+new, Done
// routes new-only, Aborted keeps the old owners. Outside a migration the
// live-filtered ring successor list applies — a down shard promotes the
// next distinct owner, capping replication to the live set instead of
// misrouting (mass failure hits the degraded counters, not a panic).
func (c *Cluster) ownersForWrite(key string) (owners []int, rm *rangeMig, dual bool) {
	if c.mig != nil {
		if r := c.mig.rangeOf(key); r != nil {
			switch r.state {
			case MigCopying:
				return r.mv.Old, r, false
			case MigCatchUp, MigCutover:
				return unionInts(r.mv.Old, r.mv.New), r, true
			case MigDone:
				return r.mv.New, nil, false
			default: // MigAborted
				return r.mv.Old, nil, false
			}
		}
	}
	return c.ring.ShardsForUp(key, c.cfg.Replicas, c.downFn()), nil, false
}

func (c *Cluster) apply(p *sim.Proc, op kvwal.Op) error {
	owners, rm, dual := c.ownersForWrite(op.Key)
	var gen, epoch int
	if rm != nil {
		rm.inflight++
		gen = rm.gen
		if dual {
			rm.dualSeen[op.Key] = true
			rm.m.stats.DualWrites++
			c.obs.rebDual.Inc()
		}
	} else {
		// A write admitted outside any migrating range — including every
		// write still in flight when a migration starts. Those stragglers
		// may commit after the range snapshot was built, so cutover gates
		// on the pre-migration epochs of this count and completion
		// re-resolves the range below.
		epoch = c.epoch
		c.wild[epoch]++
	}
	// Fan the write out to every live owner first, then wait: the replica
	// group commits overlap instead of serializing.
	// Only the first live owner carries the trace context: each store's
	// leader chains the contexts of its own group, so handing one context to
	// two leaders would cross-link two independent chains.
	defer reqtrace.With(p, reqtrace.Of(p))
	batches := make([]*kvwal.Batch, 0, len(owners))
	for _, s := range owners {
		n := c.nodes[s]
		if n.down {
			continue
		}
		batches = append(batches, n.store.ApplyAsync(p, []kvwal.Op{op}))
		reqtrace.With(p, reqtrace.Ctx{})
	}
	if len(batches) == 0 {
		if rm != nil {
			rm.inflight--
		} else {
			c.wildDone(epoch)
		}
		c.obs.shed.Inc()
		return ErrUnavailable
	}
	if len(batches) < c.cfg.Replicas {
		// Fewer than R live replicas could take the write: committed
		// degraded rather than refused, and counted.
		c.obs.shed.Inc()
	}
	for _, b := range batches {
		b.Wait(p)
	}
	if rm != nil {
		rm.inflight--
		// Queue the key for catch-up: always for old-only writes, and for
		// dual-writes whose range retargeted mid-flight (the destination
		// they fanned to is gone).
		if (!dual || rm.gen != gen) && (rm.state == MigCopying || rm.state == MigCatchUp) {
			rm.pending[op.Key] = true
		}
	} else {
		c.wildDone(epoch)
		// The write may have landed on a range that started migrating after
		// admission (it was only enqueued, not yet in the memtable, when the
		// snapshot walked the source) — queue it for catch-up.
		if c.mig != nil {
			if r := c.mig.rangeOf(op.Key); r != nil &&
				(r.state == MigCopying || r.state == MigCatchUp) {
				r.pending[op.Key] = true
			}
		}
	}
	c.obs.repWrites.Add(int64(len(batches)))
	return nil
}

// ownersForRead resolves a key's read order plus its natural primary (the
// shard that would serve it with nothing down — serving from anywhere else
// is a failover). Under an active migration reads stay on the old owners
// with the new appended as a failover tail until the range cuts over; a
// cut-over range reads new-first with the old owners as the tail.
func (c *Cluster) ownersForRead(key string) (owners []int, primary int) {
	if c.mig != nil {
		if r := c.mig.rangeOf(key); r != nil {
			switch r.state {
			case MigDone:
				return unionInts(r.mv.New, r.mv.Old), r.mv.New[0]
			case MigAborted:
				return r.mv.Old, r.mv.Old[0]
			default:
				return unionInts(r.mv.Old, r.mv.New), r.mv.Old[0]
			}
		}
	}
	owners = c.ring.ShardsForUp(key, c.cfg.Replicas, c.downFn())
	return owners, c.ring.Shard(key)
}

// Get reads key from its primary, failing over down the replica list on a
// dead shard or a hard media error. It reports the newest committed
// sequence for the key and whether the key is live.
func (c *Cluster) Get(p *sim.Proc, key string) (uint64, bool, error) {
	owners, primary := c.ownersForRead(key)
	var errShards []int
	var lastErr error
	for _, s := range owners {
		n := c.nodes[s]
		if n.down {
			continue
		}
		// Serving a key away from its natural primary (dead, erroring, or
		// promoted around) is one failover.
		if s != primary {
			c.obs.failovers.Inc()
		}
		seq, ok, err := n.store.GetE(p, key)
		if err != nil {
			errShards = append(errShards, s)
			lastErr = err
			continue
		}
		if ok && len(errShards) > 0 {
			c.readRepair(p, key, errShards)
		}
		return seq, ok, nil
	}
	// No live replica could serve the key (mass failure, or every owner
	// errored): shed it as degraded rather than panicking or misrouting.
	c.obs.shed.Inc()
	if lastErr == nil {
		lastErr = ErrUnavailable
	}
	return 0, false, lastErr
}

// readRepair re-primes the replicas that failed the read with an async
// Put of the key: their next read of it lands in the memtable instead of
// the uncorrectable segment page. Best effort — no wait, dead shards are
// skipped.
func (c *Cluster) readRepair(p *sim.Proc, key string, shards []int) {
	for _, s := range shards {
		n := c.nodes[s]
		if n.down {
			continue
		}
		n.store.ApplyAsync(p, []kvwal.Op{{Kind: kvwal.Put, Key: key}})
		c.obs.repairs.Inc()
	}
}
