package kvcluster

import (
	"errors"
	"slices"
	"sort"

	"repro/internal/kvwal"
	"repro/internal/sim"
)

// Live rebalancing. Resize (grow or shrink the shard count) and
// ReplaceShard (rebuild a dead shard in place) both reduce to the same
// machinery: a migration plan — the set of ring arcs whose owner list
// changes (Ring.Diff / Ring.ReplacePlan) — driven range by range through an
// explicit state machine:
//
//	Copying  → bulk-copy the range's live keys to the new owners as
//	           REQ_BACKGROUND segment ingests, bandwidth-bounded
//	           (MigrateConfig), while client writes still go old-only and
//	           queue for catch-up;
//	CatchUp  → client writes dual-write old+new through each shard's
//	           group commit while the range drains the queued keys;
//	Cutover  → the new owners force a durability checkpoint, so every
//	           copied key and catch-up delta is durable before the flip;
//	Done     → reads and writes route to the new owners (old kept as
//	           failover tail until the whole migration lands).
//
// Each range is one blocking proc that does its own IO (source reads,
// destination ingests, checkpoints) a chunk at a time. If a destination dies
// mid-migration the range aborts and rolls back at the next chunk boundary,
// then re-replicates onto the next live successor of the target ring —
// source data is never deleted, so rollback is always safe. The cluster
// ring swaps to the target only when every range lands; a range with no
// live destination left pins the migration failed and routing stays on the
// per-range map (cut-over ranges on their new owners, aborted ranges on
// their old) so no acked write is ever orphaned.

// MigrateConfig bounds the rebalancing copy bandwidth so the foreground SLO
// holds: at most ChunkKeys keys are copied per ChunkEvery of simulated time
// per range. Zero fields take the defaults.
type MigrateConfig struct {
	// ChunkKeys is the number of keys per background copy chunk (default 24).
	ChunkKeys int
	// ChunkEvery is the pacing gap between chunks (default 150µs).
	ChunkEvery sim.Duration
}

const (
	// readRetries is how many full passes over the live source owners the
	// range makes for an unreadable key before skipping it.
	readRetries = 3
	// retryBackoff is the base backoff between those passes, doubling per
	// attempt; also the delay before restarting an aborted range.
	retryBackoff = 100 * sim.Microsecond
)

func (m MigrateConfig) withDefaults() MigrateConfig {
	if m.ChunkKeys <= 0 {
		m.ChunkKeys = 24
	}
	if m.ChunkEvery <= 0 {
		m.ChunkEvery = 150 * sim.Microsecond
	}
	return m
}

// MigrationState is one range's position in the rebalancing state machine.
type MigrationState int

const (
	MigCopying MigrationState = iota
	MigCatchUp
	MigCutover
	MigDone
	MigAborted
)

func (s MigrationState) String() string {
	switch s {
	case MigCopying:
		return "copying"
	case MigCatchUp:
		return "catchup"
	case MigCutover:
		return "cutover"
	case MigDone:
		return "done"
	case MigAborted:
		return "aborted"
	}
	return "unknown"
}

// MigrationEvent is one state transition in the migration schedule. The
// event log is deterministic: same seed, same fault plan, same schedule.
type MigrationEvent struct {
	At    sim.Time
	Range int
	State MigrationState
}

// MigrationStats are cumulative migration counters.
type MigrationStats struct {
	Ranges      int   // ranges in the plan
	KeysCopied  int64 // keys landed on destinations (bulk + catch-up)
	DualWrites  int64 // client writes fanned to old+new during CatchUp/Cutover
	Cutovers    int64 // ranges flipped to their new owners
	Aborts      int64 // destination deaths that forced a rollback+retarget
	CopySkipped int64 // keys unreadable from every source after retries
}

// Migration is one live rebalancing operation (Resize or ReplaceShard).
type Migration struct {
	c            *Cluster
	target       *Ring
	targetShards int
	cfg          MigrateConfig
	epoch        int         // admission epoch this migration opened
	ranges       []*rangeMig // sorted by arc Hi for rangeOf's binary search
	started      sim.Time
	finished     sim.Time
	doneRanges   int
	failed       bool
	done         bool
	stats        MigrationStats
	events       []MigrationEvent
	waiters      []*sim.Proc
}

// Done reports whether every range has landed (or aborted).
func (m *Migration) Done() bool { return m.done }

// Failed reports whether any range aborted permanently: the ring did not
// swap and routing stays on the per-range map.
func (m *Migration) Failed() bool { return m.failed }

// Stats returns the cumulative migration counters.
func (m *Migration) Stats() MigrationStats { return m.stats }

// Events returns the migration schedule: every per-range state transition
// in kernel order.
func (m *Migration) Events() []MigrationEvent { return m.events }

// Started and Finished bound the migration window (Finished is zero until
// Done).
func (m *Migration) Started() sim.Time  { return m.started }
func (m *Migration) Finished() sim.Time { return m.finished }

// Target returns the ring the migration is moving to.
func (m *Migration) Target() *Ring { return m.target }

// InState reports whether any range is currently in state s.
func (m *Migration) InState(s MigrationState) bool {
	for _, rm := range m.ranges {
		if rm.state == s {
			return true
		}
	}
	return false
}

// Wait blocks until the migration completes.
func (m *Migration) Wait(p *sim.Proc) {
	for !m.done {
		m.waiters = append(m.waiters, p)
		p.Suspend()
	}
}

// rangeOf finds the migrating range containing key's hash, nil if the key
// is outside the plan. Ranges are disjoint arcs sorted by Hi; at most one
// wraps past zero and it sorts first, so a single candidate check suffices.
func (m *Migration) rangeOf(key string) *rangeMig {
	h := fnv1a(key)
	i := sort.Search(len(m.ranges), func(i int) bool { return m.ranges[i].mv.Hi >= h })
	if i == len(m.ranges) {
		i = 0
	}
	if i < len(m.ranges) && m.ranges[i].mv.Contains(h) {
		return m.ranges[i]
	}
	return nil
}

// Resize grows (or shrinks) the cluster to newN shards under live traffic.
// New shard stacks open immediately; the ring diff becomes the migration
// plan and the returned Migration drives it in the background. At most one
// migration may be active, and a failed one pins routing until process end.
func (c *Cluster) Resize(p *sim.Proc, newN int) (*Migration, error) {
	if c.mig != nil {
		return nil, errors.New("kvcluster: migration already active")
	}
	if newN <= 0 {
		return nil, errors.New("kvcluster: resize to zero shards")
	}
	target := NewRing(newN)
	for i := len(c.nodes); i < newN; i++ {
		if err := c.addNode(p, i); err != nil {
			return nil, err
		}
	}
	return c.startMigration(p.Now(), target, newN, c.ring.Diff(target, c.cfg.Replicas)), nil
}

// ReplaceShard rebuilds dead shard i on a fresh stack and store and
// re-replicates its ranges from the surviving owners. The ring is
// unchanged: the plan covers every arc whose owner list contains i, copied
// from the live owners back onto the full list including the rebuilt i.
func (c *Cluster) ReplaceShard(p *sim.Proc, i int) (*Migration, error) {
	if c.mig != nil {
		return nil, errors.New("kvcluster: migration already active")
	}
	if i < 0 || i >= len(c.nodes) {
		return nil, errors.New("kvcluster: no such shard")
	}
	if !c.nodes[i].down {
		return nil, errors.New("kvcluster: shard is alive; kill it before replacing")
	}
	if err := c.addNode(p, i); err != nil {
		return nil, err
	}
	c.nodes[i].down = false
	return c.startMigration(p.Now(), c.ring, len(c.nodes), c.ring.ReplacePlan(i, c.cfg.Replicas)), nil
}

func (c *Cluster) startMigration(now sim.Time, target *Ring, targetShards int, moves []RangeMove) *Migration {
	c.epoch++
	m := &Migration{
		c: c, target: target, targetShards: targetShards,
		cfg: c.cfg.Migrate.withDefaults(), started: now, epoch: c.epoch,
	}
	for _, mv := range moves {
		if sameMembers(mv.Old, mv.New) {
			continue // pure reorder: the data is already on every new owner
		}
		m.ranges = append(m.ranges, &rangeMig{
			m: m, mv: mv,
			pending:  make(map[string]bool),
			dualSeen: make(map[string]bool),
		})
	}
	sort.Slice(m.ranges, func(i, j int) bool { return m.ranges[i].mv.Hi < m.ranges[j].mv.Hi })
	for i, rm := range m.ranges {
		rm.idx = i
	}
	m.stats.Ranges = len(m.ranges)
	c.mig = m
	if len(m.ranges) == 0 {
		m.complete(now)
		return m
	}
	c.obs.rebRanges.Add(int64(len(m.ranges)))
	for _, rm := range m.ranges {
		rm.start(now)
	}
	return m
}

// complete finalizes the migration: on success the ring swaps to the
// target and shards past the new count retire; on failure the per-range
// map stays installed — it is the only correct routing (cut-over ranges
// live on their new owners, aborted ranges on their old), so swapping or
// discarding it would orphan acked writes.
func (m *Migration) complete(now sim.Time) {
	m.finished = now
	m.done = true
	c := m.c
	if !m.failed {
		c.ring = m.target
		for i := m.targetShards; i < len(c.nodes); i++ {
			c.nodes[i].down = true
		}
		c.mig = nil
	}
	for _, w := range m.waiters {
		c.k.Resume(w)
	}
	m.waiters = nil
}

func (m *Migration) rangeDone(now sim.Time) {
	m.c.obs.rebRanges.Dec()
	m.doneRanges++
	if m.doneRanges == len(m.ranges) {
		m.complete(now)
	}
}

// rangeMig drives one RangeMove through the state machine.
type rangeMig struct {
	m     *Migration
	idx   int
	mv    RangeMove
	state MigrationState

	snapshot []string // sorted live keys to bulk-copy
	pos      int

	pending  map[string]bool // keys awaiting catch-up copy to the destination
	dualSeen map[string]bool // keys dual-written since CatchUp began
	inflight int             // tracked client writes admitted, not yet committed
	gen      int             // bumped per retarget; stale dual-writes re-queue
}

func (rm *rangeMig) start(now sim.Time) {
	rm.setState(now, MigCopying)
	rm.m.c.k.SpawnIdx("kvc/mig-range", rm.idx, rm.run)
}

func (rm *rangeMig) setState(at sim.Time, s MigrationState) {
	rm.state = s
	rm.m.events = append(rm.m.events, MigrationEvent{At: at, Range: rm.idx, State: s})
}

// destShards are the members of New with no copy of the range yet: the
// ingest targets.
func (rm *rangeMig) destShards() []int {
	var out []int
	for _, s := range rm.mv.New {
		if !slices.Contains(rm.mv.Old, s) {
			out = append(out, s)
		}
	}
	return out
}

func (rm *rangeMig) destDown() bool {
	for _, s := range rm.destShards() {
		if rm.m.c.nodes[s].down {
			return true
		}
	}
	return false
}

// run is the range's proc. Each pass is one chunk boundary: resolve a dead
// destination, then copy a chunk, drain caught-up keys, or checkpoint the
// destinations, then sleep ChunkEvery — the pacing gap is the migration
// bandwidth bound that protects the foreground SLO.
func (rm *rangeMig) run(p *sim.Proc) {
	m := rm.m
	for {
		if rm.destDown() {
			if rm.retarget(p.Now()) {
				return
			}
			p.Sleep(retryBackoff)
			continue
		}
		switch rm.state {
		case MigCopying:
			if rm.snapshot == nil {
				rm.buildSnapshot()
			}
			if rm.pos < len(rm.snapshot) {
				end := min(rm.pos+m.cfg.ChunkKeys, len(rm.snapshot))
				keys := rm.snapshot[rm.pos:end]
				rm.pos = end
				rm.copyChunk(p, keys)
			} else {
				// Bulk copy done: open the dual-write window, then drain the
				// keys that arrived old-only while we copied.
				rm.setState(p.Now(), MigCatchUp)
			}
		case MigCatchUp:
			if keys := rm.drainPending(m.cfg.ChunkKeys); len(keys) > 0 {
				rm.copyDelta(p, keys)
			} else if rm.inflight == 0 && m.c.wildBefore(m.epoch) == 0 {
				// No client write is still committing: neither a tracked one
				// on this range nor a straggler admitted before the
				// migration began (invisible both to the snapshot and to
				// tracking). Their keys join pending as they complete, so
				// the gate outwaits both. Writes admitted after the
				// migration opened never gate: on a migrating range they
				// are tracked, elsewhere they are irrelevant to this
				// cutover. Every write is now on both owner sets; make the
				// destination durable before anything flips.
				rm.setState(p.Now(), MigCutover)
				rm.checkpointDests(p)
				continue
			}
		case MigCutover:
			// Checkpoint landed: everything copied is at least as durable
			// on the destination as its ack promised. Flip the range.
			rm.cutover(p.Now())
			return
		}
		p.Sleep(m.cfg.ChunkEvery)
	}
}

// retarget handles a destination death at a chunk boundary: abort, roll
// routing back to the old owners, and re-replicate onto the next live
// successor of the target ring — the same owner list post-swap routing
// would compute with the dead shard marked down. Source data was never
// deleted, so rollback is always safe; writes that dual-wrote during the
// aborted attempt are still on the old owners and re-enter the snapshot.
// It reports whether the range finished instead of restarting.
func (rm *rangeMig) retarget(now sim.Time) bool {
	m := rm.m
	m.stats.Aborts++
	m.c.obs.rebAborts.Inc()
	rm.mv.New = m.target.ownersAt(rm.mv.Hi, m.c.cfg.Replicas, m.c.downFn())
	rm.snapshot, rm.pos = nil, 0
	rm.dualSeen = make(map[string]bool)
	rm.gen++ // in-flight dual-writes re-queue for the new destination
	switch {
	case len(rm.destShards()) > 0:
		rm.setState(now, MigCopying)
		return false
	case len(rm.mv.New) > 0:
		// The promoted successors all hold the data already (they are old
		// owners): the range lands without copying a byte.
		rm.cutover(now)
	default:
		// No live shard left to re-replicate onto: the range aborts for
		// good and keeps its old owners.
		rm.finish(now, MigAborted)
	}
	return true
}

func (rm *rangeMig) cutover(now sim.Time) {
	rm.m.stats.Cutovers++
	rm.m.c.obs.rebCutovers.Inc()
	rm.finish(now, MigDone)
}

func (rm *rangeMig) finish(now sim.Time, s MigrationState) {
	rm.setState(now, s)
	if s == MigAborted {
		rm.m.failed = true
	}
	rm.m.rangeDone(now)
}

// drainPending pops up to max pending keys in sorted order (map iteration
// must not leak nondeterminism into the schedule).
func (rm *rangeMig) drainPending(max int) []string {
	if len(rm.pending) == 0 {
		return nil
	}
	keys := make([]string, 0, len(rm.pending))
	for k := range rm.pending {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if len(keys) > max {
		keys = keys[:max]
	}
	for _, k := range keys {
		delete(rm.pending, k)
	}
	return keys
}

// buildSnapshot enumerates the live keys of the first up old owner that
// hash into the arc — the bulk-copy work list. Host-side shadow walk, no
// IO; the range pays real reads per key as it copies.
func (rm *rangeMig) buildSnapshot() {
	rm.snapshot = []string{}
	var src *node
	for _, s := range rm.mv.Old {
		if n := rm.m.c.nodes[s]; !n.down {
			src = n
			break
		}
	}
	if src == nil {
		return // nothing readable anywhere; the range cuts over empty
	}
	for _, key := range src.store.LiveKeys() {
		if rm.mv.Contains(fnv1a(key)) {
			rm.snapshot = append(rm.snapshot, key)
		}
	}
}

// copyChunk bulk-copies live keys onto every destination as one ingested
// segment per destination: the segment pages go out as REQ_BACKGROUND
// writeback, so foreground commits keep their scheduling priority.
func (rm *rangeMig) copyChunk(p *sim.Proc, keys []string) {
	m := rm.m
	var live []string
	for _, key := range keys {
		if rm.dualSeen[key] {
			continue // a newer dual-write already landed on the destination
		}
		alive, readable := rm.readSource(p, key)
		if readable && alive {
			live = append(live, key)
		}
	}
	for _, d := range rm.destShards() {
		n := m.c.nodes[d]
		if n.down {
			return // resolved at the next chunk boundary
		}
		n.store.Ingest(p, live)
	}
	m.stats.KeysCopied += int64(len(live))
	m.c.obs.rebKeys.Add(int64(len(live)))
}

// copyDelta re-applies caught-up keys onto the destinations as ordinary
// writes through group commit: unlike the bulk path these keys may have
// changed since the snapshot (including deletes), so they need real
// sequence numbers.
func (rm *rangeMig) copyDelta(p *sim.Proc, keys []string) {
	m := rm.m
	for _, key := range keys {
		if rm.dualSeen[key] {
			continue
		}
		alive, readable := rm.readSource(p, key)
		if !readable {
			continue
		}
		if rm.dualSeen[key] {
			continue // a dual-write landed while we were reading; it wins
		}
		kind := kvwal.Put
		if !alive {
			kind = kvwal.Delete
		}
		var batches []*kvwal.Batch
		for _, d := range rm.destShards() {
			n := m.c.nodes[d]
			if n.down {
				return
			}
			batches = append(batches, n.store.ApplyAsync(p, []kvwal.Op{{Kind: kind, Key: key}}))
		}
		for _, b := range batches {
			b.Wait(p)
		}
		m.stats.KeysCopied++
		m.c.obs.rebKeys.Inc()
	}
}

// readSource reads key's live state from the first old owner able to serve
// it, with bounded retry passes — per-device retries already happened in
// the block layer's retry engine underneath GetE. A key unreadable from
// every source after the budget is skipped and counted: it is equally
// unreadable to clients, so the copy does not widen the loss.
func (rm *rangeMig) readSource(p *sim.Proc, key string) (alive, readable bool) {
	m := rm.m
	for attempt := 0; ; attempt++ {
		for _, s := range rm.mv.Old {
			n := m.c.nodes[s]
			if n.down {
				continue
			}
			if _, ok, err := n.store.GetE(p, key); err == nil {
				return ok, true
			}
		}
		if attempt >= readRetries {
			break
		}
		p.Sleep(retryBackoff << uint(attempt))
	}
	m.stats.CopySkipped++
	m.c.obs.rebSkipped.Inc()
	return false, false
}

// checkpointDests forces an fdatasync checkpoint on every destination
// store: the cutover gate. After this, every ingested key and every
// committed catch-up delta or dual-write is durable on the destination.
func (rm *rangeMig) checkpointDests(p *sim.Proc) {
	for _, d := range rm.destShards() {
		n := rm.m.c.nodes[d]
		if n.down {
			return
		}
		n.store.ForceCheckpoint(p)
	}
}
