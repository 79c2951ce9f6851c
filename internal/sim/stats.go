package sim

import "sync/atomic"

// KernelStats counts the kernel's own work: dispatches split by proc kind
// (run-to-completion handler vs blocking "goroutine" proc), stale-event
// discards, and procs spawned and started. The fields are atomic so a
// live-stats reader on another OS goroutine can snapshot them while the
// simulation runs, and the struct lives here rather than in internal/metrics
// because metrics imports sim — the registry adopts a *KernelStats instead.
//
// A kernel with no stats attached (the default) pays one nil check per
// dispatch; the golden-trace oracle pins that attaching stats does not
// perturb dispatch order.
type KernelStats struct {
	HandlerDispatches   atomic.Int64 // events run inline on the dispatcher
	GoroutineDispatches atomic.Int64 // events that resumed a blocking proc's coroutine
	StaleEvents         atomic.Int64 // wake-ups invalidated before firing
	Spawns              atomic.Int64 // blocking procs created
	HandlerSpawns       atomic.Int64 // handler procs created
	// Spawns that started a new goroutine: with no pool to hit, every
	// blocking proc that got to run. The frozen bench/ reads it by this name.
	PoolMisses atomic.Int64
}

// AttachStats points the kernel at a stats block; several kernels may share
// one (a parallel sweep aggregating into a single registry). Nil detaches.
func (k *Kernel) AttachStats(s *KernelStats) { k.ks = s }

// Stats returns the attached stats block, or nil.
func (k *Kernel) Stats() *KernelStats { return k.ks }
