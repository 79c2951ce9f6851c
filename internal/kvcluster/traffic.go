package kvcluster

import (
	"fmt"
	"math/rand"

	"repro/internal/reqtrace"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Traffic describes one open-loop offered load: an arrival process, a
// Zipfian key popularity, a YCSB-style operation mix and a tenant
// population. The whole request stream is pre-generated deterministically
// and then split across shards by the consistent-hash ring, which is
// exactly Poisson splitting: each shard sees an open-loop process of its
// own, replayable in its own kernel with no cross-kernel coordination.
type Traffic struct {
	// Arrivals is the arrival process (rate, shape, seed).
	Arrivals workload.ArrivalConfig
	// Mix is the operation class mix.
	Mix workload.Mix
	// KeySpace is the key universe size (default 16384).
	KeySpace int
	// ZipfTheta is the key-popularity skew (0 = uniform).
	ZipfTheta float64
	// Tenants is the number of tenants sharing the cluster (default 1);
	// each request carries a tenant for per-tenant SLO accounting.
	Tenants int
	// Warmup is discarded lead-in time: arrivals before it run but are not
	// measured (default 5ms — must cover store open and cold daemons).
	Warmup sim.Duration
	// Duration is the measured window after Warmup (default 20ms).
	Duration sim.Duration
}

func (t Traffic) withDefaults() Traffic {
	if t.KeySpace <= 0 {
		t.KeySpace = 16384
	}
	if t.Tenants <= 0 {
		t.Tenants = 1
	}
	if t.Warmup <= 0 {
		t.Warmup = 5 * sim.Millisecond
	}
	if t.Duration <= 0 {
		t.Duration = 20 * sim.Millisecond
	}
	return t
}

// Request is one generated client request, accounted to Tenant (per-tenant
// SLO rows). Trace is zero in the generated stream; the
// dispatcher fills it at admission when the run samples request traces, and
// it only carries that context across the dispatch queue: the worker sets it
// on its proc around serve.
type Request struct {
	At     sim.Time
	Class  workload.OpClass
	Key    string
	Tenant int
	Trace  reqtrace.Ctx
}

// measured reports whether the request arrives inside the measuring window.
func (r Request) measured(t Traffic) bool { return r.At >= sim.Time(t.Warmup) }

// Generate produces the full request stream for [0, Warmup+Duration),
// ascending by arrival time, deterministic under the arrival seed.
func (t Traffic) Generate() []Request {
	t = t.withDefaults()
	times := t.Arrivals.Times(t.Warmup + t.Duration)
	zipf := workload.NewZipf(t.Arrivals.Seed+1, t.KeySpace, t.ZipfTheta)
	rng := rand.New(rand.NewSource(t.Arrivals.Seed + 2))
	reqs := make([]Request, len(times))
	names := workload.KeyNames("u", 7, t.KeySpace)
	for i, at := range times {
		class := t.Mix.Pick(rng) // draw order: class, key, tenant
		k := zipf.Next()
		reqs[i] = Request{At: at, Class: class, Key: names[k], Tenant: rng.Intn(t.Tenants)}
	}
	return reqs
}

// maxRouted is the largest shard count routes can record: a byte per request.
const maxRouted = 256

// routes returns each request's shard under ring, one byte per request. The
// shards' runners all replay the one stream and skip what the ring sends
// elsewhere, so the stream is never copied per shard.
func routes(reqs []Request, ring *Ring) []uint8 {
	if ring.Shards() > maxRouted {
		panic(fmt.Sprintf("kvcluster: %d shards, a routed stream holds at most %d", ring.Shards(), maxRouted))
	}
	shard := make([]uint8, len(reqs))
	for n := range reqs {
		shard[n] = uint8(ring.Shard(reqs[n].Key))
	}
	return shard
}
