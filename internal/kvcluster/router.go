package kvcluster

import (
	"slices"
	"sort"
	"strconv"
)

// Consistent-hash routing. Each shard owns vnodes points on a 64-bit hash
// ring; a key routes to the shard owning the first point at or after the
// key's hash. Virtual nodes keep the per-shard key share within a few
// percent of uniform, and — the property consistent hashing is for —
// adding or removing one shard remaps only the keys adjacent to its
// points, not the whole space. Hashing is FNV-1a with fixed constants, so
// placement is deterministic across runs and processes.

// Ring is a consistent-hash ring over a fixed shard count.
type Ring struct {
	shards int
	points []ringPoint // sorted by hash
}

type ringPoint struct {
	hash  uint64
	shard int
}

// fnv1a hashes s with 64-bit FNV-1a, then runs the result through a
// splitmix64-style finalizer: raw FNV over near-identical short strings
// (vnode labels differ in one digit) clusters on the ring, and balance
// needs the high bits well mixed.
func fnv1a[S ~string | ~[]byte](s S) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// vnodes is the consistent-hash virtual node count per shard.
const vnodes = 64

// NewRing builds a ring of shards * vnodes points.
func NewRing(shards int) *Ring {
	if shards <= 0 {
		shards = 1
	}
	r := &Ring{shards: shards, points: make([]ringPoint, 0, shards*vnodes)}
	var buf [48]byte
	for s := 0; s < shards; s++ {
		for v := 0; v < vnodes; v++ {
			label := strconv.AppendInt(append(buf[:0], "shard-"...), int64(s), 10)
			label = strconv.AppendInt(append(label, "-vnode-"...), int64(v), 10)
			r.points = append(r.points, ringPoint{hash: fnv1a(label), shard: s})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Hash ties (astronomically rare, but determinism must not hinge on
		// sort stability): lower shard wins.
		return r.points[i].shard < r.points[j].shard
	})
	return r
}

// Shards returns the shard count.
func (r *Ring) Shards() int { return r.shards }

// Shard routes a key: binary search for the first point at or after the
// key's hash, wrapping to the first point past the top of the ring.
func (r *Ring) Shard(key string) int {
	h := fnv1a(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].shard
}

// ShardsFor returns the n distinct shards owning key, primary first: the
// owners of the first n distinct-shard points walking clockwise from the
// key's hash. This is classic successor-list replica placement — replicas
// are deterministic per key, spread by the vnode shuffle, and stable under
// membership marks (the ring itself never changes; a down shard is skipped
// at routing time, see ShardsForUp). n is clamped to the shard count.
func (r *Ring) ShardsFor(key string, n int) []int {
	return r.shardsFor(key, n, nil)
}

// ShardsForUp is ShardsFor restricted to shards for which down reports
// false. The walk still visits every point in clockwise order, so marking
// a shard down only promotes the next distinct owner — every other key's
// placement is untouched (the consistent-hashing stability property, now
// load-bearing for failover determinism).
func (r *Ring) ShardsForUp(key string, n int, down func(int) bool) []int {
	return r.shardsFor(key, n, down)
}

func (r *Ring) shardsFor(key string, n int, down func(int) bool) []int {
	return r.ownersAt(fnv1a(key), n, down)
}

// ownersAt is the successor walk itself, keyed by ring position instead of
// key: the n distinct not-down shards owning hash h, primary first.
func (r *Ring) ownersAt(h uint64, n int, down func(int) bool) []int {
	if n <= 0 {
		n = 1
	}
	if n > r.shards {
		n = r.shards
	}
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]int, 0, n)
	seen := make(map[int]bool, n)
	for scanned := 0; scanned < len(r.points) && len(out) < n; scanned++ {
		s := r.points[(i+scanned)%len(r.points)].shard
		if seen[s] || (down != nil && down(s)) {
			continue
		}
		seen[s] = true
		out = append(out, s)
	}
	return out
}

// RangeMove is one arc of a migration plan: keys hashing into (Lo, Hi] —
// wrapping past zero when Lo > Hi — are owned by Old before the move and by
// New after it. Both lists are primary-first successor lists.
type RangeMove struct {
	Lo, Hi uint64
	Old    []int
	New    []int
}

// Contains reports whether hash h falls inside the move's arc.
func (m RangeMove) Contains(h uint64) bool {
	if m.Lo < m.Hi {
		return h > m.Lo && h <= m.Hi
	}
	return h > m.Lo || h <= m.Hi // arc wraps past the top of the ring
}

// Diff computes the migration plan from r to target: the arcs whose n-owner
// successor list differs between the two rings. Arc boundaries are the union
// of both rings' points, so within one arc each ring's owner walk is
// constant; adjacent arcs with identical owner lists are merged, keeping the
// plan minimal (consistent hashing guarantees most arcs don't move).
func (r *Ring) Diff(target *Ring, n int) []RangeMove {
	bounds := make([]uint64, 0, len(r.points)+len(target.points))
	for _, p := range r.points {
		bounds = append(bounds, p.hash)
	}
	for _, p := range target.points {
		bounds = append(bounds, p.hash)
	}
	return planMoves(bounds,
		func(h uint64) []int { return r.ownersAt(h, n, nil) },
		func(h uint64) []int { return target.ownersAt(h, n, nil) })
}

// ReplacePlan is the re-replication plan for rebuilding shard i in place:
// every arc whose n-owner list contains i, with Old the surviving owners
// (i skipped, so the next successor is promoted as an extra source) and New
// the full owner list including the rebuilt i. The ring itself is unchanged.
func (r *Ring) ReplacePlan(i, n int) []RangeMove {
	bounds := make([]uint64, 0, len(r.points))
	for _, p := range r.points {
		bounds = append(bounds, p.hash)
	}
	skip := func(s int) bool { return s == i }
	var moves []RangeMove
	for _, mv := range planMoves(bounds,
		func(h uint64) []int { return r.ownersAt(h, n, skip) },
		func(h uint64) []int { return r.ownersAt(h, n, nil) }) {
		if slices.Contains(mv.New, i) {
			moves = append(moves, mv)
		}
	}
	return moves
}

// planMoves walks the arcs delimited by bounds (sorted, deduped here) and
// emits a RangeMove for each arc where oldAt and newAt disagree, merging
// adjacent arcs with equal owner lists — including across the zero-wrap.
func planMoves(bounds []uint64, oldAt, newAt func(uint64) []int) []RangeMove {
	sort.Slice(bounds, func(i, j int) bool { return bounds[i] < bounds[j] })
	uniq := bounds[:0]
	for i, b := range bounds {
		if i == 0 || b != uniq[len(uniq)-1] {
			uniq = append(uniq, b)
		}
	}
	bounds = uniq
	if len(bounds) < 2 {
		return nil
	}
	var moves []RangeMove
	for i, hi := range bounds {
		lo := bounds[(i+len(bounds)-1)%len(bounds)] // arc (lo, hi], wrapping at i == 0
		old, new_ := oldAt(hi), newAt(hi)
		if slices.Equal(old, new_) {
			continue
		}
		if k := len(moves) - 1; k >= 0 && moves[k].Hi == lo &&
			slices.Equal(moves[k].Old, old) && slices.Equal(moves[k].New, new_) {
			moves[k].Hi = hi
			continue
		}
		moves = append(moves, RangeMove{Lo: lo, Hi: hi, Old: old, New: new_})
	}
	// The wrap arc was emitted first; if the last arc abuts it with the same
	// owners, fold them into one wrapping move.
	if len(moves) >= 2 {
		first, last := &moves[0], &moves[len(moves)-1]
		if last.Hi == first.Lo && slices.Equal(first.Old, last.Old) && slices.Equal(first.New, last.New) {
			first.Lo = last.Lo
			moves = moves[:len(moves)-1]
		}
	}
	return moves
}

// sameMembers reports whether a and b contain the same shard set, order
// ignored (a pure reorder needs no data movement).
func sameMembers(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for _, x := range a {
		if !slices.Contains(b, x) {
			return false
		}
	}
	return true
}

// unionInts appends the members of b not already in a, preserving order.
func unionInts(a, b []int) []int {
	out := make([]int, 0, len(a)+len(b))
	out = append(out, a...)
	for _, x := range b {
		if !slices.Contains(out, x) {
			out = append(out, x)
		}
	}
	return out
}
