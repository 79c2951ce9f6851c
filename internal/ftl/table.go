package ftl

// A Table chunk holds 1<<tableShift entries.
const (
	tableShift = 9
	chunkLen   = 1 << tableShift
	chunkMask  = chunkLen - 1
)

// Table maps logical page addresses to values of type V. The filesystem
// hands LPAs out densely from a counter and never reuses one, so a map keyed
// by LPA would grow, and rehash, with every new page. A Table stores
// fixed-size chunks instead, each allocated at the first touch of its LPA
// range, with a presence bit per entry; its footprint follows the highest
// LPA touched. The zero Table is empty and ready to use.
type Table[V any] struct {
	chunks []*tableChunk[V]
}

type tableChunk[V any] struct {
	vals    [chunkLen]V
	present [chunkLen / 64]uint64
}

// slot returns lpa's chunk, nil when none was allocated, and its index in
// the chunk.
func (t *Table[V]) slot(lpa uint64) (*tableChunk[V], uint64) {
	if c := lpa >> tableShift; c < uint64(len(t.chunks)) {
		return t.chunks[c], lpa & chunkMask
	}
	return nil, 0
}

// Get returns lpa's value and whether it has one.
func (t *Table[V]) Get(lpa uint64) (V, bool) {
	if ch, i := t.slot(lpa); ch != nil && ch.present[i>>6]&(1<<(i&63)) != 0 {
		return ch.vals[i], true
	}
	var zero V
	return zero, false
}

// Set stores v as lpa's value.
func (t *Table[V]) Set(lpa uint64, v V) {
	c := lpa >> tableShift
	for uint64(len(t.chunks)) <= c {
		t.chunks = append(t.chunks, nil)
	}
	ch := t.chunks[c]
	if ch == nil {
		ch = new(tableChunk[V])
		t.chunks[c] = ch
	}
	i := lpa & chunkMask
	ch.present[i>>6] |= 1 << (i & 63)
	ch.vals[i] = v
}

// Delete removes lpa's value, if any.
func (t *Table[V]) Delete(lpa uint64) {
	if ch, i := t.slot(lpa); ch != nil {
		ch.present[i>>6] &^= 1 << (i & 63)
		var zero V
		ch.vals[i] = zero
	}
}
