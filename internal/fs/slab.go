package fs

// slabSize is the number of entries one slab allocation carves.
const slabSize = 64

// slab hands out zeroed *T carved from arrays of slabSize, so slabSize small
// objects cost one allocation. An entry is never handed out twice: whoever
// holds the pointer may keep it forever, which is what lets a content stamp
// ride into the device cache and the NAND array with no copy. The price is
// retention — one live entry pins its whole slab.
type slab[T any] struct {
	free []T
}

func (s *slab[T]) new() *T {
	if len(s.free) == 0 {
		s.free = make([]T, slabSize)
	}
	x := &s.free[0]
	s.free = s.free[1:]
	return x
}
