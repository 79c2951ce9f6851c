package block

// fifo is the block layer's one queue: a head-indexed slice. Popping advances
// the head instead of reslicing, because a [1:] slide throws away the array's
// head capacity and the next append reallocates it — once per refill of every
// scheduler queue. The array is reused in place once the queue empties, and
// compacted once the dead prefix dominates so a queue that never drains does
// not grow without bound (amortized O(1) per pop), like sim's waitFIFO.
type fifo[T any] struct {
	s    []T
	head int
}

func (f *fifo[T]) push(x T) { f.s = append(f.s, x) }

func (f *fifo[T]) len() int { return len(f.s) - f.head }

// peek returns the head item; the queue must not be empty.
func (f *fifo[T]) peek() T { return f.s[f.head] }

// pop removes and returns the head item; the queue must not be empty.
func (f *fifo[T]) pop() T {
	x := f.s[f.head]
	var zero T
	f.s[f.head] = zero // drop the reference for the collector
	f.head++
	switch {
	case f.head == len(f.s):
		f.s = f.s[:0]
		f.head = 0
	case f.head > 32 && f.head*2 >= len(f.s):
		n := copy(f.s, f.s[f.head:])
		clear(f.s[n:])
		f.s = f.s[:n]
		f.head = 0
	}
	return x
}
