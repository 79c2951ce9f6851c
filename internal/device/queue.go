package device

// The command queue. SCSI ordering (§3.4) is scoped per stream: a command
// waits only for earlier commands of its own stream, which is what lets
// independent streams proceed through their own barriers concurrently.
//
// Reads are the exception: a read is eligible on arrival, whatever its
// stream holds. A read is an orderless request, which the epoch rules let
// cross epochs (§3.3), and it changes nothing persistent, so no crash state
// depends on where it is serviced. It could already pass every simple
// write; passing an ordered one or a flush too is safe because the fs never
// reads a page whose writeback is in flight (EvictClean keeps such a page
// cached), so no read can overtake the write it would observe.
//
// The device keeps, per stream, an index of the incomplete commands and, for
// the whole device, the ready set — the queued commands that may begin
// service now. Both are maintained incrementally: a submit or a completion
// touches one stream's index, moves exactly the commands it made eligible
// into the ready set and wakes exactly as many parked workers as there are
// ready commands nobody is on the way to pick. No path scans the queue.

// cmdLink is a command's position in one of its stream's two lists.
type cmdLink struct{ prev, next *Command }

const (
	linkAll = iota // every incomplete command of the stream
	linkOrd        // the ordered and head-of-queue ones among them
)

// cmdList is an intrusive list of commands in arrival (seq) order with O(1)
// removal; which selects the Command.links slot it threads through.
type cmdList struct {
	head, tail *Command
	which      int
}

func (l *cmdList) pushBack(c *Command) {
	c.links[l.which] = cmdLink{prev: l.tail}
	if l.tail != nil {
		l.tail.links[l.which].next = c
	} else {
		l.head = c
	}
	l.tail = c
}

func (l *cmdList) remove(c *Command) {
	ln := c.links[l.which]
	if ln.prev != nil {
		ln.prev.links[l.which].next = ln.next
	} else {
		l.head = ln.next
	}
	if ln.next != nil {
		ln.next.links[l.which].prev = ln.prev
	} else {
		l.tail = ln.prev
	}
	c.links[l.which] = cmdLink{}
}

// streamOrder indexes one stream's incomplete commands (queued and in
// service). The list heads answer the SCSI eligibility questions in O(1).
//
// Within a stream the blocked commands form a suffix of the arrivals that
// are neither head-of-queue commands nor reads: whatever holds a command
// back — an earlier incomplete ordered command, or for an ordered command
// any earlier incomplete one — holds back every later such arrival too.
// Eligibility is monotone (only earlier commands matter and they only
// complete), so a completion releases a run of commands starting at the
// first blocked one.
type streamOrder struct {
	all     cmdList  // every incomplete command
	ord     cmdList  // incomplete ordered/head-of-queue commands
	blocked *Command // oldest queued command that is not yet eligible
}

func newStreamOrder() *streamOrder {
	return &streamOrder{all: cmdList{which: linkAll}, ord: cmdList{which: linkOrd}}
}

func (d *Device) streamOrderFor(stream uint64) *streamOrder {
	if stream == 0 {
		return d.order0
	}
	so := d.order[stream]
	if so == nil {
		so = newStreamOrder()
		d.order[stream] = so
	}
	return so
}

// eligible reports whether queued command c may begin service under the SCSI
// ordering rules, given every incomplete command of its stream that arrived
// before it. A read is eligible on arrival (see the top of this file).
func (so *streamOrder) eligible(c *Command) bool {
	if c.Kind == CmdRead {
		return true
	}
	switch c.Prio {
	case PrioHeadOfQueue:
		return true
	case PrioOrdered:
		// Only after everything received before it.
		return so.all.head == c
	default: // simple: must not pass an earlier ordered/head-of-queue command
		return so.ord.head == nil || so.ord.head.seq > c.seq
	}
}

// admit enters a newly submitted command into its stream's index and, if
// nothing earlier holds it back, into the ready set.
func (d *Device) admit(c *Command) {
	so := d.streamOrderFor(c.Stream)
	c.so = so
	so.all.pushBack(c)
	if c.Prio != PrioSimple {
		so.ord.pushBack(c)
	}
	if so.eligible(c) {
		d.makeReady(c)
		return
	}
	c.state = cmdBlocked
	if so.blocked == nil {
		so.blocked = c
	}
}

// retire drops a completed command from its stream's index and moves the
// commands its completion made eligible to the ready set.
func (d *Device) retire(c *Command) {
	so := c.so
	c.so = nil
	so.all.remove(c)
	if c.Prio != PrioSimple {
		so.ord.remove(c)
	}
	b := so.blocked
	for b != nil && so.eligible(b) {
		d.makeReady(b)
		// The next blocked command follows in arrival order; only
		// head-of-queue commands and reads (ready on arrival) can sit in
		// between.
		b = b.links[linkAll].next
		for b != nil && b.state != cmdBlocked {
			b = b.links[linkAll].next
		}
	}
	so.blocked = b
}

// makeReady adds c to the ready set. The set is kept in arrival order so
// that pick's seeded draw indexes the candidates exactly as a scan of the
// whole queue would — every simulated cell depends on that draw. Commands
// leave the set within the instant they enter it (there are as many workers
// as queue slots), so it stays a handful long and the insertion is O(1) in
// practice; a fresh submit always lands at the tail.
func (d *Device) makeReady(c *Command) {
	c.state = cmdReady
	if c.Prio == PrioHeadOfQueue {
		d.readyHoQ++
	}
	i := len(d.ready)
	d.ready = append(d.ready, c)
	for ; i > 0 && d.ready[i-1].seq > c.seq; i-- {
		d.ready[i] = d.ready[i-1]
	}
	d.ready[i] = c
}

// wakePickers wakes one parked worker for every ready command that no worker
// is already on its way to pick. d.pickers counts the workers that will run
// pick at the current instant before parking again: woken or newly spawned
// ones not yet dispatched, and a completing worker about to re-pick inline.
// Every queued command has an idle worker (QueueDepth of each), so the
// parked ones always suffice. The one futile wake left: a worker completing
// in the same instant re-picks inline, ahead of a woken worker not yet
// dispatched, and may take the command that one was woken for.
func (d *Device) wakePickers() {
	if n := min(len(d.ready)-d.pickers, d.pickCond.Waiters()); n > 0 {
		d.pickers += n
		d.pickCond.SignalN(n)
	}
}

// pick takes one command from the ready set for the calling worker,
// emulating the controller's freedom to choose among simple commands: a
// seeded draw over the ready commands, except that a head-of-queue command,
// when one is ready, is the only candidate. woken says the worker was
// dispatched off pickCond (not picking inline after a completion or on its
// first activation); a woken worker that finds nothing paid a kernel event
// for it, which Stats.FutileWakes counts.
func (d *Device) pick(woken bool) *Command {
	if d.dead {
		return nil
	}
	d.pickers--
	first, n := 0, len(d.ready)
	if n == 0 {
		if woken {
			d.stats.FutileWakes++
		}
		return nil
	}
	if d.readyHoQ > 0 {
		for d.ready[first].Prio != PrioHeadOfQueue {
			first++
		}
		d.readyHoQ--
		n = 1
	}
	i := first + d.rng.Intn(n)
	c := d.ready[i]
	last := len(d.ready) - 1
	copy(d.ready[i:], d.ready[i+1:])
	d.ready[last] = nil
	d.ready = d.ready[:last]
	c.state = cmdInService
	return c
}
