package sim

// Trace is a dispatch-trace recorder: every event the kernel dispatches is
// folded into a running FNV-1a hash of its (time, seq, proc-id, proc-name)
// tuple, with the full record sequence optionally retained for diffing. Two
// runs dispatch byte-identical event orders iff their traces have equal
// (Len, Hash); this is the harness behind the golden dispatch-trace tests,
// which pin each workload's trace to a frozen file.
type Trace struct {
	n    int
	hash uint64
	keep bool
	recs []TraceRec
}

// TraceRec is one dispatched event.
type TraceRec struct {
	At   Time
	Seq  uint64
	Proc int
	Name string
}

const (
	fnvOffset64 = 0xcbf29ce484222325
	fnvPrime64  = 0x100000001b3
)

// StartTrace begins recording the kernel's dispatch sequence. With keep set,
// every record is retained (for diffing divergent runs); otherwise only the
// count and rolling hash are kept, so tracing adds no allocation per event.
func (k *Kernel) StartTrace(keep bool) *Trace {
	t := &Trace{hash: fnvOffset64, keep: keep}
	k.tr = t
	return t
}

func (t *Trace) record(e event) {
	t.n++
	h := t.hash
	h = fnvUint64(h, uint64(e.at))
	h = fnvUint64(h, e.seq)
	h = fnvUint64(h, uint64(e.p.id))
	// Fold the proc name without forcing a lazy prefix+idx name to render:
	// hash the prefix bytes then the decimal digits, which is byte-identical
	// to hashing the rendered string.
	for i := 0; i < len(e.p.name); i++ {
		h = (h ^ uint64(e.p.name[i])) * fnvPrime64
	}
	if e.p.nameIdx >= 0 {
		var digits [20]byte
		n := len(digits)
		v := e.p.nameIdx
		if v == 0 {
			n--
			digits[n] = '0'
		}
		for v > 0 {
			n--
			digits[n] = byte('0' + v%10)
			v /= 10
		}
		for _, b := range digits[n:] {
			h = (h ^ uint64(b)) * fnvPrime64
		}
	}
	t.hash = h
	if t.keep {
		t.recs = append(t.recs, TraceRec{At: e.at, Seq: e.seq, Proc: e.p.id, Name: e.p.Name()})
	}
}

func fnvUint64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ (v & 0xff)) * fnvPrime64
		v >>= 8
	}
	return h
}

// Len returns the number of dispatches recorded.
func (t *Trace) Len() int { return t.n }

// Hash returns the rolling FNV-1a hash over all records.
func (t *Trace) Hash() uint64 { return t.hash }

// Records returns the retained records (empty unless keep was set).
func (t *Trace) Records() []TraceRec { return t.recs }
