package jbd

// Recovery: mount-time journal replay. The scan walks the journal window,
// groups records by transaction, validates each transaction (descriptor +
// every log block + commit block), and replays valid transactions in id
// order starting from the superblock's checkpoint tail, stopping at the
// first hole. Stopping at the first incomplete transaction is what makes
// journal ordering matter: if JC(k) could land before JD(k) — as it can on
// a nobarrier mount without flush — replay silently truncates or, worse,
// trusts a commit record whose log blocks are garbage.

// Recovered is the outcome of a journal scan.
type Recovered struct {
	TailTxn uint64
	Applied []uint64       // transaction ids replayed, in order
	State   map[uint64]any // home LPA -> newest replayed snapshot
	// Incomplete counts transactions that had some records durable but did
	// not pass validation (crash signature).
	Incomplete int
}

// ReadFn reads the durable contents of an LPA (typically
// device.DurableData after recovery).
type ReadFn func(lpa uint64) (any, bool)

type scannedTxn struct {
	desc   *DescBlock
	logs   map[int]*LogBlock
	commit *CommitBlock
}

// Scan performs journal recovery over the given read function.
func Scan(read ReadFn, cfg Config) Recovered {
	out := Recovered{TailTxn: 1, State: make(map[uint64]any)}
	if sb, ok := read(cfg.SuperLPA); ok {
		if s, ok := sb.(*SuperBlock); ok {
			out.TailTxn = s.TailTxn
		}
	}
	txns := make(map[uint64]*scannedTxn)
	get := func(id uint64) *scannedTxn {
		t := txns[id]
		if t == nil {
			t = &scannedTxn{logs: make(map[int]*LogBlock)}
			txns[id] = t
		}
		return t
	}
	for i := 0; i < cfg.Pages; i++ {
		data, ok := read(cfg.Start + uint64(i))
		if !ok {
			continue
		}
		switch rec := data.(type) {
		case *DescBlock:
			get(rec.TxnID).desc = rec
		case *LogBlock:
			get(rec.TxnID).logs[rec.Index] = rec
		case *CommitBlock:
			get(rec.TxnID).commit = rec
		}
	}
	valid := func(t *scannedTxn) bool {
		if t == nil || t.desc == nil || t.commit == nil {
			return false
		}
		if t.commit.N != t.desc.N || len(t.logs) < t.desc.N {
			return false
		}
		for i := 0; i < t.desc.N; i++ {
			if _, ok := t.logs[i]; !ok {
				return false
			}
		}
		return true
	}
	for id := out.TailTxn; ; id++ {
		t, present := txns[id]
		if !present {
			break
		}
		if !valid(t) {
			out.Incomplete++
			break
		}
		for i := 0; i < t.desc.N; i++ {
			l := t.logs[i]
			out.State[l.Home] = l.Snapshot
		}
		out.Applied = append(out.Applied, id)
	}
	return out
}
