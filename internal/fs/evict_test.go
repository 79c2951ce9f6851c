package fs

import (
	"math/rand"
	"testing"

	"repro/internal/block"
	"repro/internal/jbd"
	"repro/internal/sim"
)

// TestReadSeesNewestWriteUnderBacklog is the safety argument for letting a
// foreground read pass queued writes, in the block layer and in the
// device: the fs never reads a page whose write is queued or in flight,
// because a page leaves the cache only through EvictClean, which refuses an
// inode with writeback in flight. The test interleaves Write,
// WritebackAsync, EvictClean and Read on one file while a hog keeps the
// device's queue full of writes held behind ordered flushes, so writeback
// sits queued for a long time; every Read must return the newest version
// written.
func TestReadSeesNewestWriteUnderBacklog(t *testing.T) {
	const pages = 8
	e := newEnv(jbd.ModeDual)
	defer e.close()
	stop := false
	e.k.Spawn("hog", func(p *sim.Proc) {
		// A flush, then more writes than the device's queue holds behind
		// it, on 64 pages far above the file's blocks (rewritten, so the
		// log never fills); the next round starts when the flush is done.
		for n := uint64(0); !stop; {
			fl := &block.Request{Op: block.OpFlush}
			e.l.Submit(p, fl)
			for j := 0; j < 20; j++ {
				lpa := 1<<16 + n%64
				e.l.Submit(p, &block.Request{Op: block.OpWrite, LPA: lpa, Data: lpa})
				n++
			}
			fl.Wait(p)
		}
	})
	var deviceReads, refused int
	e.run(func(p *sim.Proc) {
		defer func() { stop = true }()
		rng := rand.New(rand.NewSource(1))
		f, _ := e.fs.Create(p, e.fs.Root(), "f")
		want := make([]int64, pages)
		for idx := range int64(pages) {
			e.fs.Write(p, f, idx)
			want[idx], _ = e.fs.PageVer(f, idx)
		}
		for range 600 {
			idx := int64(rng.Intn(pages))
			switch rng.Intn(5) {
			case 0:
				e.fs.Write(p, f, idx)
				want[idx], _ = e.fs.PageVer(f, idx)
			case 1:
				e.fs.WritebackAsync(p, f, block.RoleBackground)
			case 2:
				inflight := len(f.inflight) > 0
				if e.fs.EvictClean(f) == 0 && inflight {
					refused++
				}
			case 3:
				_, cached := e.fs.PageVer(f, idx)
				ver, ok, err := e.fs.Read(p, f, idx, 0)
				if !ok || err != nil || ver != want[idx] {
					t.Fatalf("Read(%d) = %d,%v,%v, want version %d", idx, ver, ok, err, want[idx])
				}
				if !cached {
					deviceReads++
				}
			case 4: // long enough for some writeback to land
				p.Sleep(sim.Duration(rng.Intn(3000)) * sim.Microsecond)
			}
			p.Sleep(sim.Duration(rng.Intn(40)) * sim.Microsecond)
		}
	})
	// The interleaving must have reached both sides of the argument.
	if deviceReads == 0 || refused == 0 {
		t.Errorf("%d reads went to the device and %d evictions were refused for writeback in flight; want both", deviceReads, refused)
	}
}
