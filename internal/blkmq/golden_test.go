package blkmq

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"reflect"
	"testing"

	"repro/internal/block"
	"repro/internal/device"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/sim"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/dispatch_golden.json from this run")

const goldenPath = "testdata/dispatch_golden.json"

// dispatchGolden is what one front-end shape must reproduce: the dispatch
// log, the kernel's event order (two runs dispatch the same events in the
// same order iff Len and Hash are equal) and the statistics (the layer's own and its registry instruments).
type dispatchGolden struct {
	DispatchLen  int
	DispatchHash string
	KernelLen    int
	KernelHash   string
	Stats        map[string]int64
}

// goldenShape is one front-end configuration and the load put on it.
type goldenShape struct {
	name    string
	streams int
	mq      *Config              // nil: the single-queue block.Layer
	layer   block.LayerConfig    // single-queue only
	dev     func(*device.Config) // optional device tweak
	bg      bool                 // stream 0 also issues background writeback
	handler bool                 // a run-to-completion handler submits through SubmitOrPark
	reads   bool                 // submitters read back what they wrote
	noReg   bool                 // run without a metrics registry (instruments nil)
}

func goldenShapes() []goldenShape {
	unc := func(c *device.Config) {
		c.Fault = &fault.Plan{Seed: 7, ReadUNCProb: 0.5,
			ReadRetryLadder: []sim.Duration{20 * sim.Microsecond}, ReadRetryProb: 0.5}
	}
	const tD = sim.Microsecond
	return []goldenShape{
		{name: "single/1-stream", streams: 1, layer: block.LayerConfig{DispatchOverhead: tD}},
		{name: "single/4-streams", streams: 4, layer: block.LayerConfig{DispatchOverhead: tD}},
		{name: "mq/4x4", streams: 4, mq: &Config{HWQueues: 4, DispatchOverhead: tD}},
		{name: "mq/4x2-spread", streams: 4, bg: true,
			mq: &Config{HWQueues: 2, DispatchOverhead: tD}},
		{name: "single/limit4", streams: 4, bg: true, handler: true,
			layer: block.LayerConfig{DispatchOverhead: tD, QueueLimit: 4}},
		{name: "mq/limit4", streams: 4, bg: true, handler: true,
			mq: &Config{HWQueues: 2, DispatchOverhead: tD, QueueLimit: 4}},
		// Stream 0 only on the single-queue layer: the file was recorded when
		// that layer's §3.2 trailer closed stream 0's epoch whatever stream the
		// write rode, so other streams would pin the defect.
		{name: "single/barrier-cmd", streams: 1,
			layer: block.LayerConfig{DispatchOverhead: tD, BarrierAsCommand: true}},
		{name: "mq/barrier-cmd", streams: 4,
			mq: &Config{HWQueues: 2, DispatchOverhead: tD, BarrierAsCommand: true}},
		{name: "single/retry", streams: 2, reads: true, dev: unc,
			layer: block.LayerConfig{DispatchOverhead: tD, Retry: true}},
		{name: "mq/retry", streams: 2, reads: true, dev: unc,
			mq: &Config{HWQueues: 2, DispatchOverhead: tD, Retry: true}},
		{name: "single/no-overhead", streams: 2, noReg: true, layer: block.LayerConfig{}},
		{name: "mq/no-overhead", streams: 2, noReg: true, mq: &Config{HWQueues: 1}},
	}
}

// run drives the shape's seeded load to completion and returns its golden.
func (sh goldenShape) run() dispatchGolden {
	k := sim.NewKernel()
	defer k.Close()
	tr := k.StartTrace(false)
	dc := device.NVMeSSD()
	if sh.dev != nil {
		sh.dev(&dc)
	}
	dev := device.New(k, dc)
	var reg *metrics.Registry
	if !sh.noReg {
		reg = metrics.NewRegistry()
	}

	var front block.Submitter
	var log func() []block.DispatchRecord
	var stats func() map[string]int64
	if sh.mq != nil {
		cfg := *sh.mq
		cfg.Trace, cfg.Metrics = true, reg
		m := New(k, dev, cfg)
		front, log = m, m.DispatchLog
		stats = func() map[string]int64 {
			s := m.Stats()
			var reassigned int64
			for _, es := range m.scheds {
				reassigned += es.Reassigned()
			}
			return map[string]int64{"Submitted": s.Submitted, "Dispatched": s.Dispatched,
				"Completed": s.Completed, "StagedPeak": int64(s.StagedPeak),
				"Streams": int64(s.Streams), "Spread": s.Spread,
				"EpochsClosed": m.EpochsClosed(), "Reassigned": reassigned,
				"OpenStreams": int64(len(m.scheds))}
		}
	} else {
		cfg := sh.layer
		cfg.Trace, cfg.Metrics = true, reg
		es := block.NewEpochScheduler(block.NewNOOP())
		l := block.NewLayer(k, dev, es, cfg)
		front, log = l, l.DispatchLog
		stats = func() map[string]int64 {
			s := l.Stats()
			return map[string]int64{"Submitted": s.Submitted, "Dispatched": s.Dispatched,
				"Completed": s.Completed, "StagedPeak": int64(s.StagedPeak),
				"EpochsClosed": es.EpochsClosed(), "Reassigned": es.Reassigned()}
		}
	}

	for s := 0; s < sh.streams; s++ {
		stream := uint64(s)
		rng := rand.New(rand.NewSource(int64(1000 + s)))
		k.SpawnIdx("golden/submit", s, func(p *sim.Proc) {
			p.Sleep(sim.Duration(rng.Intn(10)) * sim.Microsecond)
			lpa := stream * 10000
			for e := 0; e < 24; e++ {
				for j, n := 0, 1+rng.Intn(6); j < n; j++ {
					r := ordered(stream, lpa)
					switch rng.Intn(4) {
					case 0:
						r = orderless(stream, lpa)
					case 1:
						if sh.bg && s == 0 {
							r = background(stream, lpa)
						}
					}
					lpa++
					front.Submit(p, r)
				}
				b := barrier(stream, lpa)
				lpa++
				switch e % 6 {
				case 3: // Wait-on-Transfer
					front.SubmitAndWait(p, b)
				case 5: // transfer-and-flush
					front.Submit(p, b)
					front.Flush(p)
					if sh.reads {
						rd := &block.Request{Op: block.OpRead, LPA: lpa - 1, Stream: stream}
						front.SubmitAndWait(p, rd)
					}
				default:
					front.Submit(p, b)
				}
			}
		})
	}
	if sh.handler {
		// The pdflush shape: background writes on stream 0 from a handler
		// that parks on the congestion limit instead of blocking.
		i, r := 0, background(0, 90000)
		k.SpawnHandler("golden/handler", func(h *sim.Proc) {
			for i < 64 {
				if !front.SubmitOrPark(h, r) {
					return // parked; retry with the same request
				}
				i++
				r = background(0, 90000+uint64(i))
			}
			h.Complete()
		})
	}
	k.Run()

	// A record's role ends its line only when it is not RoleSync, so the
	// hash of a log of sync IO alone does not depend on the role column.
	h := fnv.New64a()
	for _, rec := range log() {
		fmt.Fprintf(h, "%d %d %d %d %d %d %d", rec.At, rec.LPA, rec.Op, rec.Flags,
			rec.Epoch, rec.Stream, rec.HWQueue)
		if rec.Role != block.RoleSync {
			fmt.Fprintf(h, " %d", rec.Role)
		}
		fmt.Fprintln(h)
	}
	st := stats()
	for _, smp := range reg.Snapshot() { // the registry's view: names and final values
		st[smp.Name] = int64(smp.Value)
	}
	return dispatchGolden{
		DispatchLen: len(log()), DispatchHash: fmt.Sprintf("%016x", h.Sum64()),
		KernelLen: tr.Len(), KernelHash: fmt.Sprintf("%016x", tr.Hash()),
		Stats: st,
	}
}

// TestDispatchGolden pins both front-ends — dispatch log, kernel event order
// and statistics — to testdata/dispatch_golden.json across the shapes the
// dispatch engine has to serve: shared and per-stream queues, spreading,
// congestion with staging (blocking and handler submitters), the §3.2
// barrier-as-command trailer, and the retry daemon. The file is regenerated
// only by `go test -run TestDispatchGolden -update`; a refactor leaves it
// alone.
func TestDispatchGolden(t *testing.T) {
	got := make(map[string]dispatchGolden)
	for _, sh := range goldenShapes() {
		got[sh.name] = sh.run()
	}
	if *updateGolden {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", goldenPath)
		return
	}
	b, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (record it with -update)", err)
	}
	var want map[string]dispatchGolden
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("golden file has %d shapes, run produced %d", len(want), len(got))
	}
	for name, g := range got {
		if w, ok := want[name]; !ok {
			t.Errorf("%s: not in golden file", name)
		} else if !reflect.DeepEqual(g, w) {
			t.Errorf("%s:\n got: %+v\nwant: %+v", name, g, w)
		}
	}
}
