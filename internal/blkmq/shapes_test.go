package blkmq

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/block"
	"repro/internal/device"
	"repro/internal/sim"
)

// front is one shape of the dispatch engine under test.
type front struct {
	name string
	mk   func(k *sim.Kernel, dev *device.Device, cfg block.LayerConfig) *block.Layer
}

// bothShapes builds the same LayerConfig as the single-queue layer and as a
// multi-queue layer of hwq hardware queues.
func bothShapes(hwq int) []front {
	return []front{
		{"single-queue", func(k *sim.Kernel, dev *device.Device, cfg block.LayerConfig) *block.Layer {
			return block.NewLayer(k, dev, block.NewEpochScheduler(block.NewNOOP()), cfg)
		}},
		{"blkmq", func(k *sim.Kernel, dev *device.Device, cfg block.LayerConfig) *block.Layer {
			return New(k, dev, Config{HWQueues: hwq, DispatchOverhead: cfg.DispatchOverhead,
				QueueLimit: cfg.QueueLimit, BarrierAsCommand: cfg.BarrierAsCommand, Trace: cfg.Trace}).Layer
		}},
	}
}

// TestBarrierAsCommand: under the §3.2 ablation a barrier write costs two
// dispatches — the write, flag stripped, and a standalone barrier command —
// and the barrier command closes the epoch of the write's own stream.
func TestBarrierAsCommand(t *testing.T) {
	const stream, epochs, perEpoch = 3, 5, 4
	for _, f := range bothShapes(2) {
		k := sim.NewKernel()
		dev := testDevice(k)
		l := f.mk(k, dev, block.LayerConfig{DispatchOverhead: sim.Microsecond, BarrierAsCommand: true})
		k.Spawn("host", func(p *sim.Proc) {
			lpa := uint64(0)
			for e := 0; e < epochs; e++ {
				for j := 1; j < perEpoch; j++ {
					l.Submit(p, ordered(stream, lpa))
					lpa++
				}
				l.SubmitAndWait(p, barrier(stream, lpa))
				lpa++
			}
			l.Flush(p)
		})
		k.Run()
		k.Close()
		st := l.Stats()
		if want := int64(epochs*perEpoch + 1); st.Completed != want {
			t.Errorf("%s: completed %d requests, want %d", f.name, st.Completed, want)
		}
		if want := st.Submitted + epochs; st.Dispatched != want {
			t.Errorf("%s: %d dispatches for %d requests of which %d barrier writes, want %d",
				f.name, st.Dispatched, st.Submitted, epochs, want)
		}
		if ds := dev.Stats(); ds.Barriers != epochs {
			t.Errorf("%s: device saw %d barriers, want %d", f.name, ds.Barriers, epochs)
		}
		if got := dev.StreamEpoch(stream); got != epochs {
			t.Errorf("%s: device epoch of stream %d = %d, want %d", f.name, stream, got, epochs)
		}
		if got := dev.StreamEpoch(0); got != 0 {
			t.Errorf("%s: barrier commands closed %d epochs of stream 0, which wrote nothing", f.name, got)
		}
	}
}

// TestNegativeQueueLimitMeansDefault: a limit of zero or less selects the
// default on both shapes. Taken literally, a negative limit makes an empty
// queue congested and parks every submitter forever.
func TestNegativeQueueLimitMeansDefault(t *testing.T) {
	for _, f := range bothShapes(1) {
		k := sim.NewKernel()
		l := f.mk(k, testDevice(k), block.LayerConfig{QueueLimit: -1})
		k.Spawn("host", func(p *sim.Proc) { l.SubmitAndWait(p, barrier(0, 1)) })
		k.Run()
		k.Close()
		if st := l.Stats(); st.Completed != 1 {
			t.Errorf("%s: QueueLimit -1: %d of 1 requests completed", f.name, st.Completed)
		}
	}
}

// TestSingleQueueIsTheOneStreamCase: the same seeded requests on stream 0
// through the single-queue layer and through a one-hardware-queue MQ give the
// same dispatch log and, the daemons' names aside, the same kernel event
// order; and VerifyTrace accepts the single-queue log.
func TestSingleQueueIsTheOneStreamCase(t *testing.T) {
	type outcome struct {
		log  []block.DispatchRecord
		recs []sim.TraceRec
	}
	var got []outcome
	for _, f := range bothShapes(1) {
		k := sim.NewKernel()
		tr := k.StartTrace(true)
		l := f.mk(k, testDevice(k), block.LayerConfig{DispatchOverhead: sim.Microsecond, QueueLimit: 8, Trace: true})
		for s := 0; s < 2; s++ {
			rng := rand.New(rand.NewSource(int64(40 + s)))
			k.SpawnIdx("submitter", s, func(p *sim.Proc) {
				lpa := uint64(s * 1000)
				for e := 0; e < 30; e++ {
					for j, n := 0, rng.Intn(12); j < n; j++ {
						if rng.Intn(3) == 0 {
							l.Submit(p, orderless(0, lpa))
						} else {
							l.Submit(p, ordered(0, lpa))
						}
						lpa++
					}
					if e%7 == 6 {
						l.SubmitAndWait(p, barrier(0, lpa))
						l.Flush(p)
					} else {
						l.Submit(p, barrier(0, lpa))
					}
					lpa++
				}
			})
		}
		k.Run()
		k.Close()
		if err := VerifyTrace(l.DispatchLog()); err != nil {
			t.Errorf("%s: %v", f.name, err)
		}
		if l.Stats().StagedPeak == 0 {
			t.Errorf("%s: nothing was ever staged; the load is too light to compare shapes", f.name)
		}
		recs := tr.Records()
		for i := range recs {
			recs[i].Name = "" // "block/dispatch" against "blkmq/hwq0"
		}
		got = append(got, outcome{l.DispatchLog(), recs})
	}
	if !reflect.DeepEqual(got[0].log, got[1].log) {
		t.Errorf("dispatch logs differ: %d records against %d", len(got[0].log), len(got[1].log))
	}
	if !reflect.DeepEqual(got[0].recs, got[1].recs) {
		t.Errorf("kernel event orders differ: %d events against %d", len(got[0].recs), len(got[1].recs))
	}
}
