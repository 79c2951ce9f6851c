package kvcluster

import (
	"sync"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/reqtrace"
	"repro/internal/sim"
	"repro/internal/workload"
)

// A live registry reader against a live migration (run under -race in CI):
// a host goroutine polls the metrics registry's Snapshot while RunResize
// drives traced traffic through a 3->4 resize. The contract is the one the
// -live stats reader rests on — snapshot readers never race the writers and
// never perturb the run's outcome.
func TestRegistryReaderDuringResizeRace(t *testing.T) {
	reg := metrics.NewRegistry()
	rc := Config{
		Shards: 3, Replicas: 2, Store: smallStore(),
		Metrics: reg,
		Trace:   &reqtrace.Config{Uniform: 16, TopK: 4},
	}
	tr := Traffic{
		Arrivals:  workload.ArrivalConfig{RatePerS: 40_000, Seed: 23},
		Mix:       workload.Mix{ReadPct: 40, DeletePct: 5},
		KeySpace:  2048,
		ZipfTheta: 0.9,
		Tenants:   2,
		Warmup:    3 * sim.Millisecond,
		Duration:  10 * sim.Millisecond,
	}
	spec := ResizeSpec{ResizeAt: sim.Time(6 * sim.Millisecond), NewShards: 4}

	done := make(chan ResizeResult, 1)
	go func() {
		done <- RunResize(rc, tr, spec)
	}()

	// Poll the registry until the run completes.
	var wg sync.WaitGroup
	stop := make(chan struct{})
	snaps := 0
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			reg.Snapshot()
			snaps++
			time.Sleep(200 * time.Microsecond)
		}
	}()

	res := <-done
	close(stop)
	wg.Wait()

	if snaps == 0 {
		t.Fatal("snapshot loop never ran while the resize was live")
	}
	if res.AckedLost != 0 {
		t.Fatalf("%d acked writes lost with a snapshot reader attached", res.AckedLost)
	}
	if res.Failed || res.MigEnd == 0 {
		t.Fatalf("migration did not land: failed=%v end=%.2fms", res.Failed, res.MigEnd)
	}
	if len(res.Exemplars) == 0 {
		t.Fatal("no exemplars sampled across the resize")
	}
	if len(reg.Snapshot()) == 0 {
		t.Fatal("registry collected no instruments from the run")
	}
}
