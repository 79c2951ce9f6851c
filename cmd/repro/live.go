package main

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/internal/metrics"
	"repro/internal/par"
)

// Live-stats mode: -live streams a one-line snapshot of the sweep to stderr
// every interval, and -live-http serves the full registry snapshot plus
// progress as JSON. Both install a process-wide metrics.Registry, which
// every stack layer then registers its instruments into (see
// metrics.Resolve); without either flag no registry exists and the
// instrument calls stay on their nil fast path.

type liveStats struct {
	reg  *metrics.Registry
	srv  *http.Server
	stop chan struct{}
	done chan struct{}
}

// headline is the subset of registry samples worth a terminal line: one
// cumulative figure per stack layer plus the crash-sweep counters the
// long-running experiments are dominated by.
var headline = []string{
	"device/writes", "blkmq/dispatched", "jbd/commits",
	"fs/pdflush.runs", "kvwal/group.commits",
	"crashmc/states", "crashmc/samples",
}

func startLive(interval time.Duration, httpAddr string) (*liveStats, error) {
	ls := &liveStats{
		reg:  metrics.NewRegistry(),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	metrics.SetLive(ls.reg)
	if httpAddr != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("/metrics", ls.serveMetrics)
		mux.HandleFunc("/", ls.serveMetrics)
		ln, err := net.Listen("tcp", httpAddr)
		if err != nil {
			return nil, fmt.Errorf("live-http: %v", err)
		}
		fmt.Fprintf(os.Stderr, "repro: live stats at http://%s/metrics\n", ln.Addr())
		ls.srv = &http.Server{Handler: mux}
		go ls.srv.Serve(ln)
	}
	go ls.loop(interval)
	return ls, nil
}

// loop prints the stderr line. With -live unset (interval 0) the goroutine
// just waits for shutdown so -live-http can run alone.
func (ls *liveStats) loop(interval time.Duration) {
	defer close(ls.done)
	if interval <= 0 {
		<-ls.stop
		return
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-ls.stop:
			return
		case <-tick.C:
			fmt.Fprintln(os.Stderr, ls.line())
		}
	}
}

// line renders the one-line stderr snapshot.
func (ls *liveStats) line() string {
	done, total := par.Progress()
	var b strings.Builder
	fmt.Fprintf(&b, "live: cells %d/%d", done, total)
	samples := ls.reg.Snapshot()
	byName := make(map[string]float64, len(samples))
	for _, s := range samples {
		byName[s.Name] = s.Value
	}
	for _, name := range headline {
		if v, ok := byName[name]; ok && v != 0 {
			fmt.Fprintf(&b, "  %s=%s", name, trimNum(v))
		}
	}
	// kvcluster shards register per-shard admission instruments under a
	// "kvcluster/shard=<i>/" prefix; the stderr line carries their
	// cluster-wide sums (the per-shard breakdown is on -live-http).
	var admitted, shed, inflight float64
	for _, s := range samples {
		if !strings.HasPrefix(s.Name, "kvcluster/shard=") {
			continue
		}
		switch {
		case strings.HasSuffix(s.Name, "/admitted"):
			admitted += s.Value
		case strings.HasSuffix(s.Name, "/shed"):
			shed += s.Value
		case strings.HasSuffix(s.Name, "/inflight"):
			inflight += s.Value
		}
	}
	if admitted != 0 {
		fmt.Fprintf(&b, "  kvcluster/admitted=%s", trimNum(admitted))
	}
	if shed != 0 {
		fmt.Fprintf(&b, "  kvcluster/shed=%s", trimNum(shed))
	}
	if inflight != 0 {
		fmt.Fprintf(&b, "  kvcluster/inflight=%s", trimNum(inflight))
	}
	return b.String()
}

// liveSnapshot is the /metrics JSON body.
type liveSnapshot struct {
	CellsDone  int64            `json:"cells_done"`
	CellsTotal int64            `json:"cells_total"`
	Samples    []metrics.Sample `json:"samples"`
}

func (ls *liveStats) serveMetrics(w http.ResponseWriter, r *http.Request) {
	done, total := par.Progress()
	snap := liveSnapshot{CellsDone: done, CellsTotal: total, Samples: ls.reg.Snapshot()}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(snap)
}

// shutdown stops the ticker and server and prints a final snapshot line so
// short runs still show their totals.
func (ls *liveStats) shutdown() {
	close(ls.stop)
	<-ls.done
	if ls.srv != nil {
		ls.srv.Close()
	}
	fmt.Fprintln(os.Stderr, ls.line())
}
