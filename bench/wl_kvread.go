package main

import (
	"fmt"
	"math/rand"

	"repro/internal/block"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/fs"
	"repro/internal/kvwal"
	"repro/internal/sim"
)

// kv-readmostly: one kvwal store on a BFS-DR stack over the NVMe-class
// device, segments evicted from the page cache once durable. Set-up preloads
// kvrKeys keys and checkpoints; then kvrClients closed-loop clients issue 90 %
// gets and 10 % single-key puts over the preloaded keys, uniformly, with 2 µs
// think time. One op is one get or put; the op latency reported is the get
// latency. The baseline runs the same inputs on EXT4-DR.
//
// Why: the same kvwal, fs, block and device layers used the other way round —
// reads beside writes, a working set (kvrKeys pages) larger than the memtable
// (128 keys) and the device's cache (4096 pages) so segment reads reach the
// device — so a write-path gain that costs reads, or compaction that stalls
// gets, shows. kvcluster does nothing here.
const (
	kvrKeys     = 16384
	kvrClients  = 8
	kvrPutPct   = 10
	kvrThink    = 2 * sim.Microsecond
	kvrWarmup   = 20 * sim.Millisecond
	kvrWindow   = 160 * sim.Millisecond
	kvrPreBatch = 32
)

func runKVReadMostly(seed int64, scale float64, mode passMode) *pass {
	ps := newPass(mode, kvrWindow.Scale(scale))
	start := readHost()
	tr := ps.tr
	k := ps.newKernel()
	defer k.Close()
	prof := core.BFSDR(device.NVMeSSD())
	if mode == passBaseline {
		prof = core.EXT4DR(device.NVMeSSD())
	}
	s := ps.buildStack(k, prof)

	nkeys := max(int(kvrKeys*scale), 4*kvrPreBatch)
	keys := make([]string, nkeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%05d", i)
	}
	var st *kvwal.Store
	ready := false
	k.Spawn("bench/preload", func(p *sim.Proc) {
		cfg := kvwal.DefaultConfig()
		cfg.EvictSegments = true
		cfg.Metrics = ps.reg
		var err error
		if st, err = kvwal.Open(p, s, cfg); err != nil {
			panic(err)
		}
		ops := make([]kvwal.Op, 0, kvrPreBatch)
		for i := 0; i < nkeys; i += kvrPreBatch {
			ops = ops[:0]
			for _, key := range keys[i:min(i+kvrPreBatch, nkeys)] {
				ops = append(ops, kvwal.Op{Kind: kvwal.Put, Key: key})
			}
			st.Apply(p, ops)
		}
		st.ForceCheckpoint(p)
		ready = true
	})
	for !ready {
		k.RunUntil(k.Now().Add(5 * sim.Millisecond))
	}

	ps.lat = make(latencies, 0, int(600000*ps.win.Seconds()))
	putLat := make(latencies, 0, int(60000*ps.win.Seconds()))
	var gets, puts, bad int64
	measuring := false
	for c := 0; c < kvrClients; c++ {
		rng := rand.New(rand.NewSource(seed<<8 + int64(c)))
		lastAck := make([]uint64, nkeys) // this client's newest acknowledged put per key
		one := make([]kvwal.Op, 1)
		k.SpawnIdx("bench/kvclient", c, func(p *sim.Proc) {
			for {
				ki := rng.Intn(nkeys)
				t0 := p.Now()
				if rng.Intn(100) < kvrPutPct {
					sp := tr.begin(p, "client", "put")
					one[0] = kvwal.Op{Kind: kvwal.Put, Key: keys[ki]}
					lastAck[ki] = st.Apply(p, one)
					tr.end(p, sp)
					if measuring {
						puts++
						putLat = append(putLat, p.Now().Sub(t0))
					}
				} else {
					sp := tr.begin(p, "client", "get")
					seq, ok, err := st.GetE(p, keys[ki])
					tr.end(p, sp)
					if measuring {
						gets++
						ps.lat = append(ps.lat, p.Now().Sub(t0))
						if err != nil || !ok || seq < lastAck[ki] {
							bad++
						}
					}
				}
				p.Sleep(kvrThink)
			}
		})
	}

	warmEnd := k.Now().Add(kvrWarmup.Scale(scale))
	end := warmEnd.Add(ps.win)
	k.RunUntil(warmEnd)
	ps.setup = readHost().since(start)
	d0, k0 := countDevice(s.Dev), countKernel(k.Stats())
	j0, f0, s0 := s.FS.Journal().Stats(), s.FS.Stats(), st.Stats()
	var e0 int64
	if ps.traced() {
		e0 = epochsClosed(s.Layer)
	}
	measuring = true
	ps.measure(k, end)
	measuring = false
	d1, k1 := countDevice(s.Dev), countKernel(k.Stats())
	j1, f1, s1 := s.FS.Journal().Stats(), s.FS.Stats(), st.Stats()
	ps.ops = gets + puts
	ps.userPages = puts
	ps.nandPrograms = d1.nand.Programs - d0.nand.Programs
	ps.attempted, ps.failed = ps.ops, bad
	if bad != 0 {
		ps.fail("kv-readmostly: %d gets of a preloaded key missed it or returned a sequence older than the client's last acknowledged put", bad)
	}

	if ps.traced() {
		groups := float64(s1.GroupCommits - s0.GroupCommits)
		ps.layers = map[string]float64{
			"kvwal.group_size_mean":      ratio(float64(s1.WALRecords-s0.WALRecords), groups),
			"kvwal.group_commits_per_op": ratio(groups, float64(ps.ops)),
			"kvwal.wal_bytes_per_op":     ratio(float64(s1.WALRecords-s0.WALRecords)*fs.PageSize, float64(ps.ops)),
			"kvwal.checkpoint_syncs":     float64(s1.CheckpointSyncs - s0.CheckpointSyncs),
			"kvwal.flushes":              float64(s1.Flushes - s0.Flushes),
			"kvwal.compactions":          float64(s1.Compactions - s0.Compactions),
			"kvwal.segments_live":        float64(s1.SegmentsLive),
			"kvwal.get_us_p99":           ps.lat.pct(99),
			"kvwal.put_us_p99":           putLat.pct(99),
			"block.staged_peak":          float64(s.Layer.Stats().StagedPeak),
			"block.epochs_closed_per_op": ratio(float64(epochsClosed(s.Layer)-e0), float64(ps.ops)),
		}
		deviceLayers(ps.layers, d0, d1, k0, k1, ps.ops)
		journalLayers(ps.layers, j0, j1, f0, f1, ps.ops)
	}

	// Power-fail under load and audit the store's own recovery: every
	// mutation acknowledged durable must survive, and on the barrier engine
	// the surviving WAL must be a group-granularity prefix.
	s.Crash()
	var view *fs.View
	k.Spawn("bench/recover", func(p *sim.Proc) { view, _ = s.RecoverView(p) })
	k.Run()
	rec := st.Recover(view)
	durability, ordering := st.Audit(rec)
	ps.ackedLost = int64(len(durability) + len(ordering))
	for i, v := range append(durability, ordering...) {
		if i < 3 {
			ps.fail("kv-readmostly: audit: %s", v)
		}
	}
	if ps.traced() {
		blockLayers(ps.layers, ps.tr, s.Layer.DispatchLog(), warmEnd, end, ps.ops)
		ps.layers["kvwal.get_device_share"] = ratio(float64(ps.tr.childRequests("get", block.OpRead, warmEnd, end)), float64(gets))
	}
	ps.dg.i64(gets, puts, int64(warmEnd), int64(st.DurableSeq()), int64(rec.WALApplied), int64(len(rec.Keys)),
		s1.GroupCommits, s1.Flushes, s1.Compactions, j1.Commits, d1.dev.Writes, d1.dev.Reads, d1.nand.Programs)
	ps.dg.lat(putLat)
	ps.seal()
	return ps
}
