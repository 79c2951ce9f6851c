package crashmc

import (
	"testing"

	"repro/internal/core"
	"repro/internal/device"
)

// TestKVCrashSweep enumerates crash points on all four kv stack profiles
// with concurrent group-committing clients: zero acknowledged-but-lost
// keys, and (on the barrier engines) group-prefix ordering. 10.8 ms on
// EXT4-DR and 38.4 ms on EXT4-MQ are the instants where fdatasync once
// returned before the commit holding a new segment's allocation was
// durable.
func TestKVCrashSweep(t *testing.T) {
	pts := times(700, 2000, 4500, 9000, 10800, 20000, 38400, 45000)
	for _, mk := range []func(device.Config) core.Profile{
		core.EXT4DR, core.BFSDR, core.EXT4MQ, core.BFSMQ,
	} {
		sweepClean(t, OnStack(mk(device.NVMeSSD()), KV(4)), pts)
	}
}

// TestKVCrashSingleClient pins the degenerate no-grouping case (every batch
// is its own group) across crash points on both engines.
func TestKVCrashSingleClient(t *testing.T) {
	for _, mk := range []func(device.Config) core.Profile{core.EXT4DR, core.BFSDR} {
		sweepClean(t, OnStack(mk(device.PlainSSD()), KV(1)), times(1500, 8000, 30000))
	}
}
