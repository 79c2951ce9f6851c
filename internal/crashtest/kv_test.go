package crashtest

import (
	"testing"

	"repro/internal/core"
	"repro/internal/crashmc"
	"repro/internal/device"
)

// TestKVCrashSweep samples crash points on all four kv stack profiles with
// concurrent group-committing clients: zero acknowledged-but-lost keys,
// and (on the barrier engines) group-prefix ordering.
func TestKVCrashSweep(t *testing.T) {
	pts := times(700, 2000, 4500, 9000, 20000, 45000)
	for _, mk := range []func(device.Config) core.Profile{
		core.EXT4DR, core.BFSDR, core.EXT4MQ, core.BFSMQ,
	} {
		sweepClean(t, crashmc.OnStack(mk(device.NVMeSSD()), crashmc.KV(4)), pts)
	}
}

// TestKVCrashSingleClient pins the degenerate no-grouping case (every batch
// is its own group) across crash points on both engines.
func TestKVCrashSingleClient(t *testing.T) {
	for _, mk := range []func(device.Config) core.Profile{core.EXT4DR, core.BFSDR} {
		sweepClean(t, crashmc.OnStack(mk(device.PlainSSD()), crashmc.KV(1)), times(1500, 8000, 30000))
	}
}
