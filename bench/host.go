//go:build linux

package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// clockProcessCPUTimeID is CLOCK_PROCESS_CPUTIME_ID: user+system CPU time of
// every thread of the process, the quantity getrusage reports, read at
// nanosecond resolution instead of scheduler-tick resolution.
const clockProcessCPUTimeID = 2

// cpuNow returns the CPU time the process has consumed so far. Wall time on a
// shared two-core box ranged 7x for one identical run; CPU time does not count
// the time other tenants held the core.
func cpuNow() time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME,
		clockProcessCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic("clock_gettime(CLOCK_PROCESS_CPUTIME_ID): " + errno.Error())
	}
	return time.Duration(ts.Nano())
}

// peakRSSMB returns the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// hostCost is host-side cost: CPU time, heap objects and heap bytes
// allocated. readHost gives the process's totals so far; since gives the
// cost between two readings.
type hostCost struct {
	cpu    time.Duration
	allocs uint64
	bytes  uint64
}

func readHost() hostCost {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return hostCost{cpu: cpuNow(), allocs: ms.Mallocs, bytes: ms.TotalAlloc}
}

func (c hostCost) since(start hostCost) hostCost {
	return hostCost{cpu: c.cpu - start.cpu, allocs: c.allocs - start.allocs, bytes: c.bytes - start.bytes}
}
