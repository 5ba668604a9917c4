package main

// The clock every end-to-end time is read on. The reference host is a
// shared virtual machine whose hypervisor takes a varying share of its
// vCPUs' time (steal time): during one market pass it read from 40% to
// 90% of the pass's wall time, so wall-clock figures measured the host's
// other tenants more than the program. The process's CPU time (user plus
// system time of all its threads) does not advance while a vCPU is
// stolen, so every time a run reports is read on it: a pass that keeps
// both cores busy for one wall second reads two CPU seconds.

import (
	"syscall"
	"time"
)

// cpuNow returns the CPU time the process has used so far.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
