package main

import (
	"runtime"
	"syscall"
	"time"
)

// A generator that sleeps (see runSchedule) must wake close to each due
// time. time.Sleep rounds a short wait up to the runtime's poller
// granularity (about a millisecond here), which would charge the
// generator's own lateness to every latency it measures; a nanosleep on a
// thread with a 1 µs timer slack wakes within tens of microseconds.

const (
	prSetTimerslack = 29
	prGetTimerslack = 30
)

// lockPrecise pins the calling goroutine to its thread and sets that
// thread's timer slack to 1 µs; the returned function restores both.
func lockPrecise() (restore func()) {
	runtime.LockOSThread()
	old, _, errno := syscall.RawSyscall(syscall.SYS_PRCTL, prGetTimerslack, 0, 0)
	if errno != 0 {
		return runtime.UnlockOSThread
	}
	_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerslack, 1000, 0)
	return func() {
		_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerslack, old, 0)
		runtime.UnlockOSThread()
	}
}

// sleepFor blocks the calling thread for d.
func sleepFor(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}
