package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"
	"time"
	"unsafe"
)

// On a two-core box the load generator and the daemons fight over the same
// cores, and which thread lands where changes from second to second: the
// same request costs one scheduler hand-off or two, and throughput moves by
// a third between identical runs. The harness therefore gives itself the
// first allowed CPU and every daemon it starts the second; both sides then
// always pay the cross-CPU hand-off and their numbers repeat. With fewer
// than two CPUs nothing is pinned.

// cpuMask is the kernel's CPU set for the sched_*affinity calls.
type cpuMask [16]uint64 // 1024 CPUs

func (m *cpuMask) set(cpu int)      { m[cpu/64] |= 1 << (cpu % 64) }
func (m *cpuMask) has(cpu int) bool { return m[cpu/64]&(1<<(cpu%64)) != 0 }

func getAffinity() (cpuMask, error) {
	var m cpuMask
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	if e != 0 {
		return m, e
	}
	return m, nil
}

func setAffinity(tid int, m cpuMask) error {
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	if e != 0 {
		return e
	}
	return nil
}

// pinning is the CPU split of a run; the zero value pins nothing.
type pinning struct {
	on               bool
	harness, daemons cpuMask
	harnessCPU       int
	daemonCPU        int
}

// pinHarness moves every thread of this process to the first allowed CPU
// (threads created later inherit it) and reserves the second for daemons.
func pinHarness() pinning {
	allowed, err := getAffinity()
	if err != nil {
		return pinning{}
	}
	var cpus []int
	for c := 0; c < len(allowed)*64 && len(cpus) < 2; c++ {
		if allowed.has(c) {
			cpus = append(cpus, c)
		}
	}
	if len(cpus) < 2 {
		return pinning{}
	}
	p := pinning{on: true, harnessCPU: cpus[0], daemonCPU: cpus[1]}
	p.harness.set(cpus[0])
	p.daemons.set(cpus[1])
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return pinning{}
	}
	for _, t := range tasks {
		tid, err := strconv.Atoi(t.Name())
		if err != nil {
			continue
		}
		if err := setAffinity(tid, p.harness); err != nil {
			fmt.Fprintf(os.Stderr, "bench: cannot pin thread %d: %v; running unpinned\n", tid, err)
			return pinning{}
		}
	}
	return p
}

// startPinned runs start (which forks a child) on a thread that is, for the
// duration, bound to the daemons' CPU: the child inherits the binding, and
// its Go runtime sizes itself for the one CPU it sees.
func (p pinning) startPinned(start func() error) error {
	if !p.on {
		return start()
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	if err := setAffinity(0, p.daemons); err != nil {
		return start()
	}
	defer func() { _ = setAffinity(0, p.harness) }() // cannot fail where the first call did not
	return start()
}

// An idle virtual CPU halts, the host puts the core behind it to sleep, and
// the next request pays for waking it and for the cold caches it finds:
// about 100 µs of a 240 µs read on the box this was written on and a quarter
// of the CPU time of a 2 ms query, and by how much depends on what the rest
// of the host is doing that minute. A workload can therefore ask for a
// spinner on the daemons' CPU while its open loop runs: a child of this
// binary that does nothing at idle priority (SCHED_IDLE: it runs only when
// nothing else wants the CPU). The CPU then never halts, as on a server with
// processor sleep states turned off, and a request costs the same from
// minute to minute. Only read-mix asks: beside a daemon that waits for the
// disk the spinner did harm (every edit of whole stretches of edit-durable
// took 6 ms instead of 0.6 ms).

const (
	schedIdle     = 5 // SCHED_IDLE
	spinningLine  = "spinning"
	spinnerPatrol = 50 * time.Millisecond
)

// spin is the whole life of a spinner process: drop to idle priority, say
// so, and yield the CPU in a loop until killed — or until the harness is
// gone. Yielding, not looping, so that whoever becomes runnable never waits
// for the spinner to be preempted.
func spin() int {
	runtime.LockOSThread()
	var param struct{ priority int32 }
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param))); e != 0 {
		fmt.Fprintln(os.Stderr, "bench: spinner cannot take idle priority:", e)
		return 1
	}
	fmt.Println(spinningLine)
	parent := os.Getppid()
	for os.Getppid() == parent {
		for t := time.Now(); time.Since(t) < spinnerPatrol; {
			syscall.RawSyscall(syscall.SYS_SCHED_YIELD, 0, 0, 0)
		}
	}
	return 0
}

// keepAwake starts the spinner on the daemons' CPU and returns what stops
// it. Without pinning, or where idle priority is refused, nothing runs and
// ok is false.
func (f *fleet) keepAwake() (stop func(), ok bool) {
	none := func() {}
	if !f.pin.on {
		return none, false
	}
	self, err := os.Executable()
	if err != nil {
		return none, false
	}
	c := exec.Command(self, "-spin")
	out, err := c.StdoutPipe()
	if err != nil || f.pin.startPinned(c.Start) != nil {
		return none, false
	}
	f.mu.Lock()
	f.spinner = c
	f.mu.Unlock()
	if line, _ := bufio.NewReader(out).ReadString('\n'); line != spinningLine+"\n" {
		f.stopSpinner()
		return none, false
	}
	return f.stopSpinner, true
}

// stopSpinner kills the spinner, if one is running, and waits for it.
func (f *fleet) stopSpinner() {
	f.mu.Lock()
	c := f.spinner
	f.spinner = nil
	f.mu.Unlock()
	if c != nil {
		_ = c.Process.Kill() // an already exited process is fine
		_ = c.Wait()         // "signal: killed" is the expected outcome
	}
}
