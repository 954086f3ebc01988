package harness

import (
	"fmt"
	"math/bits"
	"os"
	"runtime"
	"strconv"
	"syscall"
	"time"
	"unsafe"
)

// cpuMask is a sched_setaffinity bit set (1024 CPUs, the kernel's default
// cpu_set_t).
type cpuMask [16]uint64

func (m *cpuMask) set(cpu int)      { m[cpu/64] |= 1 << uint(cpu%64) }
func (m *cpuMask) has(cpu int) bool { return m[cpu/64]&(1<<uint(cpu%64)) != 0 }

func (m *cpuMask) count() int {
	n := 0
	for _, w := range m {
		n += bits.OnesCount64(w)
	}
	return n
}

// cpus lists the set CPUs in ascending order.
func (m *cpuMask) cpus() []int {
	var out []int
	for c := 0; c < len(m)*64; c++ {
		if m.has(c) {
			out = append(out, c)
		}
	}
	return out
}

func oneCPU(cpu int) cpuMask {
	var m cpuMask
	m.set(cpu)
	return m
}

// getAffinity reads thread tid's CPU set (0 = the calling thread).
func getAffinity(tid int) (cpuMask, error) {
	var m cpuMask
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY,
		uintptr(tid), unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	if errno != 0 {
		return m, fmt.Errorf("sched_getaffinity(%d): %w", tid, errno)
	}
	return m, nil
}

// setAffinity restricts thread tid (0 = the calling thread) to m.
func setAffinity(tid int, m cpuMask) error {
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY,
		uintptr(tid), unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	if errno != 0 {
		return fmt.Errorf("sched_setaffinity(%d): %w", tid, errno)
	}
	return nil
}

// setProcessAffinity moves every thread of this process onto m. Threads the
// Go runtime creates later are cloned from these and inherit the set; the
// walk runs twice so a thread born during the first pass is caught.
func setProcessAffinity(m cpuMask) error {
	for pass := 0; pass < 2; pass++ {
		ents, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return fmt.Errorf("list threads: %w", err)
		}
		for _, e := range ents {
			tid, err := strconv.Atoi(e.Name())
			if err != nil {
				continue
			}
			// A thread may exit between the listing and the call.
			if err := setAffinity(tid, m); err != nil && pass == 1 {
				return err
			}
		}
	}
	return nil
}

// Host describes where the run happened and how it was pinned; it is the
// output header and rides in every result file.
type Host struct {
	NProc       int     `json:"nproc"`      // CPUs this process may run on
	DaemonCPU   int     `json:"daemon_cpu"` // -1 when unpinned
	GenCPU      int     `json:"generator_cpu"`
	Pinned      bool    `json:"pinned"`
	PinNote     string  `json:"pin_note,omitempty"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	GoVersion   string  `json:"go_version"`
	Clock       string  `json:"clock"`
	StallBefore float64 `json:"stall_ms_per_s_before"`
	StallAfter  float64 `json:"stall_ms_per_s_after"`

	all cpuMask // the affinity set found at start, restored for two-CPU kernels
}

// Label is "pinned" or "unpinned": results from a run that could not place
// daemon and generator on separate CPUs must say so, not pass silently.
func (h *Host) Label() string {
	if h.Pinned {
		return "pinned"
	}
	return "unpinned"
}

// PinHost places this (generator) process on the second allowed CPU and
// reserves the first for the daemon. With fewer than two CPUs, or when the
// kernel refuses, it leaves everything where it was and records why.
func PinHost() *Host {
	h := &Host{
		DaemonCPU: -1, GenCPU: -1,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Clock:      "CLOCK_MONOTONIC via time.Now (vDSO)",
	}
	all, err := getAffinity(0)
	if err != nil {
		h.NProc = runtime.NumCPU()
		h.PinNote = err.Error()
		return h
	}
	h.all = all
	h.NProc = all.count()
	if h.NProc < 2 {
		h.PinNote = fmt.Sprintf("only %d CPU allowed; daemon and generator share it", h.NProc)
		return h
	}
	cpus := all.cpus()
	if err := setProcessAffinity(oneCPU(cpus[1])); err != nil {
		h.PinNote = err.Error()
		return h
	}
	h.DaemonCPU, h.GenCPU, h.Pinned = cpus[0], cpus[1], true
	return h
}

// WithAllCPUs runs fn with the whole process spread over every CPU it was
// allowed at start (the tile-parallel kernels need two real CPUs), then
// returns it to the generator CPU.
func (h *Host) WithAllCPUs(fn func()) error {
	if !h.Pinned {
		fn()
		return nil
	}
	if err := setProcessAffinity(h.all); err != nil {
		return err
	}
	fn()
	return setProcessAffinity(oneCPU(h.GenCPU))
}

// stallFloor is the gap between two consecutive clock reads above which the
// spinning thread must have been off the CPU: a read pair costs ~50 ns, a
// timer interrupt a few microseconds, a hypervisor steal tens to thousands.
const stallFloor = 50 * time.Microsecond

// SpinProbe spins on the clock for d and returns the milliseconds per second
// this thread was stalled (sum of gaps above stallFloor). It is the host
// guard run before and after the measurement; interference on a shared VM
// is bursty, so a quiet probe is necessary, not sufficient.
func SpinProbe(d time.Duration) float64 {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	start := time.Now()
	prev := start
	var stalled time.Duration
	for {
		now := time.Now()
		if gap := now.Sub(prev); gap > stallFloor {
			stalled += gap
		}
		prev = now
		if now.Sub(start) >= d {
			break
		}
	}
	return float64(stalled) / float64(time.Millisecond) / d.Seconds()
}
