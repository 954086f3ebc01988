// Package trace writes Value Change Dump (VCD) files — the standard
// waveform format (IEEE 1364) readable by GTKWave and every RTL debugger —
// from design simulations. C/RTL co-simulation waveforms are how the paper's
// authors debugged their HLS designs; this is the reproduction's equivalent
// artifact for inspecting a run cycle by cycle.
package trace

import (
	"bufio"
	"fmt"
	"io"
	"sort"
)

// SignalID identifies one declared signal.
type SignalID int

type signal struct {
	name  string
	width int
	code  string
	last  int64
	seen  bool
}

// VCD is a value-change-dump writer. Declare signals, call Begin, then
// interleave Set and Tick; Close flushes.
type VCD struct {
	w       *bufio.Writer
	module  string
	scale   string
	signals []signal
	now     uint64
	began   bool
	// pending holds changes at the current timestamp, flushed on Tick.
	pending map[SignalID]int64
}

// NewVCD returns a writer targeting w. module names the scope; timescale is
// a VCD timescale like "10ns" (one tick = one 100 MHz cycle).
func NewVCD(w io.Writer, module, timescale string) *VCD {
	if module == "" {
		module = "design"
	}
	if timescale == "" {
		timescale = "10ns"
	}
	return &VCD{
		w:       bufio.NewWriter(w),
		module:  module,
		scale:   timescale,
		pending: make(map[SignalID]int64),
	}
}

// Signal declares a signal before Begin. Width is in bits (1..64).
func (v *VCD) Signal(name string, widthBits int) SignalID {
	if v.began {
		panic("trace: Signal after Begin")
	}
	if widthBits < 1 || widthBits > 64 {
		panic(fmt.Sprintf("trace: signal %q width %d", name, widthBits))
	}
	id := SignalID(len(v.signals))
	v.signals = append(v.signals, signal{name: name, width: widthBits, code: idCode(int(id))})
	return id
}

// idCode builds the VCD identifier code: printable ASCII 33..126, multi-char
// beyond 94 signals.
func idCode(i int) string {
	const base = 94
	code := []byte{byte(33 + i%base)}
	for i >= base {
		i = i/base - 1
		code = append([]byte{byte(33 + i%base)}, code...)
	}
	return string(code)
}

// Begin writes the header. Signals declared afterwards panic.
func (v *VCD) Begin() error {
	if v.began {
		return fmt.Errorf("trace: Begin called twice")
	}
	v.began = true
	fmt.Fprintf(v.w, "$timescale %s $end\n$scope module %s $end\n", v.scale, v.module)
	for _, s := range v.signals {
		fmt.Fprintf(v.w, "$var wire %d %s %s $end\n", s.width, s.code, s.name)
	}
	fmt.Fprintf(v.w, "$upscope $end\n$enddefinitions $end\n")
	return v.w.Flush()
}

// Set records a signal value at the current time. The change is emitted on
// the next Tick (or Close) and only if the value differs from the last one.
func (v *VCD) Set(id SignalID, value int64) {
	if !v.began {
		panic("trace: Set before Begin")
	}
	if int(id) < 0 || int(id) >= len(v.signals) {
		panic(fmt.Sprintf("trace: unknown signal %d", id))
	}
	v.pending[id] = value
}

// Tick flushes pending changes at the current timestamp and advances time by
// n ticks.
func (v *VCD) Tick(n uint64) error {
	if !v.began {
		return fmt.Errorf("trace: Tick before Begin")
	}
	if err := v.flushChanges(); err != nil {
		return err
	}
	v.now += n
	return nil
}

func (v *VCD) flushChanges() error {
	if len(v.pending) == 0 {
		return nil
	}
	// Deterministic output order.
	ids := make([]int, 0, len(v.pending))
	for id := range v.pending {
		ids = append(ids, int(id))
	}
	sort.Ints(ids)
	wroteTime := false
	for _, i := range ids {
		s := &v.signals[i]
		val := v.pending[SignalID(i)]
		if s.seen && s.last == val {
			continue
		}
		if !wroteTime {
			fmt.Fprintf(v.w, "#%d\n", v.now)
			wroteTime = true
		}
		s.last = val
		s.seen = true
		if s.width == 1 {
			fmt.Fprintf(v.w, "%d%s\n", val&1, s.code)
		} else {
			fmt.Fprintf(v.w, "b%b %s\n", uint64(val), s.code)
		}
	}
	clear(v.pending)
	return nil
}

// Close flushes pending changes and the underlying buffer.
func (v *VCD) Close() error {
	if v.began {
		if err := v.flushChanges(); err != nil {
			return err
		}
	}
	return v.w.Flush()
}
