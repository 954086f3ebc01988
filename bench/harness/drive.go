package harness

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sort"
	"syscall"
	"time"

	"github.com/wustl-adapt/hepccl/internal/adapt"
)

// verifier checks one rep's downlink records against the oracle. A record
// counts only once, only if its event id belongs to the rep, and only if
// every byte after the id equals the oracle's record for that event's
// template; whatever is left at the end of the rep — dropped, rejected,
// missing or mismatched — is failed.
type verifier struct {
	oracle [][]byte
	base   uint32
	seen   []bool
	// received counts distinct in-range records (the rep ends when it
	// reaches the rep size); ok counts those that also matched.
	received, ok int
	// stray counts duplicates and records from outside the rep.
	stray int
}

func (v *verifier) reset(base uint32, n int) {
	v.base = base
	if cap(v.seen) < n {
		v.seen = make([]bool, n)
	}
	v.seen = v.seen[:n]
	for i := range v.seen {
		v.seen[i] = false
	}
	v.received, v.ok, v.stray = 0, 0, 0
}

// check consumes one framed record and returns the event's index within the
// rep and whether it verified; the index is -1 for a stray.
func (v *verifier) check(rec []byte) (int, bool) {
	if len(rec) < adapt.RecordHeaderBytes {
		v.stray++
		return -1, false
	}
	id := binary.BigEndian.Uint32(rec)
	idx := int(id - v.base) // wraps to a huge value for ids below base
	if id < v.base || idx >= len(v.seen) || v.seen[idx] {
		v.stray++
		return -1, false
	}
	v.seen[idx] = true
	v.received++
	want := v.oracle[int(id)%len(v.oracle)]
	if !bytes.Equal(rec[4:], want[4:]) {
		return idx, false
	}
	v.ok++
	return idx, true
}

// Rep is one timed repetition of a phase.
type Rep struct {
	Events    int           // events sent
	OK        int           // records that arrived and matched the oracle
	Elapsed   time.Duration // first byte sent (or first due time) to last record received
	DaemonCPU time.Duration // daemon user+sys CPU over the rep
	GenCPU    time.Duration // this process's CPU over the rep
	// Paced reps only: latency percentiles from each event's due time to
	// its verified record, and how late the generator sent.
	P50, P99 time.Duration
	LateP99  time.Duration
}

// Failed is every event of the rep that did not come back verified.
func (r Rep) Failed() int { return r.Events - r.OK }

// recordTimeout bounds how long a rep waits for a missing record before the
// rest of the rep is declared failed.
const recordTimeout = 15 * time.Second

// writeTarget is how many bytes one vectored write gathers: enough to keep
// the syscall rate far below the event rate, small enough that a CTA burst
// stays inside the default loopback socket buffers.
const writeTarget = 128 << 10

// Conn is the generator's single connection to a daemon: one sender
// goroutine and one receiver per rep, event ids unique across the
// connection's life.
type Conn struct {
	nc     *net.TCPConn
	sc     *adapt.RecordScanner
	in     *Inputs
	d      *Daemon
	nextID uint32
	batch  int // events per vectored write
	v      verifier
	lat    []int64 // ns, indexed by event index within the rep
	late   []int64
}

// Dial connects to the daemon.
func Dial(d *Daemon, in *Inputs) (*Conn, error) {
	nc, err := net.DialTimeout("tcp", d.Addr, 5*time.Second)
	if err != nil {
		return nil, fmt.Errorf("dial daemon: %w", err)
	}
	tc := nc.(*net.TCPConn)
	// At least one event a write, at most 64, and never one template twice:
	// ids are patched in place.
	batch := min(max(writeTarget/len(in.Events[0].Stream), 1), 64, len(in.Events))
	return &Conn{
		nc: tc, in: in, d: d, batch: batch,
		sc: adapt.NewRecordScanner(tc, adapt.NewDeadlineRearmer(tc, recordTimeout)),
		v:  verifier{oracle: in.Oracle},
	}, nil
}

// Close half-closes the ingress so the daemon drains, reads the stream to
// its end, and closes the socket. Any record still arriving is a stray.
func (c *Conn) Close() error {
	if err := c.nc.CloseWrite(); err != nil {
		c.nc.Close()
		return fmt.Errorf("half-close: %w", err)
	}
	for {
		if _, err := c.sc.Next(); err != nil {
			cerr := c.nc.Close()
			if err != io.EOF {
				return fmt.Errorf("drain: %w", err)
			}
			if cerr != nil {
				return fmt.Errorf("close: %w", cerr)
			}
			return nil
		}
	}
}

// send writes events [from, to) of the rep (ids base+from ...) in one
// vectored write, stamping each template's id just before it goes out. The
// write returns once the kernel has copied the bytes, so a template is free
// to be re-stamped by the next call.
func (c *Conn) send(bufs net.Buffers, base uint32, from, to int) (net.Buffers, error) {
	bufs = bufs[:0]
	for i := from; i < to; i++ {
		id := base + uint32(i)
		ev := &c.in.Events[int(id)%len(c.in.Events)]
		ev.SetID(id)
		bufs = append(bufs, ev.Stream)
	}
	// WriteTo consumes the slice header it is called on; keep ours.
	w := bufs
	if _, err := w.WriteTo(c.nc); err != nil {
		return bufs, fmt.Errorf("write events %d..%d: %w", from, to-1, err)
	}
	return bufs, nil
}

// sleepFine sleeps for d with the kernel's high-resolution timer. The Go
// runtime's own timers wake a parked thread through epoll, whose timeout is
// rounded up to a millisecond — fifteen events late at 15k events/s.
func sleepFine(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	_ = syscall.Nanosleep(&ts, nil) // an early wake-up only sends what is due
}

// fineTimerSlack lowers the calling thread's timer slack from the default
// 50 us to 1 us, so the sleep above ends when asked.
func fineTimerSlack() {
	const prSetTimerslack = 29
	_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerslack, 1000, 0) // best effort
}

// selfCPU is this process's cumulative on-CPU time (all threads).
func selfCPU() time.Duration {
	ns, err := procCPUNs("self")
	if err != nil {
		return 0 // gen.cpu_fraction reads 0; the measurement itself is unaffected
	}
	return time.Duration(ns)
}

// run is the shared body of a rep: start the sender, receive and verify
// until every event of the rep is accounted for, and bracket it with the CPU
// clocks. due is nil for a saturation rep.
func (c *Conn) run(n int, due func(i int) time.Duration) (Rep, error) {
	base := c.nextID
	c.nextID += uint32(n)
	c.v.reset(base, n)
	if cap(c.lat) < n {
		c.lat = make([]int64, n)
		c.late = make([]int64, n)
	}
	lat, late := c.lat[:0], c.late[:n]

	cpu0, err := c.d.CPUNs()
	if err != nil {
		return Rep{}, err
	}
	gen0 := selfCPU()
	// The scanner re-arms its read deadline only every 64th record; one left
	// over from a rep long ago (the daemon sat parked) must not fail this one.
	if err := c.nc.SetReadDeadline(time.Now().Add(recordTimeout)); err != nil {
		return Rep{}, fmt.Errorf("arm read deadline: %w", err)
	}
	t0 := time.Now()
	sendErr := make(chan error, 1)
	go func() {
		if due != nil {
			// sleepFine blocks the thread in the kernel; give it one of its own.
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			fineTimerSlack()
		}
		bufs := make(net.Buffers, 0, c.batch)
		var err error
		for i := 0; i < n && err == nil; {
			j := i + c.batch
			if j > n {
				j = n
			}
			if due != nil {
				// Open loop: sleep (never spin) to the next due time, then
				// send everything that has fallen due, up to one write.
				now := time.Since(t0)
				if wait := due(i) - now; wait > 0 {
					sleepFine(wait)
					now = time.Since(t0)
				}
				j = i + 1
				for j < n && j-i < c.batch && due(j) <= now {
					j++
				}
				for k := i; k < j; k++ {
					late[k] = int64(now - due(k))
				}
			}
			bufs, err = c.send(bufs, base, i, j)
			i = j
		}
		if err != nil {
			c.nc.Close() // unblock the receiver
		}
		sendErr <- err
	}()

	var recvErr error
	end := t0
	for c.v.received < n {
		rec, err := c.sc.Next()
		if err != nil {
			recvErr = fmt.Errorf("record stream: %w", err)
			c.nc.Close() // unblock the sender
			break
		}
		idx, ok := c.v.check(rec)
		if idx < 0 {
			continue
		}
		end = time.Now()
		if ok && due != nil {
			lat = append(lat, int64(end.Sub(t0)-due(idx)))
		}
	}
	serr := <-sendErr
	cpu1, err := c.d.CPUNs()
	if err != nil {
		return Rep{}, err
	}
	rep := Rep{
		Events: n, OK: c.v.ok, Elapsed: end.Sub(t0),
		DaemonCPU: time.Duration(cpu1 - cpu0), GenCPU: selfCPU() - gen0,
	}
	if due != nil {
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		sort.Slice(late, func(i, j int) bool { return late[i] < late[j] })
		rep.P50 = time.Duration(Percentile(lat, 0.50))
		rep.P99 = time.Duration(Percentile(lat, 0.99))
		rep.LateP99 = time.Duration(Percentile(late, 0.99))
	}
	return rep, errors.Join(serr, recvErr)
}

// RunSat sends n events back to back; TCP backpressure against the daemon's
// blocking queue closes the loop.
func (c *Conn) RunSat(n int) (Rep, error) { return c.run(n, nil) }

// RunPaced sends n events on a uniform schedule of rate events/s whether or
// not the daemon keeps up, and times each from when it was due.
func (c *Conn) RunPaced(n int, rate float64) (Rep, error) {
	interval := float64(time.Second) / rate
	return c.run(n, func(i int) time.Duration { return time.Duration(float64(i) * interval) })
}
