package harness

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Paths locates the module under test and the benchmark's scratch directory.
// The benchmark reads and writes nothing outside Out.
type Paths struct {
	Root string // hepccl module root (holds cmd/hepccld)
	Out  string // bench/out: daemon binary, logs, WAL segments, trace files
}

// FindPaths walks up from the working directory to bench/go.mod's parent
// module. It fails in a directory that does not hold the program — the
// benchmark cannot measure what is not there.
func FindPaths() (Paths, error) {
	dir, err := os.Getwd()
	if err != nil {
		return Paths{}, fmt.Errorf("getwd: %w", err)
	}
	for d := dir; ; d = filepath.Dir(d) {
		if _, err := os.Stat(filepath.Join(d, "cmd", "hepccld", "main.go")); err == nil {
			p := Paths{Root: d, Out: filepath.Join(d, "bench", "out")}
			if err := os.MkdirAll(p.Out, 0o755); err != nil {
				return Paths{}, fmt.Errorf("create %s: %w", p.Out, err)
			}
			return p, nil
		}
		if d == filepath.Dir(d) {
			return Paths{}, fmt.Errorf("no cmd/hepccld above %s: run from a checkout of the hepccl module", dir)
		}
	}
}

// BuildDaemon compiles cmd/hepccld from source into Out and returns the
// binary's path and the build time (reported as build_s, outside setup_s).
func BuildDaemon(ctx context.Context, p Paths) (string, time.Duration, error) {
	bin := filepath.Join(p.Out, "hepccld")
	start := time.Now()
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/hepccld")
	cmd.Dir = p.Root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("go build ./cmd/hepccld: %w\n%s", err, out)
	}
	return bin, time.Since(start), nil
}

// Daemon is one running hepccld subprocess.
type Daemon struct {
	cmd       *exec.Cmd
	done      chan struct{} // closed once the process has been reaped
	log       *os.File
	Addr      string // ingest address
	statsURL  string
	walDir    string
	lastStats time.Time // last scrape that could have advanced the EWMA window
}

// freePort reserves a loopback port by binding and releasing it.
func freePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("reserve port: %w", err)
	}
	addr := ln.Addr().String()
	if err := ln.Close(); err != nil {
		return "", fmt.Errorf("release port: %w", err)
	}
	return addr, nil
}

// StartDaemon launches hepccld for w with GOMAXPROCS=1, pinned to
// host.DaemonCPU when the host could be pinned. The child inherits the
// affinity of the thread that forks it, so the forking thread is moved onto
// the daemon CPU for the duration of the fork: every thread the child's
// runtime ever creates starts there.
func StartDaemon(ctx context.Context, bin string, p Paths, w Workload, host *Host) (*Daemon, error) {
	addr, err := freePort()
	if err != nil {
		return nil, err
	}
	statsAddr, err := freePort()
	if err != nil {
		return nil, err
	}
	args := []string{
		"-listen", addr, "-stats", statsAddr,
		"-config", w.Config, "-samples", strconv.Itoa(samplesPerChannel),
		"-workers", "1", "-policy", "block", "-queue", strconv.Itoa(w.Queue),
		"-calibration", strconv.Itoa(w.Calibration), "-seed", strconv.Itoa(calibrationSeed),
		"-log-interval", "0",
	}
	d := &Daemon{Addr: addr, statsURL: "http://" + statsAddr + "/stats"}
	if w.WAL {
		d.walDir, err = os.MkdirTemp(p.Out, "wal-"+w.Name+"-")
		if err != nil {
			return nil, fmt.Errorf("wal dir: %w", err)
		}
		args = append(args, "-record", d.walDir, "-record-segment-mb", "64", "-record-retain", "2")
	}
	d.log, err = os.Create(filepath.Join(p.Out, "hepccld-"+w.Name+".log"))
	if err != nil {
		return nil, fmt.Errorf("daemon log: %w", err)
	}
	d.cmd = exec.Command(bin, args...)
	d.cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	d.cmd.Stdout, d.cmd.Stderr = d.log, d.log

	if host.Pinned {
		runtime.LockOSThread()
		old, gerr := getAffinity(0)
		if gerr == nil {
			gerr = setAffinity(0, oneCPU(host.DaemonCPU))
		}
		err = d.cmd.Start()
		if gerr == nil {
			gerr = setAffinity(0, old)
		}
		runtime.UnlockOSThread()
		if err == nil && gerr != nil {
			host.Pinned, host.PinNote = false, "daemon: "+gerr.Error()
		}
	} else {
		err = d.cmd.Start()
	}
	if err != nil {
		d.log.Close()
		d.removeWAL()
		return nil, fmt.Errorf("start hepccld: %w", err)
	}
	d.done = make(chan struct{})
	go func() {
		_ = d.cmd.Wait() // exit status of a terminated daemon carries nothing
		close(d.done)
	}()
	if host.Pinned {
		allowed, err := procStatusField(d.cmd.Process.Pid, "Cpus_allowed_list")
		if err != nil || allowed != strconv.Itoa(host.DaemonCPU) {
			host.Pinned, host.PinNote = false, fmt.Sprintf("daemon runs on CPUs %q, wanted %d", allowed, host.DaemonCPU)
		}
	}
	if err := d.waitReady(ctx); err != nil {
		d.Stop()
		return nil, err
	}
	// The first scrape only initialises the gauge's window; spend it now so
	// every later scrape is an evaluating one. The stats listener comes up
	// just after the ingest one, so the first attempts may be refused.
	for deadline := time.Now().Add(5 * time.Second); ; {
		_, err := d.Stats(ctx)
		if err == nil {
			return d, nil
		}
		if d.exited() || ctx.Err() != nil || time.Now().After(deadline) {
			d.Stop()
			return nil, err
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// waitReady polls the ingest port until the daemon (which calibrates before
// it listens) accepts a connection.
func (d *Daemon) waitReady(ctx context.Context) error {
	deadline := time.Now().Add(60 * time.Second)
	for {
		nc, err := net.DialTimeout("tcp", d.Addr, time.Second)
		if err == nil {
			nc.Close()
			return nil
		}
		if d.exited() {
			return fmt.Errorf("hepccld exited before listening; see %s", d.log.Name())
		}
		if ctx.Err() != nil || time.Now().After(deadline) {
			return fmt.Errorf("hepccld never listened on %s: %w", d.Addr, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (d *Daemon) exited() bool {
	select {
	case <-d.done:
		return true
	default:
		return false
	}
}

// Stop terminates the daemon, waits until it has ended, and removes its WAL
// segments. It is safe to call twice.
func (d *Daemon) Stop() {
	if d.cmd == nil {
		return
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // already gone is fine: done closes
	select {
	case <-d.done:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
	}
	d.cmd = nil
	d.log.Close()
	d.removeWAL()
}

func (d *Daemon) removeWAL() {
	if d.walDir != "" {
		_ = os.RemoveAll(d.walDir) // scratch under bench/out; a leftover is harmless
	}
}

// CPUNs is the daemon's cumulative user+sys CPU time in nanoseconds.
func (d *Daemon) CPUNs() (int64, error) { return procCPUNs(strconv.Itoa(d.cmd.Process.Pid)) }

// procCPUNs sums a process's on-CPU time over its threads' schedstat (ns
// resolution; /proc/<pid>/stat only has 10 ms ticks, 2% of a half-second
// rep). It falls back to stat when the kernel has no schedstat. pid may be
// "self".
func procCPUNs(pid string) (int64, error) {
	ents, err := os.ReadDir("/proc/" + pid + "/task")
	if err != nil {
		return 0, fmt.Errorf("list threads of %s: %w", pid, err)
	}
	var total int64
	for _, e := range ents {
		b, err := os.ReadFile("/proc/" + pid + "/task/" + e.Name() + "/schedstat")
		if err != nil {
			return cpuNsFromStat(pid)
		}
		f := strings.Fields(string(b))
		if len(f) < 1 {
			return cpuNsFromStat(pid)
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return cpuNsFromStat(pid)
		}
		total += ns
	}
	return total, nil
}

func cpuNsFromStat(pid string) (int64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return 0, fmt.Errorf("read stat of %s: %w", pid, err)
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th of the whole line, in USER_HZ (100) ticks.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("stat of %s: short line", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("stat of %s: bad cpu fields", pid)
	}
	return (ut + st) * int64(10*time.Millisecond), nil
}

// RSSMB is the daemon's peak resident set (VmHWM) in MiB.
func (d *Daemon) RSSMB() (float64, error) {
	v, err := procStatusField(d.cmd.Process.Pid, "VmHWM")
	if err != nil {
		return 0, err
	}
	kb, err := strconv.ParseFloat(strings.TrimSuffix(v, " kB"), 64)
	if err != nil {
		return 0, fmt.Errorf("VmHWM %q: %w", v, err)
	}
	return kb / 1024, nil
}

func procStatusField(pid int, key string) (string, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return "", fmt.Errorf("proc status: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, key+":"); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("proc status: no %s", key)
}

// ServerStats is the slice of hepccld's /stats document the benchmark reads.
type ServerStats struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	QueueHWM      int64   `json:"queue_hwm"`
	NsPerEvent    float64 `json:"ns_per_event"` // EWMA gauge, see EWMAWindow
	EventsIn      uint64  `json:"events_in"`
	EventsOut     uint64  `json:"events_out"`
	Dropped       uint64  `json:"dropped"`
	BadEvents     uint64  `json:"bad_events"`
	BadPackets    uint64  `json:"bad_packets"`
	BytesOut      uint64  `json:"bytes_out"`
	Latency       struct {
		P50Us uint64 `json:"p50_us"`
		P99Us uint64 `json:"p99_us"`
	} `json:"latency"`
	WAL *struct {
		Records  uint64 `json:"records"`
		Segments uint64 `json:"segments"` // opened since start
	} `json:"wal"`
}

// statsMinWindow is hepccld's rateMinWindow plus slack: a scrape sooner
// than this after the previous one reads the cached gauge and does not move
// the EWMA baseline, which would corrupt the window inversion.
const statsMinWindow = 300 * time.Millisecond

// statsTau is hepccld's rateTau.
const statsTau = 5.0

// Stats scrapes /stats, first waiting out the gauge's minimum window so
// every scrape is an evaluating one. Call it only outside timed reps: the
// HTTP handler runs on the daemon's one CPU.
func (d *Daemon) Stats(ctx context.Context) (ServerStats, error) {
	if wait := statsMinWindow - time.Since(d.lastStats); wait > 0 {
		time.Sleep(wait)
	}
	var st ServerStats
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.statsURL, nil)
	if err != nil {
		return st, fmt.Errorf("stats request: %w", err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return st, fmt.Errorf("scrape /stats: %w", err)
	}
	defer resp.Body.Close()
	d.lastStats = time.Now()
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, fmt.Errorf("decode /stats: %w", err)
	}
	return st, nil
}

// ServeNsPerEvent recovers the mean ServeNs per served event over the window
// between two evaluating scrapes.
func ServeNsPerEvent(before, after ServerStats) float64 {
	return EWMAWindow(before.NsPerEvent, after.NsPerEvent,
		after.UptimeSeconds-before.UptimeSeconds, statsTau)
}
