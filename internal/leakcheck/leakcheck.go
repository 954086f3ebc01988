// Package leakcheck finds goroutines that tests leave running: those whose
// stacks hold a frame of this module (or were started by one), still there
// after a bounded wait for them to exit. Main checks a whole test binary
// from TestMain; Check checks one test against the goroutines present when
// it called Check.
package leakcheck

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

const (
	module = "github.com/wustl-adapt/hepccl/"
	// settle bounds how long a goroutine may take to exit once whatever
	// ended it has returned.
	settle = 10 * time.Second
)

// Main runs the package's tests and, if they pass, fails the binary when a
// module goroutine outlives them. Call it as a package's TestMain.
func Main(m *testing.M) {
	code := m.Run()
	if code == 0 {
		if left := leaked(nil); len(left) > 0 {
			fmt.Fprintf(os.Stderr, "leakcheck: %d goroutines outlived the tests:\n\n%s\n",
				len(left), strings.Join(left, "\n\n"))
			code = 1
		}
	}
	os.Exit(code)
}

// Check fails t if a module goroutine started after this call is still
// running when t's cleanups reach it. Cleanups run last-registered first, so
// a goroutine that only a cleanup registered before Check ends counts as
// leaked.
func Check(t testing.TB) {
	t.Helper()
	before := running()
	t.Cleanup(func() {
		if left := leaked(before); len(left) > 0 {
			t.Errorf("%d goroutines outlived the test:\n\n%s", len(left), strings.Join(left, "\n\n"))
		}
	})
}

// leaked waits up to settle for the module goroutines absent from before to
// exit and returns the stacks of those that did not.
func leaked(before map[string]string) []string {
	deadline := time.Now().Add(settle)
	for {
		var left []string
		for id, stack := range running() {
			if _, ok := before[id]; !ok {
				left = append(left, stack)
			}
		}
		if len(left) == 0 || time.Now().After(deadline) {
			return left
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// running returns the stacks of the module goroutines other than the
// caller's, keyed by their "goroutine N" header.
func running() map[string]string {
	buf := make([]byte, 1<<16)
	n := runtime.Stack(buf, true)
	for n == len(buf) {
		buf = make([]byte, 2*len(buf))
		n = runtime.Stack(buf, true)
	}
	out := make(map[string]string)
	// The caller's goroutine is listed first.
	for _, g := range strings.Split(string(buf[:n]), "\n\n")[1:] {
		if strings.Contains(g, module) {
			out[g[:strings.IndexByte(g, '[')]] = g
		}
	}
	return out
}
