// Package testutil holds dependency-free helpers shared by the
// serving-stack test packages. Its only current export is the
// goroutine-leak gate the server, store, and shard TestMains run
// through: a test that leaves a goroutine behind (an engine build
// nobody waits for, a store sync loop surviving Close) fails the whole
// package instead of poisoning whichever test happens to run next.
package testutil

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"
)

// leakRetryWindow bounds how long VerifyNoLeaks waits for goroutines
// that are already winding down — a Close that was issued but whose
// goroutine has not been rescheduled yet is shutdown latency, not a
// leak.
const leakRetryWindow = 5 * time.Second

// VerifyNoLeaks runs the package's tests via run (m.Run from
// TestMain), then fails the run if goroutines other than the known
// test-infrastructure set are still alive once the retry window
// drains. Usage:
//
//	func TestMain(m *testing.M) {
//		os.Exit(testutil.VerifyNoLeaks(m.Run))
//	}
func VerifyNoLeaks(run func() int) int {
	code := run()
	if code != 0 {
		// The tests already failed; a leak report would only bury the
		// real failure.
		return code
	}
	deadline := time.Now().Add(leakRetryWindow)
	var leaked []string
	for {
		leaked = leakedGoroutines()
		if len(leaked) == 0 {
			return code
		}
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	fmt.Fprintf(os.Stderr, "testutil: %d goroutine(s) leaked past the test run:\n\n%s\n",
		len(leaked), strings.Join(leaked, "\n\n"))
	return 1
}

// leakedGoroutines snapshots every live goroutine and returns the
// stacks of those that are neither this goroutine nor on the benign
// list.
func leakedGoroutines() []string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	var leaked []string
	for i, g := range strings.Split(string(buf), "\n\n") {
		// The first stack is the goroutine running this function.
		if i == 0 || benign(g) {
			continue
		}
		leaked = append(leaked, g)
	}
	return leaked
}

// benignFrames mark goroutines that legitimately outlive a test run:
// the testing package's own machinery, the os/signal watcher, and
// net/http keep-alive connections parked in a client's idle pool
// (owned by the shared transport, reaped on its own timer — not by
// any test).
var benignFrames = []string{
	"testing.(*M).",
	"testing.(*T).",
	"testing.runTests",
	"testing.runFuzzing",
	"os/signal.signal_recv",
	"os/signal.loop",
	"net/http.(*persistConn).readLoop",
	"net/http.(*persistConn).writeLoop",
}

func benign(g string) bool {
	for _, frame := range benignFrames {
		if strings.Contains(g, frame) {
			return true
		}
	}
	return false
}
