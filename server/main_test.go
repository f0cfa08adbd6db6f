package server

import (
	"os"
	"testing"

	"pnn/internal/testutil"
)

// TestMain gates the package on goroutine hygiene: a test that leaves
// a cache janitor or engine build running after teardown fails the run
// instead of poisoning its neighbors.
func TestMain(m *testing.M) {
	os.Exit(testutil.VerifyNoLeaks(m.Run))
}
