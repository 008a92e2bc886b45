// Package bad seeds every violation class detsource must catch. It is
// type-checked under the import path rcm/eventsim, a
// determinism-critical package.
package bad

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"time"
)

func clock() int64 {
	return time.Now().UnixNano() // want `time\.Now in a determinism-critical package \(wall-clock read\)`
}

func elapsed(t0 time.Time) time.Duration {
	return time.Since(t0) // want `time\.Since in a determinism-critical package`
}

func timer(f func()) {
	time.AfterFunc(time.Second, f) // want `time\.AfterFunc in a determinism-critical package \(wall-clock timer\)`
}

func draw() int {
	return rand.Intn(10) // want `math/rand\.Intn uses the process-global, unseeded source`
}

func shuffle(xs []int) {
	rand.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] }) // want `math/rand\.Shuffle uses the process-global`
}

// Passing the global-source function as a value is just as
// nondeterministic as calling it.
var intn func(int) int = rand.Intn // want `math/rand\.Intn uses the process-global`

func env() string {
	return os.Getenv("RCM_DEBUG") // want `os\.Getenv in a determinism-critical package \(environment-dependent control flow\)`
}

// A worker count read off the host becomes part of whatever it splits.
func workers() int {
	return min(runtime.GOMAXPROCS(0), runtime.NumCPU()) // want `runtime\.GOMAXPROCS in a determinism-critical package \(host-dependent control flow\)` `runtime\.NumCPU in a determinism-critical package`
}

func keysUnsorted(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k) // want `append to out inside map iteration without a later sort`
	}
	return out
}

func sendAll(m map[string]int, ch chan string) {
	for k := range m {
		ch <- k // want `channel send inside map iteration`
	}
}

func writeRows(m map[string]int, w io.Writer) {
	for k, v := range m {
		fmt.Fprintf(w, "%s,%d\n", k, v) // want `fmt\.Fprintf inside map iteration writes rows in randomized map order`
	}
}
