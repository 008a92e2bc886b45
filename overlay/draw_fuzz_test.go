//go:build fuzz

package overlay

import "testing"

// FuzzDrawKernels holds both draw kernels to their references from one
// fuzzed input: FillRandomAlive to the per-bit Bernoulli(1-q) loop over n
// bits (n folded into [1, 4096], q as the fuzzer chooses, outside [0, 1]
// and NaN included), and Uint64n to the divide-every-call draw from bound
// (0 is skipped), each in outputs and final generator state.
// Build-tagged like the other fuzz targets; CI smokes it through
// `make fuzz-smoke`.
func FuzzDrawKernels(f *testing.F) {
	f.Add(uint64(1), uint16(1000), 0.3, uint64(10))
	f.Add(uint64(2), uint16(64), 1e-12, uint64(1<<63+1))
	f.Add(uint64(3), uint16(65), 1-1e-12, uint64(3<<62))
	f.Add(uint64(4), uint16(1), 0.5, uint64(1<<64-1))
	f.Add(uint64(5), uint16(4095), 0.0, uint64(1<<32))
	f.Fuzz(func(t *testing.T, seed uint64, n16 uint16, q float64, bound uint64) {
		checkFillMatchesBernoulli(t, 1+int(n16)%4096, q, seed)
		if bound != 0 {
			checkUint64nMatches(t, bound, seed, 64)
		}
	})
}
