//go:build fuzz

package node

import "testing"

// FuzzRequestTable drives the request table with operation sequences from
// fuzz bytes, two bytes an operation, against the same map oracle as
// TestRequestTableAgainstMap. Like FuzzParseMessage it is build-tagged;
// CI smokes it with:
//
//	go test -tags fuzz -fuzz FuzzRequestTable -fuzztime 10s -run '^$' ./node
func FuzzRequestTable(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 2, 1, 3, 2, 4, 0, 5, 1, 6, 2})             // each role set and cleared
	f.Add([]byte{3, 0, 3, 1, 3, 2, 3, 3, 3, 4, 3, 5, 3, 6, 3, 7}) // the window overflows
	f.Add([]byte{1, 2, 1, 3, 1, 4, 1, 5, 4, 2, 4, 3, 0, 4, 0, 5}) // a wrapped run shifts back
	f.Add([]byte{2, 0, 2, 1, 1, 7, 3, 8, 8, 0, 7, 9})             // crash with origins waiting
	f.Fuzz(func(t *testing.T, ops []byte) {
		runTableOps(t, ops)
	})
}
