//go:build fuzz

package node

import "testing"

// FuzzRequestTable drives the request table with operation sequences from
// fuzz bytes, two bytes an operation, and a dedupe window of 1 to 16 ids,
// against the same map oracle as TestRequestTableAgainstMap. Like FuzzParseMessage it is build-tagged;
// CI smokes it with:
//
//	go test -tags fuzz -fuzz FuzzRequestTable -fuzztime 10s -run '^$' ./node
func FuzzRequestTable(f *testing.F) {
	f.Add(uint8(4), []byte{})
	f.Add(uint8(4), []byte{1, 0, 2, 1, 3, 2, 4, 0, 5, 1, 6, 2})                                                     // each role set and cleared
	f.Add(uint8(4), []byte{3, 0, 3, 1, 3, 2, 3, 3, 3, 4, 3, 5, 3, 6, 3, 7})                                         // the window overflows
	f.Add(uint8(8), []byte{3, 2, 3, 3, 3, 4, 3, 5, 3, 6, 3, 7, 3, 8, 3, 9, 3, 10, 3, 11, 3, 12, 3, 13, 3, 2, 3, 3}) // the window grows, then a wrapped index run shifts back
	f.Add(uint8(4), []byte{1, 2, 1, 3, 1, 4, 1, 5, 4, 2, 4, 3, 0, 4, 0, 5})                                         // a wrapped run shifts back
	f.Add(uint8(4), []byte{2, 0, 2, 1, 1, 7, 3, 8, 8, 0, 7, 9})                                                     // crash with origins waiting
	f.Fuzz(func(t *testing.T, window uint8, ops []byte) {
		runTableOps(t, 1+int(window)%16, ops)
	})
}
