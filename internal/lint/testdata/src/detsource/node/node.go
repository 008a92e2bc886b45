// Package node is type-checked under the import path rcm/node: the live
// node reads time only through its clock, so a direct wall-clock read or
// runtime timer is a finding, while the marked wall-clock implementation
// and duration arithmetic pass.
package node

import "time"

type pending struct{ deadline time.Duration }

func arm(p *pending, rto time.Duration) *time.Timer {
	p.deadline = time.Since(time.Time{}) + rto // want `time\.Since in a determinism-critical package \(wall-clock read\)`
	return time.AfterFunc(rto, func() {})      // want `time\.AfterFunc in a determinism-critical package \(wall-clock timer\)`
}

func guard(d time.Duration) *time.Timer {
	return time.NewTimer(d) // want `time\.NewTimer in a determinism-critical package \(wall-clock timer\)`
}

func stamp() time.Time {
	return time.Now() // want `time\.Now in a determinism-critical package \(wall-clock read\)`
}

// wall is the sanctioned implementation: its reads carry the marker.
type wall struct{}

func (wall) Now() time.Time {
	return time.Now() //lint:allow detsource the one wall clock, held to eventsim by a wall-clock conformance cell
}

// remaining is pure duration arithmetic on clock readings: no finding.
func remaining(deadline, now time.Duration) time.Duration {
	return max(deadline-now, 0)
}
