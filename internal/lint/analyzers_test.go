package lint

import (
	"strings"
	"testing"
)

// TestDetSourceBad: every nondeterminism class — wall clocks, timers,
// global math/rand (called and referenced), env reads, and the three
// ordered-sink map-iteration shapes — is caught in a
// determinism-critical package.
func TestDetSourceBad(t *testing.T) {
	runGolden(t, "detsource/bad", "rcm/eventsim", DetSource)
}

// TestDetSourceClean: the deterministic counterparts — duration
// arithmetic, seeded generators, collect-then-sort, order-insensitive
// folds, loop-local accumulators — produce no findings.
func TestDetSourceClean(t *testing.T) {
	runGolden(t, "detsource/clean", "rcm/eventsim", DetSource)
}

// TestDetSourceUncritical: the same wall-clock and global-rand code is
// fine outside the determinism-critical allowlist.
func TestDetSourceUncritical(t *testing.T) {
	runGolden(t, "detsource/uncritical", "rcm/cmd/rcmd", DetSource)
}

// TestDetSourceObsHist: rcm/obs is determinism-critical — a histogram
// that timestamps, times, or samples via the global source is caught.
func TestDetSourceObsHist(t *testing.T) {
	runGolden(t, "detsource/obshist", "rcm/obs", DetSource)
}

// TestDetSourceReplica: rcm/replica is determinism-critical — placement
// is a pure function of (space, root, k), so clock reads and global
// rand draws are caught while seeded draws and pure arithmetic pass.
func TestDetSourceReplica(t *testing.T) {
	runGolden(t, "detsource/replica", "rcm/replica", DetSource)
}

// TestDetSourceNode: rcm/node is determinism-critical — a replay on a
// virtual network must be a function of its schedule, so wall-clock
// reads and runtime timers are caught outside the marked wall clock.
func TestDetSourceNode(t *testing.T) {
	runGolden(t, "detsource/node", "rcm/node", DetSource)
}

// TestBoundaryReplicaLeaf: the placement library may import overlay and
// stdlib only; an executor import is caught at the import site.
func TestBoundaryReplicaLeaf(t *testing.T) {
	runGolden(t, "boundary/replicaleaf", "rcm/replica", Boundary)
}

// TestDetSourceFault: rcm/fault is determinism-critical — a bound
// injector must decide identically in the simulator and on the live
// wire, so clock reads and global rand draws are caught while seeded
// draws and pure hashing pass.
func TestDetSourceFault(t *testing.T) {
	runGolden(t, "detsource/fault", "rcm/fault", DetSource)
}

// TestBoundaryFaultLeaf: the failure-plan library may import overlay,
// spec and stdlib only; an executor import is caught at the import
// site.
func TestBoundaryFaultLeaf(t *testing.T) {
	runGolden(t, "boundary/faultleaf", "rcm/fault", Boundary)
}

// TestLoopOwnerBad: exported-entry-point reads, timer-callback and
// goroutine writes, and laundering via a method call are all caught.
func TestLoopOwnerBad(t *testing.T) {
	runGolden(t, "loopowner/bad", "rcm/node", LoopOwner)
}

// TestLoopOwnerClean: the dispatch root draining an inbox of packets and
// posted functions, closures handed to the rcm:loop-post helper,
// loop-reachable handlers, the go-launch of the root, and unannotated
// types are all silent.
func TestLoopOwnerClean(t *testing.T) {
	runGolden(t, "loopowner/clean", "rcm/node", LoopOwner)
}

// TestRegistryDisciplineBad: registration from ordinary runtime code is
// caught, including inside returned closures.
func TestRegistryDisciplineBad(t *testing.T) {
	runGolden(t, "registrydiscipline/bad", "rcm/widgets", RegistryDiscipline)
}

// TestRegistryDisciplineClean: init funcs, package-level var
// initializers and Register* wrappers are sanctioned.
func TestRegistryDisciplineClean(t *testing.T) {
	runGolden(t, "registrydiscipline/clean", "rcm/widgets", RegistryDiscipline)
}

// TestBoundaryBad: a public-API layer importing rcm/internal is caught
// at the import site.
func TestBoundaryBad(t *testing.T) {
	runGolden(t, "boundary/bad", "rcm/node", Boundary)
}

// TestBoundaryInternalBack: internal layers importing the event engine
// (layer acyclicity) are caught.
func TestBoundaryInternalBack(t *testing.T) {
	runGolden(t, "boundary/internalback", "rcm/internal/percolation", Boundary)
}

// TestBoundaryClean: facade, overlay, spec and stdlib imports pass.
func TestBoundaryClean(t *testing.T) {
	runGolden(t, "boundary/clean", "rcm/node", Boundary)
}

// TestSuppression: justified //lint:allow markers silence exactly their
// analyzer on their line (and the line below); unjustified or
// unknown-analyzer markers suppress nothing and are findings
// themselves.
func TestSuppression(t *testing.T) {
	pkg := loadGolden(t, "suppress", "rcm/eventsim")
	diags, err := Run([]*Package{pkg}, All)
	if err != nil {
		t.Fatal(err)
	}

	type want struct {
		analyzer string
		substr   string
	}
	wants := []want{
		{"lint", `suppression of "detsource" gives no reason`},
		{"detsource", "time.Now"}, // the finding above the reasonless marker stands
		{"lint", `suppression names unknown analyzer "clockcheck"`},
		{"detsource", "time.Now"}, // the finding next to the unknown-analyzer marker stands
	}
	if len(diags) != len(wants) {
		t.Fatalf("got %d diagnostics, want %d:\n%s", len(diags), len(wants), diagSummaries(diags))
	}
	for _, w := range wants {
		found := false
		for _, d := range diags {
			if d.Analyzer == w.analyzer && strings.Contains(d.Message, w.substr) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no %s diagnostic containing %q in:\n%s", w.analyzer, w.substr, diagSummaries(diags))
		}
	}
}
