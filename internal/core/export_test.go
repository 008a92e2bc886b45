package core

// WalkPhases exposes walkPhases to the external tests, which need rcm/exp
// (an importer of this package) for the paper's q grid.
var WalkPhases = walkPhases
