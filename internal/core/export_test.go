package core

// CheckInvariants exposes the internal consistency check (invariant_test.go)
// to the external tests that drive the engine through a real executor.
var CheckInvariants = checkInvariants
