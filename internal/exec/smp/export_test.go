package smp

// RunnersStarted reports how many task runners the package has started so
// far (goStarts).
func RunnersStarted() int64 { return goStarts.Load() }
