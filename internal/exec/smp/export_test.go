package smp

import "repro/internal/exec/pool"

// RunnersStarted reports how many task runners the process has started so
// far (pool.Started).
func RunnersStarted() int64 { return pool.Started() }
