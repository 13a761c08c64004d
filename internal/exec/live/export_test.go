package live

import "repro/internal/exec/pool"

// GoroutinesStarted reports how many goroutines the process has started on
// tasks' behalf so far: the runners of the workers' pools (pool.Started).
func GoroutinesStarted() int64 { return pool.Started() }
