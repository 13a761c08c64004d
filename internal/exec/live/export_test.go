package live

// GoroutinesStarted reports how many goroutines the package has started on
// tasks' behalf so far (goStarts).
func GoroutinesStarted() int64 { return goStarts.Load() }
