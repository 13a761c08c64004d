package live

import "repro/internal/access"

// fleetCharge/fleetUncharge mirror every pendingTasks transition into the
// shared fleet ledger, when one is configured. Called with x.mu held (the
// same lock that guards pendingTasks), so the ledger and the local count
// move together.
func (x *Exec) fleetCharge(m int) {
	if fl := x.opts.Fleet; fl != nil {
		fl.Charge(m)
	}
}

func (x *Exec) fleetUncharge(m int) {
	if fl := x.opts.Fleet; fl != nil {
		fl.Uncharge(m)
	}
}

// loadOf is the placement load metric for one worker: the fleet-wide
// outstanding count when a FleetView is configured, this session's own
// otherwise. Called with x.mu held.
func (x *Exec) loadOf(w *workerLink) int {
	if fl := x.opts.Fleet; fl != nil {
		return fl.Load(w.m)
	}
	return w.pendingTasks
}

// ObjectIDs snapshots every object id this coordinator tracks anywhere:
// the directory and the machine-0 value cache. The cross-tenant
// isolation tests assert that two sessions' snapshots never intersect.
func (x *Exec) ObjectIDs() []access.ObjectID {
	x.coh.Lock()
	defer x.coh.Unlock()
	seen := map[access.ObjectID]struct{}{}
	for _, d := range x.dir.Entries() {
		seen[d.Object] = struct{}{}
	}
	for id := range x.vals {
		seen[id] = struct{}{}
	}
	ids := make([]access.ObjectID, 0, len(seen))
	for id := range seen {
		ids = append(ids, id)
	}
	return ids
}
