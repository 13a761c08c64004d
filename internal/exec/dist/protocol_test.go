package dist

import (
	"testing"
	"time"

	"repro/internal/access"
	"repro/internal/machine"
	"repro/internal/netmodel"
	"repro/internal/rt"
	"repro/internal/trace"
)

func TestWriteOnlyMigrationMovesNoData(t *testing.T) {
	// A wr-only task on a remote machine must transfer ownership with a
	// small control message, not the object's bytes.
	x := mustNew(t, Options{Platform: machine.IPSC860(2), Trace: true})
	const elems = 10000 // 80KB of float64s
	err := x.Run(func(tc rt.TC) {
		id, err := tc.Alloc(make([]float64, elems), "big")
		if err != nil {
			panic(err)
		}
		_ = tc.Create([]access.Decl{{Object: id, Mode: access.Write}},
			rt.TaskOpts{Label: "overwrite", Cost: 0.001, Pin: 2},
			func(tc rt.TC) {
				v, _ := tc.Access(id, access.Write)
				s := v.([]float64)
				for i := range s {
					s[i] = float64(i)
				}
			})
		// The main program reads it back: NOW the full data moves.
		v, err := tc.Access(id, access.Read)
		if err != nil {
			panic(err)
		}
		if v.([]float64)[5] != 5 {
			t.Error("write-only result lost")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// Messages: dispatch (128B) + ownership (32B) + the final read (big).
	var ownership, bigMoves int
	for _, ev := range x.Log().Filter(trace.MessageSent) {
		if ev.Label == "ownership" {
			ownership++
		}
		if ev.Bytes > 8*elems/2 {
			bigMoves++
		}
	}
	if ownership != 1 {
		t.Fatalf("expected 1 ownership transfer, got %d", ownership)
	}
	if bigMoves != 1 {
		t.Fatalf("expected exactly 1 full-data transfer (the read-back), got %d", bigMoves)
	}
}

func TestWriteOnlyViewIsZeroedOnRemoteMachine(t *testing.T) {
	// The write-only contract: previous contents are undefined after a
	// wr-only migration; this executor provides zeros.
	x := mustNew(t, Options{Platform: machine.IPSC860(2)})
	err := x.Run(func(tc rt.TC) {
		id, _ := tc.Alloc([]int64{7, 7, 7}, "o")
		_ = tc.Create([]access.Decl{{Object: id, Mode: access.Write}},
			rt.TaskOpts{Label: "w", Cost: 0.001, Pin: 2},
			func(tc rt.TC) {
				v, _ := tc.Access(id, access.Write)
				s := v.([]int64)
				if s[0] != 0 || s[1] != 0 || s[2] != 0 {
					t.Errorf("write-only view should be zeroed, got %v", s)
				}
				s[0] = 1
			})
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReadFanOutFormsDistributionTree(t *testing.T) {
	// Eight machines all read one hot object. With wave coordination the
	// replication completes in ~log2(8)=3 transfer times rather than 7.
	const elems = 50000 // 400KB: ~transfer-dominated
	plat := machine.Platform{
		Name:     "tree-test",
		Machines: make([]machine.Spec, 8),
		Net: netmodel.PointToPoint{
			Latency:   time.Millisecond,
			Bandwidth: 10e6,
		},
	}
	for i := range plat.Machines {
		plat.Machines[i] = machine.Spec{Name: "m", Speed: 1}
	}
	x := mustNew(t, Options{Platform: plat, Trace: true})
	err := x.Run(func(tc rt.TC) {
		id, _ := tc.Alloc(make([]float64, elems), "hot")
		for m := 1; m < 8; m++ {
			m := m
			_ = tc.Create([]access.Decl{{Object: id, Mode: access.Read}},
				rt.TaskOpts{Label: "read", Cost: 0.0001, Pin: m + 1},
				func(tc rt.TC) { _, _ = tc.Access(id, access.Read) })
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// One transfer ≈ 1ms + 400KB/10MBps = 41ms. Serial chain: 7×41 ≈ 287ms.
	// Tree: ~3 waves ≈ 123ms (+ overheads).
	perXfer := time.Millisecond + time.Duration(float64(8*elems)/10e6*1e9)
	serial := 7 * perXfer
	if x.Stats().Makespan > serial*2/3 {
		t.Fatalf("fan-out should beat serial distribution: makespan %v vs serial %v", x.Stats().Makespan, serial)
	}
	// And the copies must not all come from machine 0.
	srcs := map[int]bool{}
	for _, ev := range x.Log().Filter(trace.ObjectCopied) {
		srcs[ev.Src] = true
	}
	if len(srcs) < 2 {
		t.Fatalf("tree distribution should use multiple sources, got %v", srcs)
	}
}

func TestDirectoryInvariantOwnerHoldsValue(t *testing.T) {
	// After any run, every object's owner machine must hold a value.
	x := mustNew(t, Options{Platform: machine.Workstations(4)})
	var ids []access.ObjectID
	err := x.Run(func(tc rt.TC) {
		for i := 0; i < 6; i++ {
			id, _ := tc.Alloc([]int32{int32(i)}, "o")
			ids = append(ids, id)
			pin := 1 + i%4
			_ = tc.Create([]access.Decl{{Object: id, Mode: access.ReadWrite}},
				rt.TaskOpts{Cost: 0.001, Pin: pin},
				func(tc rt.TC) {
					v, _ := tc.Access(id, access.ReadWrite)
					v.([]int32)[0]++
				})
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		d := x.dir.Entry(id)
		if d == nil {
			t.Fatalf("object %d missing directory entry", i)
		}
		if !d.Holds(d.Owner) {
			t.Fatalf("object %d: owner %d not in copies %v", i, d.Owner, d.Holders())
		}
		v := x.stores[d.Owner][id]
		if v == nil {
			t.Fatalf("object %d: owner %d holds no value", i, d.Owner)
		}
		if got := v.([]int32)[0]; got != int32(i)+1 {
			t.Fatalf("object %d: owner value %d, want %d", i, got, i+1)
		}
	}
}

func TestDeterministicTraceAcrossRuns(t *testing.T) {
	run := func() []trace.Event {
		x := mustNew(t, Options{Platform: machine.Mica(3), Trace: true})
		err := x.Run(func(tc rt.TC) {
			a, _ := tc.Alloc(make([]float64, 100), "a")
			b, _ := tc.Alloc(make([]float64, 100), "b")
			for i := 0; i < 6; i++ {
				obj := a
				if i%2 == 1 {
					obj = b
				}
				_ = tc.Create([]access.Decl{{Object: obj, Mode: access.ReadWrite}},
					rt.TaskOpts{Label: "w", Cost: 0.003},
					func(tc rt.TC) {
						v, _ := tc.Access(obj, access.ReadWrite)
						v.([]float64)[0]++
					})
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return x.Log().Events()
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs:\n%v\n%v", i, a[i], b[i])
		}
	}
}

func TestCommuteObjectPingPongsUnderLock(t *testing.T) {
	// Commuting tasks on different machines mutate the same object; each
	// update must see the previous one (the object follows the lock).
	x := mustNew(t, Options{Platform: machine.IPSC860(4)})
	var final int64
	err := x.Run(func(tc rt.TC) {
		id, _ := tc.Alloc([]int64{0}, "sum")
		for i := 0; i < 12; i++ {
			pin := 1 + i%4
			_ = tc.Create([]access.Decl{{Object: id, Mode: access.Commute}},
				rt.TaskOpts{Label: "acc", Cost: 0.001, Pin: pin},
				func(tc rt.TC) {
					v, err := tc.Access(id, access.Commute)
					if err != nil {
						panic(err)
					}
					v.([]int64)[0]++
					tc.EndAccess(id, access.Commute)
				})
		}
		v, err := tc.Access(id, access.Read)
		if err != nil {
			panic(err)
		}
		final = v.([]int64)[0]
	})
	if err != nil {
		t.Fatal(err)
	}
	if final != 12 {
		t.Fatalf("commuting updates lost: %d, want 12", final)
	}
}
