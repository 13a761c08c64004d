package wire

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"
)

// FuzzDecode pins the codec's safety contract: Decode of arbitrary bytes
// must never panic, and any input it accepts must re-encode to the exact
// same bytes and an equal Frame (canonical form). The committed seed
// corpus in testdata/fuzz/FuzzDecode covers every frame type plus the
// interesting corruption shapes; `go test -fuzz=FuzzDecode` extends it.
func FuzzDecode(f *testing.F) {
	for _, seed := range fuzzSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := Decode(data)
		if err != nil {
			return // rejected inputs just must not panic
		}
		re, err := Encode(&fr)
		if err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		if !bytes.Equal(re, data) {
			t.Fatalf("accepted input is not canonical:\n in  %x\n out %x", data, re)
		}
		fr2, err := Decode(re)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !reflect.DeepEqual(fr, fr2) {
			t.Fatalf("re-decode differs:\n a %+v\n b %+v", fr, fr2)
		}
	})
}

// fuzzSeeds is the seed corpus, in the order of the committed files
// testdata/fuzz/FuzzDecode/seed-NN.
func fuzzSeeds(tb testing.TB) [][]byte {
	var seeds [][]byte
	for _, fr := range sampleFrames() {
		seeds = append(seeds, mustEncode(tb, fr))
	}
	// Corruption shapes worth keeping in the corpus.
	valid := mustEncode(tb, &Frame{Type: TObjPatch, Obj: 3, A: 2, C: 1, Payload: []byte{9, 9}})
	seeds = append(seeds, valid[:len(valid)-1])              // truncated payload
	seeds = append(seeds, append([]byte(nil), valid[1:]...)) // missing magic
	wrongVer := append([]byte(nil), valid...)
	wrongVer[1] = ProtoVersion + 1
	seeds = append(seeds, wrongVer)
	oldVer := append([]byte(nil), valid...)
	oldVer[1] = ProtoVersion - 1 // an older peer's frame, must hit ErrVersion
	seeds = append(seeds, oldVer)
	seeds = append(seeds, []byte{})
	seeds = append(seeds, []byte{magic, ProtoVersion, TBye})
	// Session-scoped control frames (v2): open with a tenant label and a
	// slot cap, close, and a data frame stamped with a large session id.
	seeds = append(seeds, mustEncode(tb, &Frame{Type: TSessionOpen, Sess: 3, Label: "tenant-a", A: 2}))
	seeds = append(seeds, mustEncode(tb, &Frame{Type: TSessionClose, Sess: 3}))
	seeds = append(seeds, mustEncode(tb, &Frame{Type: TTaskDone, Task: 8, Sess: 1 << 40, A: 77}))
	// Check-in sections (v3) that must not get through: a ragged list (one
	// byte short of two records, and one byte over one), and a list whose
	// length prefix runs past the frame. A list naming an object the task
	// never declared is well-formed here; the engine refuses it.
	seeds = append(seeds, mustEncode(tb, &Frame{Type: TTaskDone, Task: 8, Checkins: make([]byte, 2*AccessRecLen-1)}))
	seeds = append(seeds, mustEncode(tb, &Frame{Type: TEndAccess, Task: 8, Obj: 3, A: 1, Checkins: make([]byte, AccessRecLen+1)}))
	longList := mustEncode(tb, &Frame{Type: TTaskDone, Task: 8, Checkins: AppendAccessRec(nil, 3, 1)})
	seeds = append(seeds, longList[:len(longList)-5]) // the list's last byte and the payload length are gone
	seeds = append(seeds, mustEncode(tb, &Frame{Type: TTaskDone, Task: 8, Checkins: AppendAccessRec(nil, 1<<62, 0xFF)}))
	// A version-2 frame exactly as a v2 peer encoded it (three sections, no
	// check-in list): ErrVersion, whatever follows the version byte.
	v2 := []byte{magic, 2, TAccessReq}
	v2 = append(v2, make([]byte, 7*8+3*4)...)
	v2[3+4*8] = 1 // B=1: the pre-granted access notify v3 removed
	seeds = append(seeds, v2)
	// Write-back sections (v4) that must not get through: a record cut one
	// byte short, one byte past a record, and a payload length of 2 GiB in
	// a 33-byte section (rejected before anything is allocated for it). A
	// well-formed record for a generation nobody granted decodes here; the
	// coordinator refuses it.
	rec := AppendWriteback(nil, Writeback{Obj: 3, Gen: 2, Base: 1, Patch: true, Payload: []byte{9, 9, 9}})
	seeds = append(seeds, mustEncode(tb, &Frame{Type: TTaskDone, Task: 8, Writebacks: rec[:len(rec)-1]}))
	seeds = append(seeds, mustEncode(tb, &Frame{Type: TEndAccess, Task: 8, Obj: 3, A: 2, Writebacks: append(append([]byte(nil), rec...), 0)}))
	overlong := append([]byte(nil), rec...)
	binary.LittleEndian.PutUint32(overlong[26:], 1<<31)
	seeds = append(seeds, mustEncode(tb, &Frame{Type: TTaskDone, Task: 8, Writebacks: overlong}))
	seeds = append(seeds, mustEncode(tb, &Frame{Type: TTaskDone, Task: 8, Writebacks: AppendWriteback(nil, Writeback{Obj: 1 << 62, Gen: 1 << 62, Base: 1 << 62, Order: 0xFF, Patch: true})}))
	// A version-3 frame exactly as a v3 peer encoded it (four sections, no
	// write-back list) — a completion that releases a write without its
	// bytes: ErrVersion, whatever follows the version byte.
	v3 := []byte{magic, 3, TTaskDone + 2} // task-done as v3 numbered it, with TPull and TObjData still in the table
	v3 = append(v3, make([]byte, 7*8+4*4)...)
	seeds = append(seeds, v3)
	return seeds
}
