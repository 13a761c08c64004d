package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"testing"
)

// sampleFrames returns one representative frame per frame type, with all
// field classes (scalars, strings, payload) populated.
func sampleFrames() []*Frame {
	return []*Frame{
		{Type: THello, Label: "mica-3", Aux: "fpu,video", A: 1},
		{Type: TWelcome, A: 3},
		{Type: TDispatch, Task: 42, A: 7, Label: "factor", Aux: "cholesky.col", Payload: []byte{1, 2, 3}},
		{Type: TObjImage, Obj: 9, A: 4, B: 0, Payload: []byte{0, 0, 0, 1, 0xff}},
		{Type: TObjPatch, Obj: 9, A: 5, B: 1, C: 4, Payload: []byte{8, 8, 8}},
		{Type: TObjZero, Obj: 11, A: 1, B: 4, C: 1024},
		{Type: TInvalidate, Obj: 9, A: 5},
		{Type: TAccessReq, Req: 101, Task: 42, Obj: 9, A: 3},
		{Type: TCreateReq, Req: 102, Task: 42, Label: "child", Aux: "", A: 17, B: 0x3FF0000000000000, C: 0, Payload: []byte{0, 0, 0, 2}},
		{Type: TAllocReq, Req: 103, Task: 42, Label: "cells", A: 1, Payload: []byte{5, 4, 0, 0, 0}},
		{Type: TStartReq, Req: 104, Task: 43},
		{Type: TConvertReq, Req: 105, Task: 42, Obj: 9, A: 2},
		{Type: TRetractReq, Req: 106, Task: 42, Obj: 9, A: 1},
		{Type: TEndAccess, Task: 42, Obj: 9, A: 2},
		{Type: TClearAccess, Task: 42, Obj: 9, A: 3},
		{Type: TTaskDone, Task: 42, A: 123456789},
		{Type: TTaskFail, Task: 42, Label: "panic: index out of range"},
		{Type: TReply, Req: 101, Label: "", A: 55, B: 1},
		{Type: TBye},
		{Type: TLeave},
		{Type: TEvict},
		{Type: TSessionOpen, Sess: 7, Label: "tenant-a", A: 2},
		{Type: TSessionClose, Sess: 7},
		{Type: TDispatch, Task: 42, A: 7, Sess: 1 << 40, Label: "scoped", Payload: []byte{9}},
		// Check-ins (v3) on the three kinds of carrier: a release, a
		// completion, and a request that also has a payload.
		{Type: TEndAccess, Task: 42, Obj: 9, A: 2, Checkins: AppendAccessRec(nil, 9, 3)},
		{Type: TTaskDone, Task: 42, A: 77, Checkins: AppendAccessRec(AppendAccessRec(nil, 9, 1), 1<<40, 2)},
		{Type: TAllocReq, Req: 107, Task: 42, Label: "cells", A: 1, Checkins: AppendAccessRec(nil, 11, 3), Payload: []byte{5, 4, 0, 0, 0}},
		// Write-backs (v4) on the carriers that release a write: a
		// completion with a patch and a full image beside its check-ins, an
		// early release with an empty patch, and a create that also has a
		// payload.
		{Type: TTaskDone, Task: 42, A: 77, Checkins: AppendAccessRec(nil, 9, 3),
			Writebacks: AppendWriteback(AppendWriteback(nil,
				Writeback{Obj: 9, Gen: 6, Base: 5, Order: 1, Patch: true, Payload: []byte("patchbytes")}),
				Writeback{Obj: 1 << 40, Gen: 1, Payload: []byte{5, 4, 0, 0, 0}})},
		{Type: TEndAccess, Task: 42, Obj: 9, A: 2, Writebacks: AppendWriteback(nil, Writeback{Obj: 9, Gen: 7, Base: 6, Patch: true})},
		{Type: TCreateReq, Req: 108, Task: 42, Label: "child", A: 17, Payload: []byte{0, 0, 0, 2},
			Writebacks: AppendWriteback(nil, Writeback{Obj: 11, Gen: 2, Base: 1, Patch: true, Payload: []byte{1}})},
	}
}

// mustEncode is Encode for tests, where the frames are known to fit.
func mustEncode(tb testing.TB, f *Frame) []byte {
	tb.Helper()
	b, err := Encode(f)
	if err != nil {
		tb.Fatalf("Encode(%s): %v", TypeName(f.Type), err)
	}
	return b
}

// TestRoundTrip: Encode∘Decode is the identity for every frame type.
func TestRoundTrip(t *testing.T) {
	for _, f := range sampleFrames() {
		got, err := Decode(mustEncode(t, f))
		if err != nil {
			t.Fatalf("%s: Decode: %v", TypeName(f.Type), err)
		}
		if !reflect.DeepEqual(&got, f) {
			t.Errorf("%s: round trip:\n got %+v\nwant %+v", TypeName(f.Type), got, f)
		}
	}
}

// TestRoundTripEmptySections: empty strings and nil payload survive.
func TestRoundTripEmptySections(t *testing.T) {
	f := &Frame{Type: TBye}
	got, err := Decode(mustEncode(t, f))
	if err != nil {
		t.Fatal(err)
	}
	if got.Label != "" || got.Aux != "" || got.Checkins != nil || got.Writebacks != nil || got.Payload != nil {
		t.Errorf("empty sections mutated: %+v", got)
	}
}

// TestTruncated: every proper prefix of a valid frame errors, never
// panics, and never succeeds.
func TestTruncated(t *testing.T) {
	for _, f := range sampleFrames() {
		enc := mustEncode(t, f)
		for n := 0; n < len(enc); n++ {
			got, err := Decode(enc[:n])
			if err == nil {
				t.Fatalf("%s: Decode of %d/%d byte prefix succeeded: %+v", TypeName(f.Type), n, len(enc), got)
			}
		}
	}
}

// TestCorrupt covers the specific corruption classes Decode distinguishes.
func TestCorrupt(t *testing.T) {
	valid := mustEncode(t, &Frame{Type: TDispatch, Task: 1, Label: "x"})

	badMagic := append([]byte(nil), valid...)
	badMagic[0] = 'K'
	if _, err := Decode(badMagic); !errors.Is(err, ErrCorrupt) {
		t.Errorf("bad magic: err = %v, want ErrCorrupt", err)
	}

	badType := append([]byte(nil), valid...)
	badType[2] = 200
	if _, err := Decode(badType); !errors.Is(err, ErrCorrupt) {
		t.Errorf("bad type: err = %v, want ErrCorrupt", err)
	}
	zeroType := append([]byte(nil), valid...)
	zeroType[2] = 0
	if _, err := Decode(zeroType); !errors.Is(err, ErrCorrupt) {
		t.Errorf("zero type: err = %v, want ErrCorrupt", err)
	}

	trailing := append(append([]byte(nil), valid...), 0xAB)
	if _, err := Decode(trailing); !errors.Is(err, ErrCorrupt) {
		t.Errorf("trailing bytes: err = %v, want ErrCorrupt", err)
	}

	// A section length far past the end of the buffer must error without
	// attempting the allocation.
	hugeLen := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint32(hugeLen[headerLen:], 1<<31)
	if _, err := Decode(hugeLen); !errors.Is(err, ErrTruncated) {
		t.Errorf("huge section length: err = %v, want ErrTruncated", err)
	}

	// A check-in section that is not a whole number of access records is
	// rejected here, so no consumer ever indexes past a partial record.
	for _, n := range []int{1, AccessRecLen - 1, AccessRecLen + 1, 2*AccessRecLen - 1} {
		ragged := mustEncode(t, &Frame{Type: TTaskDone, Task: 1, Checkins: make([]byte, n)})
		if _, err := Decode(ragged); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%d-byte check-in section: err = %v, want ErrCorrupt", n, err)
		}
	}

	// A write-back section must end on a record boundary: a short header,
	// a payload length running past the section, a flag byte that is no
	// flag, and bytes after the last record are all rejected here, before
	// anything is allocated for them.
	rec := AppendWriteback(nil, Writeback{Obj: 9, Gen: 2, Base: 1, Patch: true, Payload: []byte{1, 2, 3}})
	overlong := append([]byte(nil), rec...)
	binary.LittleEndian.PutUint32(overlong[26:], 1<<31)
	badFlag := append([]byte(nil), rec...)
	badFlag[25] = 2
	for name, sec := range map[string][]byte{
		"short header":   rec[:writebackHdrLen-1],
		"short payload":  rec[:len(rec)-1],
		"over-long":      overlong,
		"bad patch flag": badFlag,
		"trailing byte":  append(append([]byte(nil), rec...), 0),
	} {
		if _, err := Decode(mustEncode(t, &Frame{Type: TTaskDone, Task: 1, Writebacks: sec})); !errors.Is(err, ErrCorrupt) {
			t.Errorf("write-back section with %s: err = %v, want ErrCorrupt", name, err)
		}
	}
}

// TestWriteback: the record codec round-trips, back to back, and refuses
// what is not a record.
func TestWriteback(t *testing.T) {
	a := Writeback{Obj: 7, Gen: 3, Base: 2, Order: 1, Patch: true, Payload: []byte{1, 2}}
	b := Writeback{Obj: 1<<63 | 5, Gen: 1}
	sec := AppendWriteback(AppendWriteback(nil, a), b)
	got, rest, ok := NextWriteback(sec)
	if !ok || !reflect.DeepEqual(got, a) {
		t.Fatalf("first record = %+v, %v; want %+v", got, ok, a)
	}
	got, rest, ok = NextWriteback(rest)
	b.Payload = []byte{} // an empty payload aliases the section, it is not nil
	if !ok || !reflect.DeepEqual(got, b) || len(rest) != 0 {
		t.Fatalf("second record = %+v, %v, %d bytes left; want %+v", got, ok, len(rest), b)
	}
	if _, _, ok := NextWriteback(sec[:len(sec)-1]); !ok {
		t.Error("the first record of a section whose second is short must still decode")
	}
	if _, _, ok := NextWriteback(sec[:writebackHdrLen+1]); ok {
		t.Error("a record whose payload runs past the section decoded")
	}
}

// TestAccessRec: the record codec round-trips, back to back.
func TestAccessRec(t *testing.T) {
	buf := AppendAccessRec(AppendAccessRec(nil, 7, 1), 1<<63|5, 3)
	if len(buf) != 2*AccessRecLen {
		t.Fatalf("two records take %d bytes, want %d", len(buf), 2*AccessRecLen)
	}
	if obj, mode := AccessRec(buf); obj != 7 || mode != 1 {
		t.Errorf("first record = (%d, %d)", obj, mode)
	}
	if obj, mode := AccessRec(buf[AccessRecLen:]); obj != 1<<63|5 || mode != 3 {
		t.Errorf("second record = (%d, %d)", obj, mode)
	}
}

// TestVersionMismatch: cross-version frames are rejected with ErrVersion
// specifically, so peers can report a protocol mismatch.
func TestVersionMismatch(t *testing.T) {
	enc := mustEncode(t, &Frame{Type: THello, Label: "w"})
	for _, v := range []byte{0, ProtoVersion - 1, ProtoVersion + 1, 0xFF} {
		bad := append([]byte(nil), enc...)
		bad[1] = v
		_, err := Decode(bad)
		if !errors.Is(err, ErrVersion) {
			t.Errorf("version %d: err = %v, want ErrVersion", v, err)
		}
	}
}

// TestTooLarge: a section whose length does not fit the 32-bit prefix is
// refused with ErrTooLarge, never silently truncated into a corrupt
// stream. The limit is lowered for the test — nobody allocates 4 GiB to
// prove an overflow check.
func TestTooLarge(t *testing.T) {
	old := maxSection
	maxSection = 16
	defer func() { maxSection = old }()

	big := make([]byte, 17)
	for _, f := range []*Frame{
		{Type: TObjImage, Payload: big},
		{Type: TDispatch, Label: string(big)},
		{Type: TDispatch, Aux: string(big)},
		{Type: TTaskDone, Checkins: big},
		{Type: TTaskDone, Writebacks: big},
	} {
		if _, err := Encode(f); !errors.Is(err, ErrTooLarge) {
			t.Errorf("%s with 17-byte section: err = %v, want ErrTooLarge", TypeName(f.Type), err)
		}
		// AppendFrame must leave dst untouched on refusal.
		dst := []byte{1, 2, 3}
		out, err := AppendFrame(dst, f)
		if !errors.Is(err, ErrTooLarge) || len(out) != 3 {
			t.Errorf("AppendFrame refusal: out len %d, err %v", len(out), err)
		}
		// So must PutFrameHeader, whatever the payload it was handed.
		g := *f
		g.Payload = nil
		buf := append(make([]byte, PayloadAt(&g)), f.Payload...)
		want := append([]byte(nil), buf...)
		if err := PutFrameHeader(buf, &g); !errors.Is(err, ErrTooLarge) || !bytes.Equal(buf, want) {
			t.Errorf("PutFrameHeader refusal: err %v, buffer changed %v", err, !bytes.Equal(buf, want))
		}
	}
	if _, err := Encode(&Frame{Type: TObjImage, Payload: big[:16]}); err != nil {
		t.Errorf("payload at the limit: %v", err)
	}
}

// TestAppendFrame: append-style encoding into a reused buffer matches
// Encode byte for byte.
func TestAppendFrame(t *testing.T) {
	buf := make([]byte, 0, 1024)
	for _, f := range sampleFrames() {
		var err error
		buf, err = AppendFrame(buf[:0], f)
		if err != nil {
			t.Fatalf("AppendFrame(%s): %v", TypeName(f.Type), err)
		}
		if want := mustEncode(t, f); !reflect.DeepEqual(buf, want) {
			t.Errorf("%s: AppendFrame differs from Encode", TypeName(f.Type))
		}
	}
}

// TestPutHeaders: a frame or write-back record whose payload was appended
// after a reserved header, the header filled in afterwards, is the one
// AppendFrame or AppendWriteback builds.
func TestPutHeaders(t *testing.T) {
	for _, f := range sampleFrames() {
		g := *f
		g.Payload = nil
		buf := append(make([]byte, PayloadAt(&g)), f.Payload...)
		if err := PutFrameHeader(buf, &g); err != nil {
			t.Fatalf("PutFrameHeader(%s): %v", TypeName(f.Type), err)
		}
		if want := mustEncode(t, f); !bytes.Equal(buf, want) {
			t.Errorf("%s: PutFrameHeader differs from Encode", TypeName(f.Type))
		}
	}
	for _, wb := range []Writeback{{Obj: 1, Gen: 2, Base: 3, Order: 1, Patch: true, Payload: []byte{4, 5}}, {Obj: 9}} {
		rec := append(make([]byte, WritebackLen(0)), wb.Payload...)
		PutWritebackHeader(rec, Writeback{Obj: wb.Obj, Gen: wb.Gen, Base: wb.Base, Order: wb.Order, Patch: wb.Patch})
		if want := AppendWriteback(nil, wb); !bytes.Equal(rec, want) {
			t.Errorf("%+v: PutWritebackHeader gives %x, AppendWriteback %x", wb, rec, want)
		}
	}
}

// TestDecodeOwnedAliases: the zero-copy decode's Payload, Checkins and
// Writebacks alias the input (that is its contract — the caller owns the
// buffer), while Decode's do not.
func TestDecodeOwnedAliases(t *testing.T) {
	wbs := AppendWriteback(nil, Writeback{Obj: 1, Gen: 1, Payload: []byte{7}})
	enc := mustEncode(t, &Frame{Type: TObjImage, Obj: 1, Checkins: AppendAccessRec(nil, 1, 1), Writebacks: wbs, Payload: []byte{1, 2, 3, 4}})
	fo, err := DecodeOwned(enc)
	if err != nil {
		t.Fatal(err)
	}
	fc, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	enc[len(enc)-1] = 99
	if fo.Payload[3] != 99 {
		t.Error("DecodeOwned payload does not alias the input")
	}
	if fc.Payload[3] != 4 {
		t.Error("Decode payload aliases the input; it must copy")
	}
	enc[len(enc)-len(fo.Payload)-4-1] = 8 // the write-back's payload byte
	if fo.Writebacks[len(wbs)-1] != 8 {
		t.Error("DecodeOwned write-backs do not alias the input")
	}
	if fc.Writebacks[len(wbs)-1] != 7 {
		t.Error("Decode write-backs alias the input; they must be copied")
	}
	enc[len(enc)-len(fo.Payload)-4-len(wbs)-4-1] = 2 // the check-in's mode byte
	if fo.Checkins[8] != 2 {
		t.Error("DecodeOwned check-ins do not alias the input")
	}
	if fc.Checkins[8] != 1 {
		t.Error("Decode check-ins alias the input; they must be copied")
	}
}

// TestEncodeAllocs pins the hot encode path at zero allocations when the
// caller reuses a buffer: the live executor encodes tens of thousands of
// frames per run, and regressing this puts the allocator back on top of
// the CPU profile.
func TestEncodeAllocs(t *testing.T) {
	f := &Frame{Type: TAccessReq, Req: 7, Task: 42, Obj: 9, A: 3}
	buf := make([]byte, 0, 256)
	allocs := testing.AllocsPerRun(200, func() {
		var err error
		buf, err = AppendFrame(buf[:0], f)
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("AppendFrame into a reused buffer: %.1f allocs/frame, want 0", allocs)
	}
}

// TestDecodeOwnedAllocs pins the zero-copy decode at no allocation for
// control frames with empty string sections — the overwhelming majority of
// live-protocol traffic — since the frame is a value the caller keeps. A
// push carrying a coalesced dispatch decodes, dispatch and all, in the two
// strings the dispatch names.
func TestDecodeOwnedAllocs(t *testing.T) {
	enc := mustEncode(t, &Frame{Type: TAccessReq, Req: 7, Task: 42, Obj: 9, A: 3})
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := DecodeOwned(enc); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("DecodeOwned of a control frame: %.1f allocs/frame, want 0", allocs)
	}
	nested := mustEncode(t, &Frame{Type: TDispatch, Task: 42, Label: "col3", Aux: "chol", Payload: []byte{0, 0, 0, 0}})
	push := mustEncode(t, &Frame{Type: TObjPatch, Obj: 9, A: 5, C: 4, Dispatch: nested, Payload: []byte{8, 8}})
	allocs = testing.AllocsPerRun(200, func() {
		f, err := DecodeOwned(push)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeOwned(f.Dispatch); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 2 {
		t.Errorf("DecodeOwned of a push and its dispatch: %.1f allocs, want 2 (the dispatch's label and kind)", allocs)
	}
}

// TestCoalescedDispatch: a dispatch riding a push is the push's Aux
// section, byte for byte what the same bytes as an Aux string would make,
// and DecodeOwned hands it over as bytes aliasing the input, which decode
// in turn to the dispatch. Any other frame's Aux section is a string.
func TestCoalescedDispatch(t *testing.T) {
	inner := &Frame{Type: TDispatch, Task: 42, A: 7, Label: "factor", Aux: "cholesky.col", Payload: []byte{1, 2, 3}}
	nested := mustEncode(t, inner)
	for _, typ := range []byte{TObjImage, TObjPatch, TObjZero} {
		push := &Frame{Type: typ, Obj: 9, A: 4, Dispatch: nested, Payload: []byte{5}}
		enc := mustEncode(t, push)
		if asAux := mustEncode(t, &Frame{Type: typ, Obj: 9, A: 4, Aux: string(nested), Payload: []byte{5}}); !bytes.Equal(enc, asAux) {
			t.Fatalf("%s: a Dispatch encodes differently from the same Aux bytes", TypeName(typ))
		}
		got, err := DecodeOwned(enc)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(&got, push) {
			t.Fatalf("%s: round trip:\n got %+v\nwant %+v", TypeName(typ), got, push)
		}
		df, err := DecodeOwned(got.Dispatch)
		if err != nil || !reflect.DeepEqual(&df, inner) {
			t.Fatalf("%s: nested dispatch %+v, %v; want %+v", TypeName(typ), df, err, inner)
		}
		got.Dispatch[len(got.Dispatch)-1] = 99
		if enc[headerLen+2*4+len(nested)-1] != 99 {
			t.Errorf("%s: DecodeOwned's Dispatch does not alias the input", TypeName(typ))
		}
	}
	got, err := Decode(mustEncode(t, &Frame{Type: TDispatch, Aux: string(nested)}))
	if err != nil || got.Aux != string(nested) || got.Dispatch != nil {
		t.Errorf("a dispatch's Aux section decoded as Aux %q, Dispatch %x (err %v)", got.Aux, got.Dispatch, err)
	}
}

// TestPeekSession: the mux's header-only peek agrees with a full decode
// on every frame type, and rejects the same bad headers Decode rejects.
func TestPeekSession(t *testing.T) {
	for _, f := range sampleFrames() {
		enc := mustEncode(t, f)
		typ, sess, err := PeekSession(enc)
		if err != nil {
			t.Fatalf("%s: PeekSession: %v", TypeName(f.Type), err)
		}
		if typ != f.Type || sess != f.Sess {
			t.Errorf("%s: PeekSession = (%d, %d), want (%d, %d)", TypeName(f.Type), typ, sess, f.Type, f.Sess)
		}
	}
	if _, _, err := PeekSession(nil); !errors.Is(err, ErrTruncated) {
		t.Errorf("empty input: err = %v, want ErrTruncated", err)
	}
	enc := mustEncode(t, &Frame{Type: TBye})
	bad := append([]byte(nil), enc...)
	bad[1] = ProtoVersion + 1
	if _, _, err := PeekSession(bad); !errors.Is(err, ErrVersion) {
		t.Errorf("wrong version: err = %v, want ErrVersion", err)
	}
	bad = append([]byte(nil), enc...)
	bad[0] = 'K'
	if _, _, err := PeekSession(bad); !errors.Is(err, ErrCorrupt) {
		t.Errorf("bad magic: err = %v, want ErrCorrupt", err)
	}
	bad = append([]byte(nil), enc...)
	bad[2] = 0
	if _, _, err := PeekSession(bad); !errors.Is(err, ErrCorrupt) {
		t.Errorf("zero type: err = %v, want ErrCorrupt", err)
	}
}

// TestSetSession: stamping a session id in place is exactly equivalent to
// encoding the frame with that Sess value, and refuses non-frames.
func TestSetSession(t *testing.T) {
	for _, f := range sampleFrames() {
		enc := mustEncode(t, f)
		if err := SetSession(enc, 0xDEADBEEF); err != nil {
			t.Fatalf("%s: SetSession: %v", TypeName(f.Type), err)
		}
		stamped := *f
		stamped.Sess = 0xDEADBEEF
		want := mustEncode(t, &stamped)
		if !reflect.DeepEqual(enc, want) {
			t.Errorf("%s: SetSession differs from re-encode with Sess set", TypeName(f.Type))
		}
	}
	if err := SetSession([]byte{magic}, 1); !errors.Is(err, ErrTruncated) {
		t.Errorf("short input: err = %v, want ErrTruncated", err)
	}
	enc := mustEncode(t, &Frame{Type: TBye})
	enc[1] = ProtoVersion + 1
	if err := SetSession(enc, 1); !errors.Is(err, ErrVersion) {
		t.Errorf("wrong version: err = %v, want ErrVersion", err)
	}
}

func TestTypeName(t *testing.T) {
	if got := TypeName(TDispatch); got != "dispatch" {
		t.Errorf("TypeName(TDispatch) = %q", got)
	}
	if got := TypeName(250); got != "type(250)" {
		t.Errorf("TypeName(250) = %q", got)
	}
}
