// Package wire is the versioned codec for the live executor's protocol.
//
// Every message between the coordinator and a worker is one Frame: a
// fixed header (magic, protocol version, frame type, seven 64-bit scalar
// fields) followed by five length-prefixed variable sections (Label,
// Aux, Checkins, Writebacks, Payload).  The same generic frame carries task
// dispatches, object images, format.Diff patches, and the small RPCs of
// the coherence protocol; which scalar means what is per-type and
// documented next to the type constants.
//
// Design rules, enforced by Decode and pinned by the fuzz tests:
//
//   - A frame from a different protocol version is rejected with
//     ErrVersion (wrapped, so errors.Is works) — never misparsed.
//   - Truncated or corrupt frames return an error; Decode never panics
//     and never allocates more than the input length (section lengths
//     are validated against the remaining bytes before use, a check-in
//     section must be a whole number of access records, and a write-back
//     section must be exactly consumed by its records).
//   - Encode∘Decode is the identity on canonical frames, so the
//     substrate may retransmit encoded bytes verbatim.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// ProtoVersion is the wire protocol version.  Peers running a different
// version are rejected at decode time with ErrVersion.  Version 2 added
// the Sess scalar (session-scoped frames for the multi-tenant service)
// and the TSessionOpen/TSessionClose control types.  Version 3 added the
// Checkins section and removed the standalone pre-granted access notify
// (TAccessReq with B=1): a version-2 peer would silently drop the
// check-ins, so it must be rejected rather than tolerated.  Version 4 added
// the Writebacks section and removed TPull/TObjData: the coordinator no
// longer asks for a writer's bytes, it expects them on the frame that
// releases the write.  A version-3 worker would release without them and
// wait for a pull that never comes, and a version-3 coordinator would drop
// the section and pull from a worker that no longer answers — either way
// the run would hang or compute on stale bytes, so v3 is rejected.
const ProtoVersion = 4

// magic is the first byte of every frame ('J' for Jade).
const magic = 0x4A

// Frame types.  The comments give the meaning of the scalar fields for
// each type; unused fields are zero.
const (
	// THello: worker → coordinator greeting.
	// Label=worker name, Aux=comma-separated capability labels,
	// A=format.ByteOrder of the worker's native encoding.
	THello = iota + 1
	// TWelcome: coordinator → worker. A=assigned machine index (1-based;
	// the coordinator itself is machine 0).
	TWelcome
	// TDispatch: coordinator → worker "run this task".
	// Task=task id, A=body key (shared in-process body table; 0 if the
	// task is kind-dispatched), Label=task label, Aux=kind name,
	// Payload=pre-grant records (each write grant naming the generation
	// it starts), then the kind args.
	TDispatch
	// TObjImage: full object image push, coordinator → worker.
	// Obj=object id, A=directory version the image represents,
	// B=format.ByteOrder of Payload, Payload=format.Encode image,
	// Dispatch=a coalesced TDispatch or nothing (so on TObjPatch and
	// TObjZero too).
	TObjImage
	// TObjPatch: delta push, coordinator → worker.  Obj=object id,
	// A=new version, B=format.ByteOrder of the patch, C=base version the
	// patch applies to (the worker's shadow), Payload=format.Diff patch.
	TObjPatch
	// TObjZero: write-only grant, coordinator → worker: materialize a
	// zero object instead of moving data.  Obj=object id, A=version,
	// B=format.Kind, C=element count.
	TObjZero
	// TInvalidate: coordinator → worker: drop your copy of Obj but keep
	// it as a shadow (delta base) tagged with version A.
	TInvalidate
	// TAccessReq: worker task → coordinator: rt.TC Access that the
	// dispatch did not pre-grant (the task waits for the reply).
	// Req=request id, Task=task id, Obj=object id, A=access.Mode bits.
	TAccessReq
	// TCreateReq: worker task → coordinator: child task creation.
	// Req=request id, Task=parent id, Label=child label, Aux=child kind,
	// A=body key, B=Cost bits (math.Float64bits), C=pin+1 (0 = unpinned),
	// Payload=marshalled decls + required capability + kind args.
	TCreateReq
	// TAllocReq: worker task → coordinator: object allocation.
	// Req=request id, Task=task id, Label=object label, A=ByteOrder of
	// Payload, Payload=format.Encode of the initial value.
	TAllocReq
	// TStartReq: worker → coordinator: an inline child is about to run;
	// wait for readiness and grant its declared accesses.
	// Req=request id, Task=child task id.
	TStartReq
	// TConvertReq: worker task → coordinator: deferred→immediate
	// conversion.  Req, Task, Obj, A=access.Mode bits.
	TConvertReq
	// TRetractReq: worker task → coordinator: retract a declaration.
	// Req, Task, Obj, A=access.Mode bits.
	TRetractReq
	// TEndAccess: worker task → coordinator, fire-and-forget:
	// Task, Obj, A=access.Mode bits.
	TEndAccess
	// TClearAccess: like TEndAccess for Cont.Clear.
	TClearAccess
	// TTaskDone: worker → coordinator: task body finished.
	// Task=task id, A=busy nanoseconds the task held the worker slot.
	TTaskDone
	// TTaskFail: worker → coordinator: task body panicked or could not
	// be resolved.  Task=task id, Label=error text.
	TTaskFail
	// TReply: coordinator → worker: generic RPC reply.  Req echoes the
	// request, Label=error text ("" = ok), A and B are per-request
	// result scalars (Create: A=child id, B=1 if inline; Access: A=the
	// generation a write grant starts), Payload=an inline child's
	// pre-grant records (Start).
	TReply
	// TBye: either direction: orderly shutdown of the session.
	TBye
	// TLeave: worker → coordinator: request a graceful departure. The
	// coordinator stops placing tasks on the worker, waits for its
	// in-flight tasks, syncs its owned objects back, and answers with
	// TBye. No scalar fields.
	TLeave
	// TEvict: coordinator → worker: you have been declared dead and your
	// connection is fenced. A worker that is in
	// fact alive may rejoin as a brand-new member (fresh dial + THello).
	// Delivery is best-effort — a genuinely dead worker never sees it.
	TEvict
	// TSessionOpen: service → worker daemon: begin multiplexing the
	// session named by Sess onto this physical connection. Sess=session
	// id, Label=tenant name, A=the tenant's per-worker slot cap (0 =
	// uncapped). Handled by the session mux, never by the executor.
	TSessionOpen
	// TSessionClose: either direction: the session named by Sess is
	// finished (or fenced); drop its routing entry and discard any late
	// frames that still carry its id. Handled by the session mux.
	TSessionClose
	// typeMax bounds the valid range; Decode rejects types outside it.
	typeMax
)

// Frame is the unit of the protocol.  See the type constants for field
// meanings.
type Frame struct {
	Type    byte
	Req     uint64
	Task    uint64
	Obj     uint64
	A, B, C uint64
	// Sess scopes the frame to one multiplexed session (0 = the sole
	// session of a dedicated connection). Stamped by the session mux;
	// the executor itself never reads it.
	Sess  uint64
	Label string
	Aux   string
	// Dispatch, on a push (TObjImage, TObjPatch, TObjZero), is an encoded
	// TDispatch riding it: the dispatch of the task the push stages,
	// coalesced onto the push so that the task starts without a control
	// frame of its own. It travels in the Aux section, which a push uses
	// for nothing else, and decodes as bytes rather than a string, so the
	// nested frame decodes straight from the buffer that carried it. Empty
	// on every other frame, and on a push that carries no dispatch.
	Dispatch []byte
	// Checkins, on any worker → coordinator frame that names a Task, is
	// the list of pre-granted accesses that task has performed since its
	// previous frame: whole access records (AppendAccessRec), in program
	// order. The coordinator checks them in with the engine before it
	// handles the frame itself, so they take effect exactly where a frame
	// of their own would have stood in the connection's FIFO. Empty on
	// every other frame.
	Checkins []byte
	// Writebacks, on a worker → coordinator frame by which a task releases
	// a write right (its completion, an early end of a write view, a
	// retraction, the creation of a child that takes the object over), is
	// what the task wrote: whole write-back records (AppendWriteback). The
	// coordinator installs them in its cache before it handles the frame
	// itself, so whoever the frame enables finds the bytes already there.
	// Empty on every other frame.
	Writebacks []byte
	Payload    []byte
}

// AccessRecLen is the encoded size of one (object, mode) access record:
// the object id as 8 little-endian bytes, then the access.Mode bits.
const AccessRecLen = 9

// AppendAccessRec appends one access record to dst. The same record
// carries the pre-grants of a dispatch (coordinator → worker, in the
// TDispatch payload) and their check-ins (worker → coordinator, in
// Frame.Checkins).
func AppendAccessRec(dst []byte, obj uint64, mode byte) []byte {
	return append(binary.LittleEndian.AppendUint64(dst, obj), mode)
}

// AccessRec decodes the record at the front of data, which must hold at
// least AccessRecLen bytes.
func AccessRec(data []byte) (obj uint64, mode byte) {
	return binary.LittleEndian.Uint64(data), data[8]
}

// Writeback is one record of a frame's Writebacks section: the contents of
// object Obj at generation Gen, the generation the directory started when
// it granted the write. Payload is a coherence.AppendPack payload in byte
// order Order: a patch against generation Base when Patch is set, a full
// image otherwise.
type Writeback struct {
	Obj, Gen, Base uint64
	Order          byte
	Patch          bool
	Payload        []byte
}

// writebackHdrLen is the fixed part of a write-back record: three 8-byte
// scalars, the byte order, the patch flag and the payload length.
const writebackHdrLen = 3*8 + 2 + 4

// WritebackLen is the encoded size of a write-back record whose payload is
// n bytes.
func WritebackLen(n int) int { return writebackHdrLen + n }

// AppendWriteback appends one write-back record to dst.
func AppendWriteback(dst []byte, wb Writeback) []byte {
	at := len(dst)
	dst = append(dst, make([]byte, writebackHdrLen)...)
	dst = append(dst, wb.Payload...)
	PutWritebackHeader(dst[at:], wb)
	return dst
}

// PutWritebackHeader writes the header of wb's record over the first
// WritebackLen(0) bytes of rec and takes the rest of rec as the record's
// payload; wb.Payload is not read. A sender that encodes the payload
// itself reserves the header, appends the payload after it, then fills
// the header in.
func PutWritebackHeader(rec []byte, wb Writeback) {
	binary.LittleEndian.PutUint64(rec, wb.Obj)
	binary.LittleEndian.PutUint64(rec[8:], wb.Gen)
	binary.LittleEndian.PutUint64(rec[16:], wb.Base)
	rec[24], rec[25] = wb.Order, 0
	if wb.Patch {
		rec[25] = 1
	}
	binary.LittleEndian.PutUint32(rec[26:], uint32(len(rec)-writebackHdrLen))
}

// NextWriteback decodes the record at the front of a Writebacks section and
// returns the rest of the section; Payload aliases data. A section that came
// through Decode is known to be well-formed, so ok is false only for
// hand-built input: a short header, a flag byte that is neither 0 nor 1, or
// a payload length that runs past the section.
func NextWriteback(data []byte) (wb Writeback, rest []byte, ok bool) {
	if len(data) < writebackHdrLen || data[25] > 1 {
		return Writeback{}, nil, false
	}
	n := binary.LittleEndian.Uint32(data[26:])
	if uint64(n) > uint64(len(data)-writebackHdrLen) {
		return Writeback{}, nil, false
	}
	wb = Writeback{
		Obj:     binary.LittleEndian.Uint64(data),
		Gen:     binary.LittleEndian.Uint64(data[8:]),
		Base:    binary.LittleEndian.Uint64(data[16:]),
		Order:   data[24],
		Patch:   data[25] == 1,
		Payload: data[writebackHdrLen : writebackHdrLen+int(n)],
	}
	return wb, data[writebackHdrLen+int(n):], true
}

// Errors returned by Encode and Decode.  ErrVersion is distinguished so a
// peer can report a protocol mismatch rather than a corrupt stream;
// ErrTooLarge is the encoder refusing a section whose length does not fit
// the 32-bit length prefix (silently truncating it would corrupt the
// stream for every frame that follows).
var (
	ErrVersion   = errors.New("wire: protocol version mismatch")
	ErrTruncated = errors.New("wire: truncated frame")
	ErrCorrupt   = errors.New("wire: corrupt frame")
	ErrTooLarge  = errors.New("wire: section exceeds 32-bit length prefix")
)

// maxSection bounds each variable section's length. The wire format
// carries lengths as uint32, so anything larger cannot be represented.
// A var (not const) so the overflow path is testable without allocating
// 4 GiB.
var maxSection = uint64(^uint32(0))

// headerLen is magic+version+type plus seven 8-byte scalars.
const headerLen = 3 + 7*8

// sessOffset is the fixed byte offset of the Sess scalar (the last one),
// so the session mux can peek and stamp it without a full decode.
const sessOffset = 3 + 6*8

// AppendFrame serializes f onto dst and returns the extended slice, so a
// caller with a pooled buffer encodes without allocating. The layout is:
//
//	magic | version | type | Req..C,Sess (7×8B LE) | len+Label | len+Aux | len+Checkins | len+Writebacks | len+Payload
//
// where a push's Aux section is its Dispatch.
//
// A section longer than the 32-bit length prefix can carry returns
// ErrTooLarge with dst unmodified.
func AppendFrame(dst []byte, f *Frame) ([]byte, error) {
	if err := checkSections(f, len(f.Payload)); err != nil {
		return dst, err
	}
	return append(appendHeader(dst, f, len(f.Payload)), f.Payload...), nil
}

// PayloadAt is the offset of f's payload in its encoding. A sender that
// encodes the payload itself reserves that much of its buffer, appends the
// payload after it, and fills the reservation in with PutFrameHeader.
func PayloadAt(f *Frame) int {
	return headerLen + 5*4 + len(f.Label) + len(f.Aux) + len(f.Dispatch) + len(f.Checkins) + len(f.Writebacks)
}

// PutFrameHeader writes f's encoding up to its payload over the first
// PayloadAt(f) bytes of buf and takes the rest of buf as the payload, so
// buf becomes the frame AppendFrame would build with that payload;
// f.Payload is not read. It refuses as AppendFrame does, leaving buf as it
// was.
func PutFrameHeader(buf []byte, f *Frame) error {
	n := len(buf) - PayloadAt(f)
	if err := checkSections(f, n); err != nil {
		return err
	}
	appendHeader(buf[:0], f, n)
	return nil
}

// checkSections refuses a frame with a section, or a payload of n bytes,
// longer than the 32-bit length prefix can carry.
func checkSections(f *Frame, n int) error {
	if uint64(len(f.Label)) > maxSection || uint64(len(f.Aux)+len(f.Dispatch)) > maxSection ||
		uint64(len(f.Checkins)) > maxSection || uint64(len(f.Writebacks)) > maxSection ||
		uint64(n) > maxSection {
		return fmt.Errorf("%w: label %d, aux %d, check-ins %d, write-backs %d, payload %d bytes (max %d)",
			ErrTooLarge, len(f.Label), len(f.Aux)+len(f.Dispatch), len(f.Checkins), len(f.Writebacks), n, maxSection)
	}
	return nil
}

// appendHeader appends f's encoding up to its payload, whose length it
// records as n: PayloadAt(f) bytes.
func appendHeader(dst []byte, f *Frame, n int) []byte {
	buf := append(dst, magic, ProtoVersion, f.Type)
	for _, v := range [...]uint64{f.Req, f.Task, f.Obj, f.A, f.B, f.C, f.Sess} {
		buf = binary.LittleEndian.AppendUint64(buf, v)
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(f.Label)))
	buf = append(buf, f.Label...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(f.Aux)+len(f.Dispatch)))
	buf = append(buf, f.Aux...)
	buf = append(buf, f.Dispatch...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(f.Checkins)))
	buf = append(buf, f.Checkins...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(f.Writebacks)))
	buf = append(buf, f.Writebacks...)
	return binary.LittleEndian.AppendUint32(buf, uint32(n))
}

// Encode serializes f into a fresh buffer. See AppendFrame for the layout
// and the ErrTooLarge contract.
func Encode(f *Frame) ([]byte, error) {
	buf := make([]byte, 0, PayloadAt(f)+len(f.Payload))
	return AppendFrame(buf, f)
}

// Decode parses one frame, copying every section out of data so the
// caller may recycle the input buffer immediately. See DecodeOwned for
// validation rules.
func Decode(data []byte) (Frame, error) {
	f, err := DecodeOwned(data)
	if err != nil {
		return f, err
	}
	for _, sec := range [...]*[]byte{&f.Dispatch, &f.Checkins, &f.Writebacks, &f.Payload} {
		if len(*sec) > 0 {
			*sec = append([]byte(nil), *sec...)
		}
	}
	return f, nil
}

// DecodeOwned parses one frame into a value, with Dispatch, Checkins,
// Writebacks and Payload aliasing data — zero-copy for callers that own
// the input buffer (the transport Recv contract hands the slice to the
// receiver); Label and Aux are copies. A caller that keeps the value in a
// local decodes without allocating, strings aside. It validates the magic,
// the protocol version, the type, and every section length against the
// remaining input, requires the check-in section to be a whole number of
// access records and the write-back section to be exactly consumed by its
// records, and requires the frame to be exactly consumed (no trailing
// garbage).
func DecodeOwned(data []byte) (Frame, error) {
	if len(data) < headerLen {
		return Frame{}, fmt.Errorf("%w: %d bytes, need at least %d", ErrTruncated, len(data), headerLen)
	}
	if data[0] != magic {
		return Frame{}, fmt.Errorf("%w: bad magic 0x%02x", ErrCorrupt, data[0])
	}
	if data[1] != ProtoVersion {
		return Frame{}, fmt.Errorf("%w: got v%d, want v%d", ErrVersion, data[1], ProtoVersion)
	}
	f := Frame{Type: data[2]}
	if f.Type == 0 || f.Type >= typeMax {
		return Frame{}, fmt.Errorf("%w: unknown frame type %d", ErrCorrupt, f.Type)
	}
	for i, p := range [...]*uint64{&f.Req, &f.Task, &f.Obj, &f.A, &f.B, &f.C, &f.Sess} {
		*p = binary.LittleEndian.Uint64(data[3+8*i:])
	}
	rest := data[headerLen:]
	section := func() ([]byte, error) {
		if len(rest) < 4 {
			return nil, fmt.Errorf("%w: missing section length", ErrTruncated)
		}
		n := binary.LittleEndian.Uint32(rest)
		rest = rest[4:]
		if uint64(n) > uint64(len(rest)) {
			return nil, fmt.Errorf("%w: section length %d exceeds %d remaining bytes", ErrTruncated, n, len(rest))
		}
		s := rest[:n]
		rest = rest[n:]
		return s, nil
	}
	lab, err := section()
	if err != nil {
		return Frame{}, err
	}
	f.Label = string(lab)
	aux, err := section()
	if err != nil {
		return Frame{}, err
	}
	switch {
	case len(aux) == 0:
	case f.Type == TObjImage || f.Type == TObjPatch || f.Type == TObjZero:
		f.Dispatch = aux
	default:
		f.Aux = string(aux)
	}
	chk, err := section()
	if err != nil {
		return Frame{}, err
	}
	if len(chk)%AccessRecLen != 0 {
		return Frame{}, fmt.Errorf("%w: check-in section of %d bytes is not a whole number of %d-byte access records", ErrCorrupt, len(chk), AccessRecLen)
	}
	if len(chk) > 0 {
		f.Checkins = chk
	}
	wbs, err := section()
	if err != nil {
		return Frame{}, err
	}
	for recs := wbs; len(recs) > 0; {
		var ok bool
		if _, recs, ok = NextWriteback(recs); !ok {
			return Frame{}, fmt.Errorf("%w: write-back section of %d bytes does not end on a record boundary", ErrCorrupt, len(wbs))
		}
	}
	if len(wbs) > 0 {
		f.Writebacks = wbs
	}
	pay, err := section()
	if err != nil {
		return Frame{}, err
	}
	if len(pay) > 0 {
		f.Payload = pay
	}
	if len(rest) != 0 {
		return Frame{}, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(rest))
	}
	return f, nil
}

// PeekSession returns an encoded frame's type and session id without
// decoding it, validating only the fixed header (magic, version, type,
// minimum length). The session mux routes on this so a multiplexed frame
// is parsed exactly once, by its final consumer.
func PeekSession(data []byte) (typ byte, sess uint64, err error) {
	if len(data) < headerLen {
		return 0, 0, fmt.Errorf("%w: %d bytes, need at least %d", ErrTruncated, len(data), headerLen)
	}
	if data[0] != magic {
		return 0, 0, fmt.Errorf("%w: bad magic 0x%02x", ErrCorrupt, data[0])
	}
	if data[1] != ProtoVersion {
		return 0, 0, fmt.Errorf("%w: got v%d, want v%d", ErrVersion, data[1], ProtoVersion)
	}
	typ = data[2]
	if typ == 0 || typ >= typeMax {
		return 0, 0, fmt.Errorf("%w: unknown frame type %d", ErrCorrupt, typ)
	}
	return typ, binary.LittleEndian.Uint64(data[sessOffset:]), nil
}

// SetSession stamps sess into an already-encoded frame in place. The mux
// uses it to tag outbound frames with the virtual connection's session id
// without re-encoding them.
func SetSession(data []byte, sess uint64) error {
	if len(data) < headerLen {
		return fmt.Errorf("%w: %d bytes, need at least %d", ErrTruncated, len(data), headerLen)
	}
	if data[0] != magic {
		return fmt.Errorf("%w: bad magic 0x%02x", ErrCorrupt, data[0])
	}
	if data[1] != ProtoVersion {
		return fmt.Errorf("%w: got v%d, want v%d", ErrVersion, data[1], ProtoVersion)
	}
	binary.LittleEndian.PutUint64(data[sessOffset:], sess)
	return nil
}

// TypeName returns a short human-readable name for a frame type, for
// traces and error messages.
func TypeName(t byte) string {
	names := [...]string{
		THello: "hello", TWelcome: "welcome", TDispatch: "dispatch",
		TObjImage: "obj-image", TObjPatch: "obj-patch", TObjZero: "obj-zero",
		TInvalidate: "invalidate",
		TAccessReq:  "access", TCreateReq: "create", TAllocReq: "alloc",
		TStartReq: "start", TConvertReq: "convert", TRetractReq: "retract",
		TEndAccess: "end-access", TClearAccess: "clear-access",
		TTaskDone: "task-done", TTaskFail: "task-fail", TReply: "reply",
		TBye: "bye", TLeave: "leave", TEvict: "evict",
		TSessionOpen: "session-open", TSessionClose: "session-close",
	}
	if int(t) < len(names) && names[t] != "" {
		return names[t]
	}
	return fmt.Sprintf("type(%d)", t)
}
