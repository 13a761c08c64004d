// Delta encoding between versions of a shared object's payload.
//
// The distributed executor's coherence layer keeps invalidated copies around
// as shadows; when a machine re-fetches an object it already holds an old
// version of, the runtime ships only the words that changed (the diff-based
// release-consistency idea of Munin/TreadMarks applied at Jade's object
// granularity). A patch is a self-describing wire image: a header naming the
// payload kind and total element count, then a list of dirty runs, each a
// (word offset, word count, payload) triple. Like the full-image codec, the
// header and run bounds are protocol metadata (always little-endian) while
// run payloads are machine data in the sender's byte order, so patches
// convert between heterogeneous machines exactly like full images — but the
// swap work is proportional to the words that actually changed.
package format

import (
	"encoding/binary"
	"fmt"
	"math"
)

// patchHeaderSize is 1 byte kind + 4 bytes total element count + 4 bytes run
// count.
const patchHeaderSize = 9

// runHeaderSize is 4 bytes offset + 4 bytes count per dirty run.
const runHeaderSize = 8

// runGapMerge is the largest clean gap (in elements) folded into a
// surrounding dirty run: re-sending gap*elemSize unchanged bytes is cheaper
// than an extra run header once the gap payload is below runHeaderSize.
func runGapMerge(elemSize int) int {
	return runHeaderSize / elemSize
}

// WireSize returns the full encoded wire-image size of a value (header plus
// payload) — what a non-delta transfer of the value would put on the network.
func WireSize(v any) int { return headerSize + SizeOf(v) }

// Diff computes a word-level patch that transforms old into new, with run
// payloads encoded in byte order ord. It returns ok=false — and the caller
// must fall back to a full transfer — when the values are not the same kind
// and length, or when the patch would not be smaller than the full wire
// image. changed is the number of elements the patch carries (the dirty
// words, for charging conversion cost). Elements are compared by bit
// pattern, so a float NaN is equal to itself and never re-sent.
func Diff(old, new any, ord ByteOrder) (patch []byte, changed int, ok bool) {
	k := KindOf(new)
	if k == KindInvalid || KindOf(old) != k || Len(old) != Len(new) {
		return nil, 0, false
	}
	oldImg, err := Encode(old, ord)
	if err != nil {
		return nil, 0, false
	}
	newImg, err := Encode(new, ord)
	if err != nil {
		return nil, 0, false
	}
	n := Len(new)
	es := k.elemSize()
	op, np := oldImg[headerSize:], newImg[headerSize:]
	differs := func(i int) bool {
		base := i * es
		for b := 0; b < es; b++ {
			if op[base+b] != np[base+b] {
				return true
			}
		}
		return false
	}
	// Collect dirty runs, folding clean gaps shorter than a run header.
	type run struct{ off, cnt int }
	var runs []run
	gap := runGapMerge(es)
	for i := 0; i < n; i++ {
		if !differs(i) {
			continue
		}
		if len(runs) > 0 {
			last := &runs[len(runs)-1]
			if i-(last.off+last.cnt) <= gap {
				last.cnt = i - last.off + 1
				continue
			}
		}
		runs = append(runs, run{off: i, cnt: 1})
	}
	size := patchHeaderSize
	for _, r := range runs {
		size += runHeaderSize + r.cnt*es
	}
	if size >= len(newImg) {
		return nil, 0, false
	}
	patch = make([]byte, 0, size)
	patch = append(patch, byte(k))
	patch = binary.LittleEndian.AppendUint32(patch, uint32(n))
	patch = binary.LittleEndian.AppendUint32(patch, uint32(len(runs)))
	for _, r := range runs {
		patch = binary.LittleEndian.AppendUint32(patch, uint32(r.off))
		patch = binary.LittleEndian.AppendUint32(patch, uint32(r.cnt))
		patch = append(patch, np[r.off*es:(r.off+r.cnt)*es]...)
		changed += r.cnt
	}
	return patch, changed, true
}

// parsePatch validates a patch image and calls visit for each dirty run with
// the element offset, element count, and raw payload bytes.
func parsePatch(patch []byte, visit func(off, cnt int, payload []byte) error) (Kind, int, error) {
	if len(patch) < patchHeaderSize {
		return KindInvalid, 0, fmt.Errorf("format: truncated patch (%d bytes)", len(patch))
	}
	k := Kind(patch[0])
	es := k.elemSize()
	if es == 0 {
		return KindInvalid, 0, fmt.Errorf("format: patch has invalid kind %d", patch[0])
	}
	n := int(binary.LittleEndian.Uint32(patch[1:5]))
	runs := int(binary.LittleEndian.Uint32(patch[5:9]))
	pos := patchHeaderSize
	for r := 0; r < runs; r++ {
		if len(patch) < pos+runHeaderSize {
			return KindInvalid, 0, fmt.Errorf("format: patch run %d truncated", r)
		}
		off := int(binary.LittleEndian.Uint32(patch[pos : pos+4]))
		cnt := int(binary.LittleEndian.Uint32(patch[pos+4 : pos+8]))
		pos += runHeaderSize
		if cnt < 0 || off < 0 || off+cnt > n {
			return KindInvalid, 0, fmt.Errorf("format: patch run %d [%d,%d) exceeds %v[%d]", r, off, off+cnt, k, n)
		}
		if len(patch) < pos+cnt*es {
			return KindInvalid, 0, fmt.Errorf("format: patch run %d payload truncated", r)
		}
		if err := visit(off, cnt, patch[pos:pos+cnt*es]); err != nil {
			return KindInvalid, 0, err
		}
		pos += cnt * es
	}
	if pos != len(patch) {
		return KindInvalid, 0, fmt.Errorf("format: patch has %d trailing bytes", len(patch)-pos)
	}
	return k, n, nil
}

// ApplyPatch reconstructs the new value from a base (the receiver's stale
// shadow copy) and a patch whose run payloads are in byte order ord. The
// base is not modified; a fresh value is returned.
func ApplyPatch(base any, patch []byte, ord ByteOrder) (any, error) {
	k := KindOf(base)
	out := Clone(base)
	bo := ord.order()
	apply := func(off, cnt int, payload []byte) error {
		switch v := out.(type) {
		case []byte:
			copy(v[off:off+cnt], payload)
		case []int32:
			for i := 0; i < cnt; i++ {
				v[off+i] = int32(bo.Uint32(payload[i*4:]))
			}
		case []int64:
			for i := 0; i < cnt; i++ {
				v[off+i] = int64(bo.Uint64(payload[i*8:]))
			}
		case []float32:
			for i := 0; i < cnt; i++ {
				v[off+i] = math.Float32frombits(bo.Uint32(payload[i*4:]))
			}
		case []float64:
			for i := 0; i < cnt; i++ {
				v[off+i] = math.Float64frombits(bo.Uint64(payload[i*8:]))
			}
		}
		return nil
	}
	pk, n, err := parsePatch(patch, apply)
	if err != nil {
		return nil, err
	}
	if pk != k || n != Len(base) {
		return nil, fmt.Errorf("format: patch %v[%d] does not match base %v[%d]", pk, n, k, Len(base))
	}
	return out, nil
}

// ConvertPatch re-encodes a patch's run payloads from byte order `from` to
// byte order `to`, returning a new patch (or the input unchanged when no
// conversion is needed). The number of elements converted is returned so
// callers can charge per-word conversion cost — for a patch that is the
// dirty words only, which is the point of delta transfer.
func ConvertPatch(patch []byte, from, to ByteOrder) ([]byte, int, error) {
	k, _, err := parsePatch(patch, func(int, int, []byte) error { return nil })
	if err != nil {
		return nil, 0, err
	}
	if from == to || k == KindBytes {
		return patch, 0, nil
	}
	es := k.elemSize()
	out := make([]byte, len(patch))
	copy(out, patch)
	words := 0
	// Walk the (already validated) runs over the copy, swapping each element
	// in place.
	pos := patchHeaderSize
	runs := int(binary.LittleEndian.Uint32(out[5:9]))
	for r := 0; r < runs; r++ {
		cnt := int(binary.LittleEndian.Uint32(out[pos+4 : pos+8]))
		pos += runHeaderSize
		for i := 0; i < cnt; i++ {
			for b := 0; b < es/2; b++ {
				out[pos+i*es+b], out[pos+i*es+es-1-b] = out[pos+i*es+es-1-b], out[pos+i*es+b]
			}
		}
		words += cnt
		pos += cnt * es
	}
	return out, words, nil
}
