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
	// Walk the runs once to size the patch, so it is allocated once.
	size := 0
	if _, ok = walkDiff(old, new, func(off, end, es int) { size += runHeaderSize + (end-off)*es }); !ok {
		return nil, 0, false
	}
	return AppendDiff(make([]byte, 0, patchHeaderSize+size), old, new, ord)
}

// AppendDiff appends Diff's patch to dst, comparing old and new in place:
// only the dirty runs are encoded, straight into dst. When Diff would
// refuse, dst is returned unchanged with ok=false, and at most the size of
// the full image was written past its length on the way there.
func AppendDiff(dst []byte, old, new any, ord ByteOrder) (patch []byte, changed int, ok bool) {
	start := len(dst)
	dst = append(dst, byte(KindOf(new)))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(Len(new)))
	dst = binary.LittleEndian.AppendUint32(dst, 0) // run count, set below
	runs, ok := walkDiff(old, new, func(off, end, _ int) {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(off))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(end-off))
		dst = appendElems(dst, new, off, end, ord)
		changed += end - off
	})
	if !ok {
		return dst[:start], 0, false
	}
	binary.LittleEndian.PutUint32(dst[start+5:], uint32(runs))
	return dst, changed, true
}

// walkDiff calls run for each dirty run of old → new in order, as the
// element range [off, end), with clean gaps of at most runGapMerge
// elements folded into the run around them, and returns the number of
// runs. It stops with ok=false when the values differ in kind or length,
// or as soon as the patch would be no smaller than new's full image; run
// is never called for the run that crosses that size.
func walkDiff(old, new any, run func(off, end, es int)) (runs int, ok bool) {
	k, n := KindOf(new), Len(new)
	if k == KindInvalid || KindOf(old) != k || Len(old) != n {
		return 0, false
	}
	es := k.elemSize()
	gap, budget := runGapMerge(es), headerSize+n*es-patchHeaderSize
	for end := 0; ; {
		off := firstWhere(old, new, end, n, true)
		if off == n {
			return runs, budget > 0
		}
		// Extend the run over every clean gap short enough to fold.
		for end = off; end < n; {
			end = firstWhere(old, new, end, n, false)
			lim := min(end+gap+1, n)
			j := firstWhere(old, new, end, lim, true)
			if j == lim {
				break
			}
			end = j
		}
		if budget -= runHeaderSize + (end-off)*es; budget <= 0 {
			return 0, false
		}
		run(off, end, es)
		runs++
	}
}

// firstWhere returns the first index in [i, hi) at which old and new (of
// the same kind, at least hi long) differ by bit pattern when dirty is set,
// or agree when it is not; hi if there is none.
func firstWhere(old, new any, i, hi int, dirty bool) int {
	switch b := new.(type) {
	case []byte:
		a := old.([]byte)
		if dirty {
			// Skip equal 8-byte words before looking at single bytes.
			for ; i+8 <= hi && binary.LittleEndian.Uint64(a[i:]) == binary.LittleEndian.Uint64(b[i:]); i += 8 {
			}
		}
		for ; i < hi && (a[i] != b[i]) != dirty; i++ {
		}
	case []int32:
		a := old.([]int32)
		for ; i < hi && (a[i] != b[i]) != dirty; i++ {
		}
	case []int64:
		a := old.([]int64)
		for ; i < hi && (a[i] != b[i]) != dirty; i++ {
		}
	case []float32:
		a := old.([]float32)
		for ; i < hi && (math.Float32bits(a[i]) != math.Float32bits(b[i])) != dirty; i++ {
		}
	case []float64:
		a := old.([]float64)
		for ; i < hi && (math.Float64bits(a[i]) != math.Float64bits(b[i])) != dirty; i++ {
		}
	}
	return i
}

// parsePatch validates a patch image and calls visit for each dirty run with
// the element offset, element count, and raw payload bytes.
func parsePatch(patch []byte, visit func(off, cnt int, payload []byte) error) (Kind, int, error) {
	k, n, err := patchHeader(patch)
	if err != nil {
		return KindInvalid, 0, err
	}
	es := k.elemSize()
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

// patchHeader reads the kind and element count a patch applies to.
func patchHeader(patch []byte) (Kind, int, error) {
	if len(patch) < patchHeaderSize {
		return KindInvalid, 0, fmt.Errorf("format: truncated patch (%d bytes)", len(patch))
	}
	if k := Kind(patch[0]); k.elemSize() != 0 {
		return k, int(binary.LittleEndian.Uint32(patch[1:5])), nil
	}
	return KindInvalid, 0, fmt.Errorf("format: patch has invalid kind %d", patch[0])
}

// ApplyPatch patches base in place — base is the receiver's stale copy,
// and becomes the new value — from a patch whose run payloads are in byte
// order ord, and returns it. The whole patch is checked against base
// before the first word is written, so a patch for another shape, or a
// truncated or overrunning one, leaves base as it was. The caller must own
// base: nothing else may read it while it is overwritten.
func ApplyPatch(base any, patch []byte, ord ByteOrder) (any, error) {
	pk, n, err := parsePatch(patch, func(int, int, []byte) error { return nil })
	if err != nil {
		return nil, err
	}
	if k := KindOf(base); pk != k || n != Len(base) {
		return nil, fmt.Errorf("format: patch %v[%d] does not match base %v[%d]", pk, n, k, Len(base))
	}
	// The patch is valid, so this second walk writes every run.
	parsePatch(patch, func(off, _ int, payload []byte) error {
		putElems(base, off, payload, ord)
		return nil
	})
	return base, nil
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
