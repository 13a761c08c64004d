package coherence

import (
	"fmt"

	"repro/internal/format"
)

// AppendPack appends to dst the payload that transfers val from a machine
// of byte order `from` to one of byte order `to`. With a non-nil base —
// the receiver's stale copy, or the sender's record of it — the payload is
// a patch of the words that changed since base, unless the patch would be
// no smaller than the full image or the object was reallocated with
// another shape; then, and with a nil base, it is the full image. Either
// way the payload is encoded once, straight into dst, in the receiver's
// byte order; words is the number of elements swapped to get it there
// (for a patch, the dirty words only). A dst with room for val's full
// image (format.SizeOf) is never grown.
func AppendPack(dst []byte, base, val any, from, to format.ByteOrder) (out []byte, isPatch bool, words int, err error) {
	if base != nil {
		out, words, isPatch = format.AppendDiff(dst, base, val, to)
	}
	if !isPatch {
		if out, err = format.AppendEncode(dst, val, to); err != nil {
			return dst, false, 0, fmt.Errorf("encode: %w", err)
		}
		words = format.Len(val)
	}
	if from == to || format.KindOf(val) == format.KindBytes {
		words = 0
	}
	return out, isPatch, words, nil
}

// Unpack decodes an AppendPack payload that arrived in byte order `order`
// on a machine whose own order is native, into base — the receiver's
// stale copy — and returns it: a patch, or an image of base's kind and
// length, is written straight into base. Only with no base, or an image of
// another shape, is a new value allocated. A payload that does not
// validate leaves base as it was. The caller must own base: nothing else
// may read it while it is overwritten. words counts the elements swapped
// when the sender could not convert for us (order != native).
func Unpack(base any, payload []byte, isPatch bool, order, native format.ByteOrder) (val any, words int, err error) {
	if payload, words, err = reorder(payload, isPatch, order, native); err != nil {
		return nil, 0, err
	}
	if isPatch {
		val, err = format.ApplyPatch(base, payload, native)
	} else {
		val, err = format.DecodeInto(base, payload, native)
	}
	if err != nil {
		return nil, 0, fmt.Errorf("unpack: %w", err)
	}
	return val, words, nil
}

// reorder converts a patch or image between byte orders, returning the
// number of elements swapped.
func reorder(payload []byte, isPatch bool, from, to format.ByteOrder) (out []byte, words int, err error) {
	switch {
	case from == to:
		return payload, 0, nil
	case isPatch:
		out, words, err = format.ConvertPatch(payload, from, to)
	default:
		out, words, err = format.Convert(payload, from, to)
	}
	if err != nil {
		return nil, 0, fmt.Errorf("convert %v to %v: %w", from, to, err)
	}
	return out, words, nil
}
