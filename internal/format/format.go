// Package format implements machine data formats and the typed encoding
// Jade uses to move shared objects between heterogeneous machines.
//
// The paper (§2, §5 "Data Format Conversion") requires the implementation to
// convert data representations when an object moves between machines with
// different formats — in 1992, SPARC workstations (big-endian) exchanging
// objects with i860 accelerators (little-endian) over PVM's typed transport.
// We reproduce that substrate: every shared object's payload is one of a
// small set of typed values; Encode produces a self-describing wire image in
// a machine's byte order, Decode reconstructs the value, and Convert
// re-encodes a wire image from one order to another. The word-level swap
// work is real, so conversion cost in the simulator corresponds to actual
// code executed.
package format

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
)

// ByteOrder identifies a machine's data format.
type ByteOrder int

const (
	// LittleEndian is the format of i860 and MIPS (DECStation) machines.
	LittleEndian ByteOrder = iota
	// BigEndian is the format of SPARC and SGI MIPS machines.
	BigEndian
)

func (o ByteOrder) String() string {
	if o == BigEndian {
		return "big-endian"
	}
	return "little-endian"
}

func (o ByteOrder) order() binary.ByteOrder {
	if o == BigEndian {
		return binary.BigEndian
	}
	return binary.LittleEndian
}

func (o ByteOrder) appender() binary.AppendByteOrder {
	if o == BigEndian {
		return binary.BigEndian
	}
	return binary.LittleEndian
}

// Kind tags the payload type in the wire image.
type Kind byte

const (
	// KindInvalid is the zero Kind; no valid image uses it.
	KindInvalid Kind = iota
	// KindBytes is a raw byte slice (no conversion needed).
	KindBytes
	// KindInt32s is a []int32.
	KindInt32s
	// KindInt64s is a []int64.
	KindInt64s
	// KindFloat32s is a []float32.
	KindFloat32s
	// KindFloat64s is a []float64.
	KindFloat64s
)

func (k Kind) String() string {
	switch k {
	case KindBytes:
		return "bytes"
	case KindInt32s:
		return "int32s"
	case KindInt64s:
		return "int64s"
	case KindFloat32s:
		return "float32s"
	case KindFloat64s:
		return "float64s"
	}
	return fmt.Sprintf("kind(%d)", byte(k))
}

// elemSize returns the element width in bytes.
func (k Kind) elemSize() int {
	switch k {
	case KindBytes:
		return 1
	case KindInt32s, KindFloat32s:
		return 4
	case KindInt64s, KindFloat64s:
		return 8
	}
	return 0
}

// header layout: 1 byte kind + 4 bytes element count (always little-endian:
// the header is protocol metadata, not machine data).
const headerSize = 5

// KindOf returns the Kind of a supported value, or KindInvalid.
func KindOf(v any) Kind {
	switch v.(type) {
	case []byte:
		return KindBytes
	case []int32:
		return KindInt32s
	case []int64:
		return KindInt64s
	case []float32:
		return KindFloat32s
	case []float64:
		return KindFloat64s
	}
	return KindInvalid
}

// SizeOf returns the wire size of a supported value, including the header.
// It returns 0 for unsupported values.
func SizeOf(v any) int {
	k := KindOf(v)
	if k == KindInvalid {
		return 0
	}
	return headerSize + k.elemSize()*Len(v)
}

// Len returns the element count of a supported value (0 otherwise).
func Len(v any) int {
	switch x := v.(type) {
	case []byte:
		return len(x)
	case []int32:
		return len(x)
	case []int64:
		return len(x)
	case []float32:
		return len(x)
	case []float64:
		return len(x)
	}
	return 0
}

// Clone returns a deep copy of a supported value. Unsupported values panic:
// they cannot cross machine boundaries.
func Clone(v any) any { return CloneInto(nil, v) }

// CloneInto copies v into dst and returns dst when dst has v's kind and
// length, and returns Clone(v) otherwise: a receiver that owns a retired
// buffer of the right shape reuses it. dst must not be v itself, nor be
// reachable by anything else that reads it.
func CloneInto(dst, v any) any {
	switch x := v.(type) {
	case []byte:
		return cloneInto(dst, x)
	case []int32:
		return cloneInto(dst, x)
	case []int64:
		return cloneInto(dst, x)
	case []float32:
		return cloneInto(dst, x)
	case []float64:
		return cloneInto(dst, x)
	}
	panic(fmt.Sprintf("format: cannot clone unsupported type %T", v))
}

func cloneInto[E any](dst any, x []E) any {
	if d, ok := dst.([]E); ok && len(d) == len(x) {
		copy(d, x)
		return dst // as given: a slice turned into an interface again is a new allocation
	}
	return append([]E(nil), x...)
}

// Same reports whether a and b are one value: slices of the same kind and
// length over the same elements, so a write through either shows in both.
// Empty values, having nothing to write, are never the same.
func Same(a, b any) bool {
	return Len(a) > 0 && KindOf(a) == KindOf(b) && Len(a) == Len(b) &&
		reflect.ValueOf(a).Pointer() == reflect.ValueOf(b).Pointer()
}

// ZeroLike returns a zeroed value of the same kind and length as v. The
// distributed executor uses it for write-only object migration: a task that
// declared wr (without rd) gets ownership and a fresh buffer, and the stale
// bytes never cross the network.
func ZeroLike(v any) any {
	if z := Zero(KindOf(v), Len(v)); z != nil {
		return z
	}
	panic(fmt.Sprintf("format: cannot zero unsupported type %T", v))
}

// Zero returns a zeroed value of kind k and length n — what ZeroLike makes,
// for a receiver that is told the shape instead of shown a value — or nil
// for an invalid kind.
func Zero(k Kind, n int) any {
	switch k {
	case KindBytes:
		return make([]byte, n)
	case KindInt32s:
		return make([]int32, n)
	case KindInt64s:
		return make([]int64, n)
	case KindFloat32s:
		return make([]float32, n)
	case KindFloat64s:
		return make([]float64, n)
	}
	return nil
}

// Encode produces the self-describing wire image of v in byte order ord.
func Encode(v any, ord ByteOrder) ([]byte, error) {
	return AppendEncode(make([]byte, 0, SizeOf(v)), v, ord)
}

// AppendEncode appends the wire image of v in byte order ord to dst, so a
// sender can encode straight into the buffer the image leaves in. On error
// dst is returned unchanged.
func AppendEncode(dst []byte, v any, ord ByteOrder) ([]byte, error) {
	k := KindOf(v)
	if k == KindInvalid {
		return dst, fmt.Errorf("format: unsupported type %T", v)
	}
	n := Len(v)
	dst = append(dst, byte(k))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(n))
	return appendElems(dst, v, 0, n, ord), nil
}

// appendElems appends elements [lo, hi) of a supported value to dst in
// byte order ord.
func appendElems(dst []byte, v any, lo, hi int, ord ByteOrder) []byte {
	bo := ord.appender()
	switch x := v.(type) {
	case []byte:
		dst = append(dst, x[lo:hi]...)
	case []int32:
		for _, e := range x[lo:hi] {
			dst = bo.AppendUint32(dst, uint32(e))
		}
	case []int64:
		for _, e := range x[lo:hi] {
			dst = bo.AppendUint64(dst, uint64(e))
		}
	case []float32:
		for _, e := range x[lo:hi] {
			dst = bo.AppendUint32(dst, math.Float32bits(e))
		}
	case []float64:
		for _, e := range x[lo:hi] {
			dst = bo.AppendUint64(dst, math.Float64bits(e))
		}
	}
	return dst
}

// Decode reconstructs the value from a wire image in byte order ord.
func Decode(data []byte, ord ByteOrder) (any, error) { return DecodeInto(nil, data, ord) }

// DecodeInto decodes a wire image in byte order ord into dst and returns
// it when dst has the image's kind and length; otherwise it decodes into a
// new value. The image is checked before the first element is written, so
// a bad one leaves dst as it was. The caller must own dst: nothing else may
// read it while it is overwritten.
func DecodeInto(dst any, data []byte, ord ByteOrder) (any, error) {
	if len(data) < headerSize {
		return nil, fmt.Errorf("format: truncated image (%d bytes)", len(data))
	}
	k := Kind(data[0])
	n := int(binary.LittleEndian.Uint32(data[1:5]))
	es := k.elemSize()
	if es == 0 {
		return nil, fmt.Errorf("format: invalid kind %d", data[0])
	}
	if len(data) != headerSize+n*es {
		return nil, fmt.Errorf("format: image size %d does not match %v[%d]", len(data), k, n)
	}
	if KindOf(dst) != k || Len(dst) != n {
		dst = Zero(k, n)
	}
	putElems(dst, 0, data[headerSize:], ord)
	return dst, nil
}

// putElems overwrites the elements of v from off on with the encoded
// elements of payload, in byte order ord.
func putElems(v any, off int, payload []byte, ord ByteOrder) {
	bo := ord.order()
	switch x := v.(type) {
	case []byte:
		copy(x[off:], payload)
	case []int32:
		for i := range len(payload) / 4 {
			x[off+i] = int32(bo.Uint32(payload[i*4:]))
		}
	case []int64:
		for i := range len(payload) / 8 {
			x[off+i] = int64(bo.Uint64(payload[i*8:]))
		}
	case []float32:
		for i := range len(payload) / 4 {
			x[off+i] = math.Float32frombits(bo.Uint32(payload[i*4:]))
		}
	case []float64:
		for i := range len(payload) / 8 {
			x[off+i] = math.Float64frombits(bo.Uint64(payload[i*8:]))
		}
	}
}

// Convert re-encodes a wire image from byte order `from` to byte order `to`,
// returning a new image (or the input unchanged when from == to or the
// payload is order-independent). The element count converted is returned so
// callers can charge per-word conversion cost.
func Convert(data []byte, from, to ByteOrder) ([]byte, int, error) {
	if len(data) < headerSize {
		return nil, 0, fmt.Errorf("format: truncated image (%d bytes)", len(data))
	}
	k := Kind(data[0])
	if k.elemSize() == 0 {
		return nil, 0, fmt.Errorf("format: invalid kind %d", data[0])
	}
	if from == to || k == KindBytes {
		return data, 0, nil
	}
	n := int(binary.LittleEndian.Uint32(data[1:5]))
	es := k.elemSize()
	if len(data) != headerSize+n*es {
		return nil, 0, fmt.Errorf("format: image size %d does not match %v[%d]", len(data), k, n)
	}
	out := make([]byte, len(data))
	copy(out, data[:headerSize])
	src := data[headerSize:]
	dst := out[headerSize:]
	for i := 0; i < n; i++ {
		for b := 0; b < es; b++ {
			dst[i*es+b] = src[i*es+es-1-b]
		}
	}
	return out, n, nil
}
