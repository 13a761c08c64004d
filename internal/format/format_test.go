package format

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestRoundTripAllKindsBothOrders(t *testing.T) {
	values := []any{
		[]byte{1, 2, 3, 255},
		[]int32{-1, 0, 1 << 30, math.MinInt32},
		[]int64{-1, 0, 1 << 60, math.MinInt64},
		[]float32{0, -1.5, math.MaxFloat32, float32(math.Inf(1))},
		[]float64{0, -1.5, math.MaxFloat64, math.Inf(-1), math.Pi},
	}
	for _, v := range values {
		for _, ord := range []ByteOrder{LittleEndian, BigEndian} {
			img, err := Encode(v, ord)
			if err != nil {
				t.Fatalf("Encode(%T, %v): %v", v, ord, err)
			}
			if len(img) != SizeOf(v) {
				t.Fatalf("image size %d != SizeOf %d for %T", len(img), SizeOf(v), v)
			}
			got, err := Decode(img, ord)
			if err != nil {
				t.Fatalf("Decode(%T, %v): %v", v, ord, err)
			}
			if !reflect.DeepEqual(got, v) {
				t.Fatalf("round trip %v: got %v, want %v", ord, got, v)
			}
		}
	}
}

func TestEmptySlices(t *testing.T) {
	for _, v := range []any{[]byte{}, []float64{}, []int32{}} {
		img, err := Encode(v, BigEndian)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Decode(img, BigEndian)
		if err != nil {
			t.Fatal(err)
		}
		if Len(got) != 0 || KindOf(got) != KindOf(v) {
			t.Fatalf("empty round trip: %#v -> %#v", v, got)
		}
	}
}

func TestCrossFormatConvert(t *testing.T) {
	v := []float64{1.25, -9.75, 3e300}
	le, err := Encode(v, LittleEndian)
	if err != nil {
		t.Fatal(err)
	}
	be, n, err := Convert(le, LittleEndian, BigEndian)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(v) {
		t.Fatalf("converted %d words, want %d", n, len(v))
	}
	got, err := Decode(be, BigEndian)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, v) {
		t.Fatalf("convert: got %v, want %v", got, v)
	}
	// Direct big-endian encoding must equal the converted image.
	direct, _ := Encode(v, BigEndian)
	if !bytes.Equal(direct, be) {
		t.Fatal("converted image differs from direct encoding")
	}
}

func TestConvertSameOrderIsNoCopy(t *testing.T) {
	v := []int64{5, 6}
	img, _ := Encode(v, BigEndian)
	out, n, err := Convert(img, BigEndian, BigEndian)
	if err != nil || n != 0 {
		t.Fatalf("same-order convert: n=%d err=%v", n, err)
	}
	if &out[0] != &img[0] {
		t.Fatal("same-order convert should return input unchanged")
	}
}

func TestConvertBytesOrderIndependent(t *testing.T) {
	img, _ := Encode([]byte{9, 8, 7}, LittleEndian)
	out, n, err := Convert(img, LittleEndian, BigEndian)
	if err != nil || n != 0 {
		t.Fatalf("bytes convert: n=%d err=%v", n, err)
	}
	got, err := Decode(out, BigEndian)
	if err != nil || !reflect.DeepEqual(got, []byte{9, 8, 7}) {
		t.Fatalf("bytes survive conversion: %v %v", got, err)
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode(nil, BigEndian); err == nil {
		t.Fatal("nil image should fail")
	}
	if _, err := Decode([]byte{0, 0, 0, 0, 0}, BigEndian); err == nil {
		t.Fatal("invalid kind should fail")
	}
	img, _ := Encode([]float64{1}, BigEndian)
	if _, err := Decode(img[:len(img)-1], BigEndian); err == nil {
		t.Fatal("truncated payload should fail")
	}
}

func TestEncodeUnsupported(t *testing.T) {
	if _, err := Encode("hello", BigEndian); err == nil {
		t.Fatal("unsupported type should fail")
	}
	if SizeOf(struct{}{}) != 0 {
		t.Fatal("SizeOf unsupported should be 0")
	}
	if KindOf(42) != KindInvalid {
		t.Fatal("KindOf unsupported should be invalid")
	}
}

func TestCloneIsDeep(t *testing.T) {
	v := []float64{1, 2}
	c := Clone(v).([]float64)
	c[0] = 99
	if v[0] != 1 {
		t.Fatal("Clone aliases original")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Clone of unsupported type should panic")
		}
	}()
	Clone("nope")
}

// TestSame: one slice is the same as itself and as a reslice of its full
// length, never as a copy, a shorter view, another kind, or an empty value.
func TestSame(t *testing.T) {
	v := []int32{1, 2, 3}
	for _, c := range []struct {
		a, b any
		want bool
	}{
		{v, v, true}, {v, v[:3:3], true}, {v, Clone(v), false}, {v, v[:2], false},
		{[]byte{1}, []int32{1}, false}, {v[:0], v[:0], false}, {"x", "x", false},
	} {
		if got := Same(c.a, c.b); got != c.want {
			t.Errorf("Same(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestQuickFloat64RoundTripAcrossFormats(t *testing.T) {
	f := func(raw []uint64) bool {
		v := make([]float64, len(raw))
		for i, b := range raw {
			v[i] = math.Float64frombits(b)
		}
		le, err := Encode(v, LittleEndian)
		if err != nil {
			return false
		}
		be, _, err := Convert(le, LittleEndian, BigEndian)
		if err != nil {
			return false
		}
		back, _, err := Convert(be, BigEndian, LittleEndian)
		if err != nil {
			return false
		}
		got, err := Decode(back, LittleEndian)
		if err != nil {
			return false
		}
		g := got.([]float64)
		for i := range v {
			if math.Float64bits(g[i]) != math.Float64bits(v[i]) {
				return false
			}
		}
		return len(g) == len(v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickInt32RoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		n := rng.Intn(50)
		v := make([]int32, n)
		for i := range v {
			v[i] = int32(rng.Uint32())
		}
		ord := ByteOrder(rng.Intn(2))
		img, err := Encode(v, ord)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Decode(img, ord)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, v) {
			t.Fatalf("trial %d: %v != %v", trial, got, v)
		}
	}
}
