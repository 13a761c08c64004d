package format

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

func TestDiffApplyRoundTrip(t *testing.T) {
	old := make([]float64, 200)
	new_ := make([]float64, 200)
	for i := range old {
		old[i] = float64(i)
		new_[i] = float64(i)
	}
	// Two dirty regions, far apart.
	for i := 10; i < 14; i++ {
		new_[i] = -1
	}
	new_[150] = 42
	for _, ord := range []ByteOrder{LittleEndian, BigEndian} {
		patch, changed, ok := Diff(old, new_, ord)
		if !ok {
			t.Fatalf("%v: diff should succeed", ord)
		}
		if changed != 5 {
			t.Fatalf("%v: changed = %d, want 5", ord, changed)
		}
		if patch == nil || len(patch) >= SizeOf(new_) {
			t.Fatalf("%v: patch (%d bytes) should beat full image (%d)", ord, len(patch), SizeOf(new_))
		}
		base := Clone(old)
		got, err := ApplyPatch(base, patch, ord)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, new_) {
			t.Fatalf("%v: patched value differs from new", ord)
		}
		// The patch lands in the base it was given.
		if !Same(got, base) {
			t.Fatal("ApplyPatch returned a new value instead of patching its base")
		}
	}
}

func TestDiffAllKinds(t *testing.T) {
	cases := []struct{ old, new any }{
		{[]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20},
			[]byte{1, 9, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20}},
		{[]int32{1, 2, 3, 4, 5, 6, 7, 8}, []int32{1, 2, 3, 9, 5, 6, 7, 8}},
		{[]int64{1, 2, 3, 4, 5, 6}, []int64{1, 2, 3, 4, 5, -6}},
		{[]float32{1, 2, 3, 4, 5, 6, 7, 8}, []float32{1, 2, 3, 4, 5, 6, 7, 9}},
		{[]float64{1, 2, 3, 4, 5, 6}, []float64{0.5, 2, 3, 4, 5, 6}},
	}
	for _, c := range cases {
		patch, changed, ok := Diff(c.old, c.new, BigEndian)
		if !ok || changed != 1 {
			t.Fatalf("%T: ok=%v changed=%d", c.new, ok, changed)
		}
		got, err := ApplyPatch(c.old, patch, BigEndian)
		if err != nil {
			t.Fatalf("%T: %v", c.new, err)
		}
		if !reflect.DeepEqual(got, c.new) {
			t.Fatalf("%T: round trip mismatch: %v vs %v", c.new, got, c.new)
		}
	}
}

func TestDiffFallsBackWhenNotWorthIt(t *testing.T) {
	// Everything changed: a patch cannot beat the full image.
	old := []int64{1, 2, 3, 4}
	new_ := []int64{5, 6, 7, 8}
	if _, _, ok := Diff(old, new_, LittleEndian); ok {
		t.Fatal("all-changed diff should fall back to full transfer")
	}
	// Kind mismatch.
	if _, _, ok := Diff([]int32{1}, []int64{1}, LittleEndian); ok {
		t.Fatal("kind mismatch should fall back")
	}
	// Length mismatch (object was reallocated).
	if _, _, ok := Diff([]int64{1, 2}, []int64{1, 2, 3}, LittleEndian); ok {
		t.Fatal("length mismatch should fall back")
	}
	// Unsupported value.
	if _, _, ok := Diff("x", "y", LittleEndian); ok {
		t.Fatal("unsupported kind should fall back")
	}
}

func TestDiffIdenticalValuesIsEmptyPatch(t *testing.T) {
	v := make([]float64, 100)
	patch, changed, ok := Diff(v, append([]float64(nil), v...), LittleEndian)
	if !ok || changed != 0 {
		t.Fatalf("identical values: ok=%v changed=%d", ok, changed)
	}
	if len(patch) != patchHeaderSize {
		t.Fatalf("empty patch should be header only, got %d bytes", len(patch))
	}
	got, err := ApplyPatch(v, patch, LittleEndian)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, v) {
		t.Fatal("empty patch should reproduce the base")
	}
}

func TestDiffNaNIsNotResent(t *testing.T) {
	nan := math.NaN()
	old := []float64{nan, 1, 2, 3, 4, 5, 6, 7}
	new_ := append([]float64(nil), old...)
	new_[4] = 9
	patch, changed, ok := Diff(old, new_, LittleEndian)
	if !ok || changed != 1 {
		t.Fatalf("NaN should compare equal to itself bitwise: ok=%v changed=%d", ok, changed)
	}
	got, err := ApplyPatch(old, patch, LittleEndian)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(got.([]float64)[0]) || got.([]float64)[4] != 9 {
		t.Fatalf("patched = %v", got)
	}
}

func TestDiffMergesNearbyRuns(t *testing.T) {
	old := make([]byte, 64)
	new_ := make([]byte, 64)
	// Dirty bytes at 0 and 5: the 4-byte gap is cheaper than a new 8-byte
	// run header, so one run should cover 0..5.
	new_[0], new_[5] = 1, 1
	patch, changed, ok := Diff(old, new_, LittleEndian)
	if !ok {
		t.Fatal("diff should succeed")
	}
	if changed != 6 {
		t.Fatalf("merged run should carry 6 bytes, got %d", changed)
	}
	if want := patchHeaderSize + runHeaderSize + 6; len(patch) != want {
		t.Fatalf("patch size = %d, want %d (one merged run)", len(patch), want)
	}
	// Dirty bytes far apart stay separate runs.
	new2 := make([]byte, 64)
	new2[0], new2[40] = 1, 1
	patch2, changed2, _ := Diff(old, new2, LittleEndian)
	if changed2 != 2 {
		t.Fatalf("distant runs should carry 2 bytes, got %d", changed2)
	}
	if want := patchHeaderSize + 2*(runHeaderSize+1); len(patch2) != want {
		t.Fatalf("patch size = %d, want %d (two runs)", len(patch2), want)
	}
}

func TestConvertPatchAcrossFormats(t *testing.T) {
	old := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	new_ := append([]float64(nil), old...)
	new_[2] = 2.5
	new_[7] = -7
	// Encode the patch big-endian (SPARC sender), convert to little-endian
	// (i860 receiver), apply against the receiver's shadow.
	patch, changed, ok := Diff(old, new_, BigEndian)
	if !ok {
		t.Fatal("diff should succeed")
	}
	conv, words, err := ConvertPatch(patch, BigEndian, LittleEndian)
	if err != nil {
		t.Fatal(err)
	}
	if words != changed {
		t.Fatalf("converted %d words, want %d", words, changed)
	}
	got, err := ApplyPatch(old, conv, LittleEndian)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, new_) {
		t.Fatalf("cross-format patch mismatch: %v", got)
	}
	// Same order: no work, same image.
	same, words2, err := ConvertPatch(patch, BigEndian, BigEndian)
	if err != nil || words2 != 0 {
		t.Fatalf("same-order convert: words=%d err=%v", words2, err)
	}
	if &same[0] != &patch[0] {
		t.Fatal("same-order convert should return the input")
	}
}

func TestApplyPatchRejectsCorruptPatches(t *testing.T) {
	base := []int64{1, 2, 3, 4}
	if _, err := ApplyPatch(base, []byte{1, 2}, LittleEndian); err == nil {
		t.Fatal("truncated patch should error")
	}
	good, _, ok := Diff(base, []int64{1, 9, 3, 4}, LittleEndian)
	if !ok {
		t.Fatal("diff should succeed")
	}
	// Wrong base kind.
	if _, err := ApplyPatch([]int32{1, 2, 3, 4}, good, LittleEndian); err == nil {
		t.Fatal("kind mismatch should error")
	}
	// Wrong base length.
	if _, err := ApplyPatch([]int64{1, 2, 3}, good, LittleEndian); err == nil {
		t.Fatal("length mismatch should error")
	}
	// Out-of-range run.
	bad := append([]byte(nil), good...)
	bad[patchHeaderSize] = 200 // run offset beyond n
	if _, err := ApplyPatch(base, bad, LittleEndian); err == nil {
		t.Fatal("out-of-range run should error")
	}
	// A header whose kind disagrees with the base: another valid kind, and
	// one no base can have.
	for _, k := range []Kind{KindFloat64s, 0x7F} {
		bad = append([]byte(nil), good...)
		bad[0] = byte(k)
		if _, err := ApplyPatch(base, bad, LittleEndian); err == nil {
			t.Fatalf("patch of kind %v applied to an int64 base", k)
		}
	}
	// A base of no supported kind is refused.
	if _, err := ApplyPatch([]string{"a", "b", "c", "d"}, good, LittleEndian); err == nil {
		t.Fatal("patch applied to an unsupported base")
	}
}

// diffByImages is Diff as it was first written — encode both values in
// full, compare the images byte by byte, gather the runs, then write the
// patch — kept as the oracle the in-place Diff must match byte for byte.
func diffByImages(old, new any, ord ByteOrder) (patch []byte, changed int, ok bool) {
	k := KindOf(new)
	if k == KindInvalid || KindOf(old) != k || Len(old) != Len(new) {
		return nil, 0, false
	}
	oldImg, _ := Encode(old, ord)
	newImg, _ := Encode(new, ord)
	n, es := Len(new), k.elemSize()
	op, np := oldImg[headerSize:], newImg[headerSize:]
	differs := func(i int) bool { return !bytes.Equal(op[i*es:(i+1)*es], np[i*es:(i+1)*es]) }
	type run struct{ off, cnt int }
	var runs []run
	for i := 0; i < n; i++ {
		if !differs(i) {
			continue
		}
		if len(runs) > 0 {
			last := &runs[len(runs)-1]
			if i-(last.off+last.cnt) <= runGapMerge(es) {
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

// TestDiffPropertyMatchesImageCompare: the in-place Diff and AppendDiff
// write the oracle's patch bytes, changed count and verdict, for every kind
// and byte order, lengths 0–300, float bit patterns that == gets wrong (NaN,
// −0), and dirty elements exactly at and one past the gap a run folds in.
func TestDiffPropertyMatchesImageCompare(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	// Bit patterns for the float kinds: two NaNs, both zeros, ordinary values.
	f64 := []float64{math.NaN(), math.Float64frombits(0x7ff8_0000_0000_0001), 0, math.Copysign(0, -1), 1, -2.5}
	f32 := []float32{float32(math.NaN()), math.Float32frombits(0x7fc0_0001), 0, float32(math.Copysign(0, -1)), 1, -2.5}
	fill := func(k Kind, n int) any {
		v := Zero(k, n)
		for i := 0; i < n; i++ {
			switch x := v.(type) {
			case []byte:
				x[i] = byte(rng.Intn(4))
			case []int32:
				x[i] = int32(rng.Intn(4))
			case []int64:
				x[i] = int64(rng.Intn(4))
			case []float32:
				x[i] = f32[rng.Intn(len(f32))]
			case []float64:
				x[i] = f64[rng.Intn(len(f64))]
			}
		}
		return v
	}
	// dirty sets element i of v to a different bit pattern.
	dirty := func(v any, i int) {
		switch x := v.(type) {
		case []byte:
			x[i] ^= 0x80
		case []int32:
			x[i] ^= 1 << 30
		case []int64:
			x[i] ^= 1 << 62
		case []float32:
			x[i] = math.Float32frombits(math.Float32bits(x[i]) ^ 1<<31) // 0 ↔ −0, NaN ↔ −NaN
		case []float64:
			x[i] = math.Float64frombits(math.Float64bits(x[i]) ^ 1<<63)
		}
	}
	kinds := []Kind{KindBytes, KindInt32s, KindInt64s, KindFloat32s, KindFloat64s}
	cases := 0
	for _, k := range kinds {
		gap := runGapMerge(k.elemSize())
		for n := 0; n <= 300; n++ {
			for trial := 0; trial < 6; trial++ {
				old := fill(k, n)
				new := Clone(old)
				switch {
				case trial == 0: // identical
				case trial == 1 && n > 0: // two dirty elements gap and gap+1 apart from a third
					a := rng.Intn(n)
					for _, i := range []int{a, a + 1 + gap, a + 1 + gap + 1 + gap + 1} {
						if i < n {
							dirty(new, i)
						}
					}
				case trial == 2: // fresh values: mostly dirty, some agree by chance
					new = fill(k, n)
				default: // scattered, from sparse to dense
					for d := rng.Intn(n/(trial*2)+1) + 1; d > 0 && n > 0; d-- {
						dirty(new, rng.Intn(n))
					}
				}
				for _, ord := range []ByteOrder{LittleEndian, BigEndian} {
					cases++
					wp, wc, wok := diffByImages(old, new, ord)
					gp, gc, gok := Diff(old, new, ord)
					if !bytes.Equal(gp, wp) || gc != wc || gok != wok {
						t.Fatalf("%v[%d] trial %d %v: Diff = (%x, %d, %v), oracle (%x, %d, %v)", k, n, trial, ord, gp, gc, gok, wp, wc, wok)
					}
					prefix := []byte{0xAA, 0xBB}
					ap, ac, aok := AppendDiff(prefix, old, new, ord)
					if want := append(append([]byte(nil), prefix...), wp...); !bytes.Equal(ap, want) || ac != wc || aok != wok {
						t.Fatalf("%v[%d] trial %d %v: AppendDiff = (%x, %d, %v), oracle (%x, %d, %v)", k, n, trial, ord, ap, ac, aok, want, wc, wok)
					}
				}
			}
		}
	}
	// Shape mismatches refuse, as the oracle does.
	for _, c := range [][2]any{{[]int32{1}, []int64{1}}, {[]byte{1, 2}, []byte{1}}, {"x", "y"}} {
		if _, _, ok := Diff(c[0], c[1], LittleEndian); ok {
			t.Fatalf("Diff(%v, %v) accepted a shape mismatch", c[0], c[1])
		}
	}
	t.Logf("%d cases", cases)
}

// TestPatchInPlaceProperty is the in-place contract ApplyPatch and
// DecodeInto give a receiver, for every kind, both byte orders, and empty,
// odd and larger lengths, over random bit patterns (NaNs included):
//   - patching a copy of old with Diff(old, new) gives new bit for bit, in
//     that copy;
//   - decoding an image into a value of its shape gives what Decode gives,
//     in that value;
//   - a truncated, overrunning or shape-mismatched patch or image leaves the
//     destination byte-identical (an image for another shape decodes into
//     a new value instead).
func TestPatchInPlaceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	random := func(k Kind, n int) any {
		img := make([]byte, headerSize, headerSize+n*k.elemSize())
		img[0] = byte(k)
		binary.LittleEndian.PutUint32(img[1:], uint32(n))
		for range n * k.elemSize() {
			img = append(img, byte(rng.Intn(256)))
		}
		v, err := Decode(img, LittleEndian)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	bits := func(v any) []byte {
		img, err := Encode(v, LittleEndian)
		if err != nil {
			t.Fatal(err)
		}
		return img
	}
	// unchanged fails the test unless dst still holds the bytes want.
	unchanged := func(what string, dst any, want []byte) {
		t.Helper()
		if !bytes.Equal(bits(dst), want) {
			t.Fatalf("%s: the destination changed", what)
		}
	}
	// other is a value of another shape than v: one longer, or another kind.
	other := func(v any) any {
		if rng.Intn(2) == 0 {
			return Zero(KindOf(v), Len(v)+1)
		}
		if KindOf(v) == KindInt64s {
			return Zero(KindFloat64s, Len(v))
		}
		return Zero(KindInt64s, Len(v))
	}
	kinds := []Kind{KindBytes, KindInt32s, KindInt64s, KindFloat32s, KindFloat64s}
	patched := 0
	for _, k := range kinds {
		for _, n := range []int{0, 1, 2, 3, 7, 13, 31, 64, 127, 255} {
			for trial := 0; trial < 8; trial++ {
				old := random(k, n)
				new := Clone(old)
				if n > 0 {
					// From one dirty element up to about all of them.
					for d := 1 + rng.Intn(1+n>>(trial%4)); d > 0; d-- {
						i := rng.Intn(n)
						putElems(new, i, bits(random(k, 1))[headerSize:], LittleEndian)
					}
				}
				for _, ord := range []ByteOrder{LittleEndian, BigEndian} {
					name := fmt.Sprintf("%v[%d] trial %d %v", k, n, trial, ord)
					// An image decodes into a destination of its shape.
					img, _ := Encode(new, ord)
					dst := Clone(old)
					got, err := DecodeInto(dst, img, ord)
					want, werr := Decode(img, ord)
					if err != nil || werr != nil || !bytes.Equal(bits(got), bits(want)) || !bytes.Equal(bits(got), bits(new)) {
						t.Fatalf("%s: DecodeInto = %v, %v; Decode = %v, %v", name, got, err, want, werr)
					}
					if n > 0 && !Same(got, dst) {
						t.Fatalf("%s: DecodeInto allocated for a destination of the image's shape", name)
					}
					// A bad image leaves the destination as it was.
					dst, before := Clone(old), bits(old)
					cut := headerSize + rng.Intn(len(img)-headerSize+1) - 1
					for _, bad := range [][]byte{img[:cut], append(slices.Clip(img), 0)} {
						if _, err := DecodeInto(dst, bad, ord); err == nil {
							t.Fatalf("%s: DecodeInto accepted a %d-byte image of %d", name, len(bad), len(img))
						}
						unchanged(name+": bad image", dst, before)
					}
					// An image of another shape decodes into a new value.
					odst := other(new)
					obefore := bits(odst)
					if got, err := DecodeInto(odst, img, ord); err != nil || !bytes.Equal(bits(got), bits(new)) {
						t.Fatalf("%s: DecodeInto into another shape = %v, %v", name, got, err)
					}
					unchanged(name+": image for another shape", odst, obefore)

					patch, _, ok := Diff(old, new, ord)
					if !ok {
						continue
					}
					patched++
					dst = Clone(old)
					if got, err := ApplyPatch(dst, patch, ord); err != nil || !bytes.Equal(bits(got), bits(new)) || (n > 0 && !Same(got, dst)) {
						t.Fatalf("%s: ApplyPatch = %v, %v; want %v in place", name, got, err, new)
					}
					// A bad patch — cut short, overrunning the value, one
					// byte too long, or for another shape — is refused
					// before a word is written.
					bads := [][]byte{patch[:rng.Intn(len(patch))], append(slices.Clip(patch), 0)}
					if runs := binary.LittleEndian.Uint32(patch[5:]); runs > 0 {
						// The last run's count reaches one past the end, its
						// payload stretched to match: every earlier run is
						// sound, so only a check of the whole patch first
						// keeps them out of the destination.
						last, pos := 0, patchHeaderSize
						for r := uint32(0); r < runs; r++ {
							last = pos
							pos += runHeaderSize + int(binary.LittleEndian.Uint32(patch[pos+4:]))*k.elemSize()
						}
						off := int(binary.LittleEndian.Uint32(patch[last:]))
						over := slices.Clone(patch)
						binary.LittleEndian.PutUint32(over[last+4:], uint32(n-off+1))
						over = append(over, make([]byte, (n-off+1)*k.elemSize()-(len(patch)-last-runHeaderSize))...)
						bads = append(bads, over)
					}
					for _, bad := range bads {
						dst, before = Clone(old), bits(old)
						if _, err := ApplyPatch(dst, bad, ord); err == nil {
							t.Fatalf("%s: ApplyPatch accepted a bad %d-byte patch of %d", name, len(bad), len(patch))
						}
						unchanged(name+": bad patch", dst, before)
					}
					odst = other(new)
					obefore = bits(odst)
					if _, err := ApplyPatch(odst, patch, ord); err == nil {
						t.Fatalf("%s: ApplyPatch applied to another shape", name)
					}
					unchanged(name+": patch for another shape", odst, obefore)
				}
			}
		}
	}
	if patched == 0 {
		t.Fatal("no trial produced a patch")
	}
	t.Logf("%d patches", patched)
}

// TestDiffAllocs: Diff of a 4 KiB []byte with 1% of its bytes dirty makes
// at most 2 allocations; into a buffer with room, AppendDiff makes none.
func TestDiffAllocs(t *testing.T) {
	old := make([]byte, 4096)
	for i := range old {
		old[i] = byte(i * 7)
	}
	new := Clone(old).([]byte)
	for i := 0; i < len(new)/100; i++ {
		new[(i*397+11)%len(new)]++
	}
	if _, _, ok := Diff(old, new, LittleEndian); !ok {
		t.Fatal("Diff refused a 1% patch")
	}
	if a := testing.AllocsPerRun(100, func() { Diff(old, new, LittleEndian) }); a > 2 {
		t.Errorf("Diff: %.1f allocs, want ≤ 2", a)
	}
	buf := make([]byte, 0, SizeOf(new))
	if a := testing.AllocsPerRun(100, func() { AppendDiff(buf, old, new, LittleEndian) }); a != 0 {
		t.Errorf("AppendDiff into a buffer with room: %.1f allocs, want 0", a)
	}
}
