// Package layouttest sweeps a packed layout's codec field by field.
// Only _test.go files import it.
//
// A layout is a word of Bits bits carved into named fields. Sweep sets
// one field at a time to its all-ones value and to a value one bit too
// wide, first over all-zero and then over all-ones other fields, and
// checks three things: the field reads back masked to its width, every
// other field reads back unchanged, and only the field's declared bits
// of the word moved. That one sweep catches overlapping fields, a wrong
// shift, a wrong width, and a store or load that forgot its mask.
//
// Bit b of a word is bit b%8 of byte b/8, so a uint64 lane converts
// with Word and a little-endian byte record is used as is.
package layouttest

import (
	"encoding/binary"
	"fmt"
	"sort"
	"testing"
)

// Field is one field of a layout: Width bits from bit Lo.
type Field struct {
	Name      string
	Lo, Width uint
}

// Layout is a word of Bits bits and its fields.
type Layout struct {
	Bits   uint
	Fields []Field
}

// Word returns the little-endian bytes of a uint64 lane word.
func Word(w uint64) []byte { return binary.LittleEndian.AppendUint64(nil, w) }

// Uint64 returns the uint64 lane word held in the first 8 bytes of w.
func Uint64(w []byte) uint64 { return binary.LittleEndian.Uint64(w) }

// mask returns the all-ones value of a width-bit field.
func mask(width uint) uint64 {
	if width >= 64 {
		return ^uint64(0)
	}
	return 1<<width - 1
}

// Bit returns a one-bit field's value for b.
func Bit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// Get reads field f from word.
func Get(word []byte, f Field) uint64 {
	var v uint64
	for i := uint(0); i < f.Width; i++ {
		b := f.Lo + i
		v |= uint64(word[b/8]>>(b%8)&1) << i
	}
	return v
}

// Put writes the low f.Width bits of v into field f of word.
func Put(word []byte, f Field, v uint64) {
	for i := uint(0); i < f.Width; i++ {
		b := f.Lo + i
		word[b/8] = word[b/8]&^(1<<(b%8)) | byte(v>>i&1)<<(b%8)
	}
}

// Check fails t unless every field of l fits its word and no two fields
// overlap.
func Check(t *testing.T, l Layout) {
	t.Helper()
	fs := append([]Field(nil), l.Fields...)
	sort.Slice(fs, func(i, j int) bool { return fs[i].Lo < fs[j].Lo })
	for i, f := range fs {
		if f.Width == 0 || f.Lo+f.Width > l.Bits {
			t.Errorf("field %s (bits %d..%d) does not fit the %d-bit word", f.Name, f.Lo, f.Lo+f.Width-1, l.Bits)
		}
		if i > 0 && f.Lo < fs[i-1].Lo+fs[i-1].Width {
			t.Errorf("fields %s and %s overlap", fs[i-1].Name, f.Name)
		}
	}
}

// Sweep checks a codec against l. set returns the word the codec
// packs from base, one value per field of l, with field k replaced by
// v; get unpacks a word into one value per field.
func Sweep(t *testing.T, l Layout, set func(base []uint64, k int, v uint64) []byte, get func(word []byte) []uint64) {
	t.Helper()
	Check(t, l)
	for _, ones := range []bool{false, true} {
		base := make([]uint64, len(l.Fields))
		if ones {
			for k, f := range l.Fields {
				base[k] = mask(f.Width)
			}
		}
		for k, f := range l.Fields {
			vals := []uint64{mask(f.Width)}
			if f.Width < 64 {
				vals = append(vals, mask(f.Width+1))
			}
			for _, v := range vals {
				before := set(base, k, base[k])
				word := set(base, k, v)
				if len(word) != len(before) {
					t.Fatalf("%s=%#x over ones=%v: word is %d bytes, was %d", f.Name, v, ones, len(word), len(before))
				}
				declared := make([]byte, len(word))
				Put(declared, f, ^uint64(0))
				for i := range word {
					if moved := (word[i] ^ before[i]) &^ declared[i]; moved != 0 {
						t.Errorf("%s=%#x over ones=%v: byte %d moved bits %#02x outside the field", f.Name, v, ones, i, moved)
					}
				}
				want := v & mask(f.Width)
				if got := Get(word, f); got != want {
					t.Errorf("%s=%#x over ones=%v: bits %d..%d hold %#x, want %#x", f.Name, v, ones, f.Lo, f.Lo+f.Width-1, got, want)
				}
				got := get(word)
				for j, g := range l.Fields {
					wantJ := base[j]
					if j == k {
						wantJ = want
					}
					if got[j] != wantJ {
						t.Errorf("%s=%#x over ones=%v: %s reads back %#x, want %#x", f.Name, v, ones, g.Name, got[j], wantJ)
					}
				}
			}
		}
	}
}

// Slots sweeps a uint64 lane word of equal width-bit slots, slot i in
// bits i*width upward: set stores v into slot i of *word, and get reads
// slot i back.
func Slots(t *testing.T, width uint, word *uint64, set func(i int, v uint64), get func(i int) uint64) {
	t.Helper()
	l := Layout{Bits: 64}
	for lo := uint(0); lo+width <= 64; lo += width {
		l.Fields = append(l.Fields, Field{Name: fmt.Sprintf("slot%d", lo/width), Lo: lo, Width: width})
	}
	Sweep(t, l, func(base []uint64, k int, v uint64) []byte {
		*word = 0
		for i, b := range base {
			set(i, b)
		}
		set(k, v)
		return Word(*word)
	}, func(w []byte) []uint64 {
		*word = Uint64(w)
		out := make([]uint64, len(l.Fields))
		for i := range out {
			out[i] = get(i)
		}
		return out
	})
}
