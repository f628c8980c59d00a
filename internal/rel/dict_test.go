package rel

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// refDict is the reference Intern: a Go map beside the entries.
type refDict struct {
	idx  map[string]uint32
	strs []string
}

func newRefDict(strs []string) *refDict {
	r := &refDict{idx: map[string]uint32{}}
	for _, s := range strs {
		r.intern(s)
	}
	return r
}

func (r *refDict) intern(s string) uint32 {
	if c, ok := r.idx[s]; ok {
		return c
	}
	c := uint32(len(r.strs))
	r.idx[s] = c
	r.strs = append(r.strs, s)
	return c
}

// internSequence decodes fuzz bytes into the strings to intern. Each
// op byte picks one of: the empty string, a repeat of an earlier
// string, a fresh string of up to 15 input bytes, or the same behind a
// 256-byte prefix every such string shares.
func internSequence(data []byte) []string {
	prefix := strings.Repeat("p", 256)
	var seq []string
	for len(data) > 0 {
		op := data[0]
		data = data[1:]
		arg := int(op >> 2)
		switch op & 3 {
		case 0:
			seq = append(seq, "")
		case 1:
			if len(seq) == 0 {
				seq = append(seq, "")
			} else {
				seq = append(seq, seq[len(seq)-1-arg%len(seq)])
			}
		default:
			n := min(arg%16, len(data))
			s := string(data[:n])
			data = data[n:]
			if op&3 == 3 {
				s = prefix + s
			}
			seq = append(seq, s)
		}
	}
	return seq
}

// checkInterns interns seq into d, which must hold exactly ref's
// entries, and checks each code and the entries after every step.
func checkInterns(t *testing.T, label string, d *Dict, ref *refDict, seq []string) {
	t.Helper()
	for i, s := range seq {
		got, want := d.Intern(s), ref.intern(s)
		if got != want {
			t.Fatalf("%s: step %d Intern(%q) = %d, reference %d", label, i, s, got, want)
		}
		if !slices.Equal(d.Strs(), ref.strs) {
			t.Fatalf("%s: step %d entries %q, reference %q", label, i, d.Strs(), ref.strs)
		}
	}
}

// FuzzDictIntern: Intern assigns the codes a map-based reference does,
// in three states a dictionary can be in: fresh, restored from a
// snapshot (no index until its first Intern), and a Table.Prefix cut of
// the restored one, whose interning leaves its parent's entries alone.
func FuzzDictIntern(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\x02abc\x01\x05\x00\x03xyz\x07\x02a"))
	f.Fuzz(func(t *testing.T, data []byte) {
		seq := internSequence(data)
		checkInterns(t, "fresh", &Dict{}, newRefDict(nil), seq)

		half := len(seq) / 2
		tb := NewTable("t", []Column{{Name: "s", Typ: TString}})
		for _, s := range seq[:half] {
			tb.AppendRow([]Value{Str(s)})
		}
		restored, err := TableFromSnapshot(tb.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		_, rd, _, _ := restored.StrCol(0)
		cut := half / 2
		_, pd, _, _ := restored.Prefix(cut).StrCol(0)
		parent := slices.Clone(rd.Strs())
		checkInterns(t, "prefix", pd, newRefDict(seq[:cut]), seq[half:])
		if !slices.Equal(rd.Strs(), parent) {
			t.Fatalf("interning into the prefix changed its parent: %q, was %q", rd.Strs(), parent)
		}
		checkInterns(t, "restored", rd, newRefDict(seq[:half]), seq[half:])
	})
}

// TestDictInternGrowth: codes and entries match the reference across
// every index growth up to 200 000 distinct strings, with Reserve
// before the first Intern and between later ones; Reserve(n) leaves room
// for n entries, so interning up to n regrows nothing, and the index
// stays a power of two at most 3/4 full.
func TestDictInternGrowth(t *testing.T) {
	const n = 200_000
	strs := make([]string, n)
	for i := range strs {
		strs[i] = fmt.Sprintf("s%d", i)
	}
	d, ref := &Dict{}, newRefDict(nil)
	reserves := map[int]int{0: 1000, 1000: 50_000, 70_000: 10, 120_000: n}
	for i, s := range strs {
		if r, ok := reserves[i]; ok {
			d.Reserve(r)
			size, room := len(d.idx), cap(d.strs)
			for j := i; j < r; j++ {
				if j%3 == 0 {
					d.Intern(strs[j/3]) // repeats interleave the new entries
				}
				if got, want := d.Intern(strs[j]), ref.intern(strs[j]); got != want {
					t.Fatalf("after Reserve(%d): Intern(%q) = %d, reference %d", r, strs[j], got, want)
				}
			}
			if r > i && (len(d.idx) != size || cap(d.strs) != room) {
				t.Fatalf("Reserve(%d) at %d entries: interning to %d regrew the index %d -> %d slots or the entries %d -> %d",
					r, i, r, size, len(d.idx), room, cap(d.strs))
			}
		}
		if got, want := d.Intern(s), ref.intern(s); got != want {
			t.Fatalf("Intern(%q) = %d, reference %d", s, got, want)
		}
		if size := len(d.idx); size&(size-1) != 0 || 4*d.Len() > 3*size {
			t.Fatalf("%d entries in an index of %d slots", d.Len(), size)
		}
	}
	if !slices.Equal(d.Strs(), ref.strs) || d.Len() != n {
		t.Fatalf("%d entries, reference %d", d.Len(), len(ref.strs))
	}
	for i := n - 1; i >= 0; i-- {
		if c := d.Intern(strs[i]); c != uint32(i) || d.Len() != n {
			t.Fatalf("re-Intern(%q) = %d (%d entries), want %d", strs[i], c, d.Len(), i)
		}
	}
}

// BenchmarkDictIntern interns 100 000 strings into a fresh dictionary:
// all distinct, or drawn so that 90 % of them repeat an earlier one.
func BenchmarkDictIntern(b *testing.B) {
	const n = 100_000
	distinct := make([]string, n)
	for i := range distinct {
		distinct[i] = fmt.Sprintf("entry-%08d", i)
	}
	r := rand.New(rand.NewSource(1))
	repeat := make([]string, n)
	for i := range repeat {
		repeat[i] = distinct[r.Intn(n/10)]
	}
	for _, c := range []struct {
		name string
		seq  []string
	}{{"distinct", distinct}, {"repeat90", repeat}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var d Dict
				for _, s := range c.seq {
					d.Intern(s)
				}
			}
		})
	}
}
