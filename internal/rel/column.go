package rel

// This file is the columnar storage layer under Table: one typed vector
// per column (int64, float64, or dictionary-coded strings) plus a null
// bitmap. A column holds one type: AppendRow takes only values its
// vector holds exactly (Value.Fits), so every cell round-trips. The
// executor's hot loops read the vectors directly; everything else goes
// through the row-materializing accessors on Table.

import (
	"hash/maphash"
	"math/bits"
	"slices"
	"sync"
)

// Bitmap is an append-only bitmap with one bit per row (set = NULL).
type Bitmap struct {
	words []uint64
	n     int
	set   int
}

// Append adds one bit.
func (b *Bitmap) Append(v bool) {
	if b.n%64 == 0 {
		b.words = append(b.words, 0)
	}
	if v {
		b.words[b.n/64] |= 1 << uint(b.n%64)
		b.set++
	}
	b.n++
}

// Get reports bit i.
func (b *Bitmap) Get(i int) bool {
	return b.words[i/64]&(1<<uint(i%64)) != 0
}

// Len returns the number of bits appended.
func (b *Bitmap) Len() int { return b.n }

// SetCount returns the number of set bits.
func (b *Bitmap) SetCount() int { return b.set }

// Any reports whether any bit is set; filter kernels skip the per-row
// null check entirely on all-valid columns.
func (b *Bitmap) Any() bool { return b.set > 0 }

// Dict is a per-column string dictionary: distinct strings in first-
// appearance order, so codes are stable as the column grows and
// decode(encode(s)) == s exactly. It has one writer, Intern, and one
// lookup rule for everyone else: readers (Code, Str, Strs, Len) see only
// strs. Intern mutates the dictionary and must be exclusive with every
// reader — the rule AppendRow already puts on the table that owns the
// column.
type Dict struct {
	strs []string
	// idx is Intern's private index over strs; no reader touches it. It
	// is an open-addressing table of 2^k slots, at most 3/4 full and
	// probed linearly. A slot holds the high 32 bits of its string's
	// hash above the string's code + 1, and 0 marks an empty slot, so the
	// index holds no pointer for the collector to scan, and regrowth
	// moves slots without hashing a string again. The hash only places
	// slots: codes follow first appearance whatever the seed. A
	// dictionary restored from a snapshot, or cut by Table.Prefix, has no
	// index until its first Intern or Reserve: restored tables are mostly
	// read and chunk fragments only ever read.
	idx []uint64
}

// dictSeed seeds every dictionary's hash; only slot positions depend on it.
var dictSeed = maphash.MakeSeed()

// dictHash is the hash half of s's slot.
func dictHash(s string) uint64 { return maphash.String(dictSeed, s) >> 32 }

// Intern returns the code for s, adding it to the dictionary if new.
func (d *Dict) Intern(s string) uint32 {
	if d.idx == nil {
		d.Reserve(len(d.strs) + 1)
	}
	h := dictHash(s)
	mask := uint64(len(d.idx) - 1)
	i := h & mask
	for ; d.idx[i] != 0; i = (i + 1) & mask {
		if e := d.idx[i]; e>>32 == h && d.strs[uint32(e)-1] == s {
			return uint32(e) - 1
		}
	}
	c := uint32(len(d.strs))
	d.strs = append(d.strs, s)
	slot := h<<32 | (uint64(c) + 1)
	if 4*len(d.strs) > 3*len(d.idx) {
		d.rehash(2 * len(d.idx))
		d.place(slot)
	} else {
		d.idx[i] = slot
	}
	return c
}

// Reserve makes room for n entries in all, so that interning up to n
// distinct strings regrows neither the entries nor the index. It builds
// the index of a dictionary that has none.
func (d *Dict) Reserve(n int) {
	n = max(n, len(d.strs))
	d.strs = slices.Grow(d.strs, n-len(d.strs))
	if size := indexSize(n); size > len(d.idx) {
		d.rehash(size)
	}
}

// indexSize is the number of index slots that holds n entries at most
// 3/4 full.
func indexSize(n int) int {
	size := 8 // the smallest index
	for 3*size < 4*n {
		size *= 2
	}
	return size
}

// rehash rebuilds the index at size slots, a power of two that holds
// every entry at most 3/4 full: from the old slots' hash halves if there
// is an index, from the entries if there is none.
func (d *Dict) rehash(size int) {
	old := d.idx
	d.idx = make([]uint64, size)
	if old == nil {
		for c, s := range d.strs {
			d.place(dictHash(s)<<32 | (uint64(c) + 1))
		}
		return
	}
	for _, e := range old {
		if e != 0 {
			d.place(e)
		}
	}
}

// place stores slot e in the first empty slot from its hash position.
func (d *Dict) place(e uint64) {
	mask := uint64(len(d.idx) - 1)
	i := e >> 32 & mask
	for d.idx[i] != 0 {
		i = (i + 1) & mask
	}
	d.idx[i] = e
}

// Code looks up the code for s without interning, by scanning the
// entries — one pass per compiled equality kernel (a resident table
// compiles once per prepared plan, a chunk once per fragment), never per
// row. The scan compares lengths before bytes and costs under 1 ns an
// entry: 7-13 us over the widest dictionary the benchmark corpus has
// (20 000 titles, table-wide after a hydrate) and under 2 us over a
// 4096-row chunk's, against the 0.6-0.8 ms and 0.12-0.14 ms (2-vCPU
// Xeon) of building Intern's index over those entries, which the
// compile would use once.
func (d *Dict) Code(s string) (uint32, bool) {
	for c, ds := range d.strs {
		if ds == s {
			return uint32(c), true
		}
	}
	return 0, false
}

// Str decodes a code.
func (d *Dict) Str(c uint32) string { return d.strs[c] }

// Strs returns the dictionary entries in code order. The slice is the
// dictionary's backing store — callers must not modify it.
func (d *Dict) Strs() []string { return d.strs }

// Len returns the number of distinct entries.
func (d *Dict) Len() int { return len(d.strs) }

// colVec is the typed storage of one column.
type colVec struct {
	typ    Type
	nulls  Bitmap
	ints   []int64   // TInt
	floats []float64 // TFloat
	codes  []uint32  // TString: dictionary codes
	dict   *Dict
	// absent marks a column of a fragment whose vectors are not resident
	// (see NewFragment); its other fields but typ are zero.
	absent bool
}

func newColVec(t Type) colVec {
	cv := colVec{typ: t}
	if t == TString {
		cv.dict = &Dict{}
	}
	return cv
}

// append stores v, which fits the column's type (Value.Fits), as the
// next row of the column.
func (cv *colVec) append(v Value) {
	cv.nulls.Append(v.Null)
	switch cv.typ {
	case TInt:
		cv.ints = append(cv.ints, v.I)
	case TFloat:
		cv.floats = append(cv.floats, v.F)
	case TString:
		if v.Null {
			cv.codes = append(cv.codes, 0)
		} else {
			cv.codes = append(cv.codes, cv.dict.Intern(v.S))
		}
	}
}

// prefix returns the column's first n rows for Table.Prefix. whole says
// n is every row, so the set count and dictionary carry over as they are:
// the prefix a reader takes under the writer's lock then costs no pass
// over the rows.
func (cv *colVec) prefix(n int, whole bool) colVec {
	k := (n + 63) / 64
	p := colVec{typ: cv.typ, nulls: Bitmap{words: cv.nulls.words[:k:k], n: n, set: cv.nulls.set}}
	if n%64 != 0 {
		p.nulls.words = slices.Clone(p.nulls.words)
		p.nulls.words[k-1] &= 1<<uint(n%64) - 1
	}
	if !whole {
		p.nulls.set = 0
		for _, w := range p.nulls.words {
			p.nulls.set += bits.OnesCount64(w)
		}
	}
	switch cv.typ {
	case TInt:
		p.ints = cv.ints[:n:n]
	case TFloat:
		p.floats = cv.floats[:n:n]
	case TString:
		p.codes = cv.codes[:n:n]
		// Codes are in first-appearance order, so the rows use exactly
		// the entries below their largest non-NULL code.
		used := len(cv.dict.strs)
		if !whole {
			used = 0
			for r, c := range p.codes {
				if int(c) >= used && !p.nulls.Get(r) {
					used = int(c) + 1
				}
			}
		}
		p.dict = &Dict{strs: cv.dict.strs[:used:used]}
	}
	return p
}

// concatIdx pools the index concatCol interns a column's parts through
// and drops when Concat returns. The slots hold no pointer, so a pooled
// index keeps no dictionary alive.
var concatIdx = sync.Pool{New: func() any { return new([]uint64) }}

// concatCol is column ci of Concat's result over parts, rows rows in all.
func concatCol(typ Type, ci, rows int, parts []*Table) colVec {
	if rows == 0 {
		return newColVec(typ)
	}
	cv := colVec{typ: typ, nulls: Bitmap{words: make([]uint64, 0, (rows+63)/64)}}
	var dict Dict
	switch typ {
	case TInt:
		cv.ints = make([]int64, 0, rows)
	case TFloat:
		cv.floats = make([]float64, 0, rows)
	case TString:
		cv.codes = make([]uint32, 0, rows)
		n := 0
		for _, p := range parts {
			n += p.cols[ci].dict.Len()
		}
		// An empty index of room for n entries, from the pool: Intern
		// never regrows it, and it goes back before concatCol returns.
		idx := concatIdx.Get().(*[]uint64)
		size := indexSize(n)
		if cap(*idx) < size {
			*idx = make([]uint64, size)
		}
		dict.strs, dict.idx = make([]string, 0, n), (*idx)[:size]
		clear(dict.idx)
		defer func() { *idx = dict.idx; concatIdx.Put(idx) }()
	}
	var global []uint32 // a part's code -> the result's code
	for _, p := range parts {
		pv := &p.cols[ci]
		cv.nulls.appendBits(&pv.nulls)
		switch typ {
		case TInt:
			cv.ints = append(cv.ints, pv.ints[:p.nrows]...)
		case TFloat:
			cv.floats = append(cv.floats, pv.floats[:p.nrows]...)
		case TString:
			global = global[:0]
			for _, s := range pv.dict.strs {
				global = append(global, dict.Intern(s))
			}
			for r, c := range pv.codes[:p.nrows] {
				if pv.nulls.set > 0 && pv.nulls.Get(r) {
					c = 0
				} else {
					c = global[c]
				}
				cv.codes = append(cv.codes, c)
			}
		}
	}
	if typ == TString {
		cv.dict = &Dict{strs: slices.Clip(slices.Clone(dict.strs))}
	}
	return cv
}

// appendBits appends src's bits behind b's, shifting src's words by b's
// bit count within its last word. Neither bitmap has a bit set past its
// length, so neither has the result.
func (b *Bitmap) appendBits(src *Bitmap) {
	sh := uint(b.n % 64)
	if sh == 0 {
		b.words = append(b.words, src.words...)
	} else {
		for i, w := range src.words {
			b.words[len(b.words)-1] |= w << sh
			if src.n-64*i > int(64-sh) { // word i's bits spill into the next word
				b.words = append(b.words, w>>(64-sh))
			}
		}
	}
	b.n += src.n
	b.set += src.set
}

// value rebuilds the Value of one row from the vectors.
func (cv *colVec) value(row int) Value {
	if cv.nulls.Get(row) {
		return NullOf(cv.typ)
	}
	switch cv.typ {
	case TInt:
		return Int(cv.ints[row])
	case TFloat:
		return Float(cv.floats[row])
	default:
		return Str(cv.dict.Str(cv.codes[row]))
	}
}
