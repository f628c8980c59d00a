package rel

import (
	"hash/maphash"
	"math/bits"
	"sync"
)

// The dictionary duplicate check is the only use a restored dictionary
// has for a hash table (its string -> code index waits for the first
// Intern, see Dict), and it runs on every string column a chunk fault
// decodes. A map built per column and dropped on return cost more than
// the rest of the column's validation, so the check probes a reused
// open-addressing table instead: one hash and one insert-or-compare
// probe sequence per entry, and no allocation once the pooled table is
// as large as the dictionaries it sees.

// dupSet is an open-addressing hash set of dictionary codes. A slot holds
// the epoch it was filled in above the code it holds, so a new check
// starts by bumping the epoch rather than clearing the table, and the
// table points into no dictionary it has checked.
type dupSet struct {
	slots []uint64
	epoch uint32
}

var (
	dupSets = sync.Pool{New: func() any { return new(dupSet) }}
	dupSeed = maphash.MakeSeed()
)

// firstDuplicate returns the first entry of dict that equals an earlier
// one.
func firstDuplicate(dict []string) (string, bool) {
	if len(dict) < 2 {
		return "", false
	}
	s := dupSets.Get().(*dupSet)
	defer dupSets.Put(s)
	size := 1 << bits.Len(uint(2*len(dict))) // a power of two, at least twice the entries
	if len(s.slots) < size {
		s.slots, s.epoch = make([]uint64, size), 0
	}
	if s.epoch++; s.epoch == 0 { // wrapped: old epochs would read as current
		clear(s.slots)
		s.epoch = 1
	}
	slots, mask, epoch := s.slots[:size], uint64(size-1), uint64(s.epoch)
	for c, ds := range dict {
		for i := maphash.String(dupSeed, ds) & mask; ; i = (i + 1) & mask {
			v := slots[i]
			if v>>32 != epoch {
				slots[i] = epoch<<32 | uint64(c)
				break
			}
			if dict[uint32(v)] == ds {
				return ds, true
			}
		}
	}
	return "", false
}
