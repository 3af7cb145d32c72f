package core

import (
	"fmt"
	"hash/maphash"
)

// nameIndex maps region names to their positions in a batch the caller
// already holds: an open-addressing table of positions, with the names
// themselves read back through the caller's accessor. One int32 slice —
// 8 to 16 bytes per region and a single allocation, where a map[string]int
// spends several and ~50 bytes per entry — which is what lets PrepareAll
// check the naming contract of a 50-region batch or a 10^5-region world
// without the check dominating the build.
type nameIndex struct {
	seed maphash.Seed
	tab  []int32 // position+1, 0 = empty; len is a power of two ≥ 2n
}

// indexNames builds the index over names nameAt(0..n-1), enforcing the
// batch naming contract: non-empty, unique.
func indexNames(n int, nameAt func(int) string) (nameIndex, error) {
	size := 4
	for size < 2*n {
		size <<= 1
	}
	x := nameIndex{seed: maphash.MakeSeed(), tab: make([]int32, size)}
	for i := 0; i < n; i++ {
		name := nameAt(i)
		if name == "" {
			return x, fmt.Errorf("core: region %d has empty name", i)
		}
		s := x.slot(name, nameAt)
		if x.tab[s] != 0 {
			return x, fmt.Errorf("core: duplicate region name %q", name)
		}
		x.tab[s] = int32(i + 1)
	}
	return x, nil
}

// slot returns the table slot holding name, or the empty slot where it
// belongs.
func (x nameIndex) slot(name string, nameAt func(int) string) int {
	mask := len(x.tab) - 1
	s := int(maphash.String(x.seed, name)) & mask
	for x.tab[s] != 0 && nameAt(int(x.tab[s]-1)) != name {
		s = (s + 1) & mask
	}
	return s
}

// lookup returns the position of name, or -1.
func (x nameIndex) lookup(name string, nameAt func(int) string) int {
	return int(x.tab[x.slot(name, nameAt)]) - 1
}
