package slab

import (
	"math/rand"
	"slices"
	"testing"
)

// TestArenaOwnership drives random sequences of Grab, Copy, Reserve and
// in-capacity appends, and after every operation checks the ownership
// contract on every slice handed out so far (no Reset is ever called, so
// all of them must stay valid):
//   - a slice keeps its contents across later grabs and copies;
//   - it keeps them across a Reserve that abandons the backing buffer;
//   - an append within a slice's capacity never writes into the slice
//     grabbed after it.
func TestArenaOwnership(t *testing.T) {
	type held struct {
		s    []int
		want []int
	}
	var abandoned, appends int
	for seed := int64(1); seed <= 64; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var a Arena[int]
		var live []held
		next := 0
		fresh := func(n int) []int {
			v := make([]int, n)
			for i := range v {
				next++
				v[i] = next
			}
			return v
		}
		for op := 0; op < 300; op++ {
			switch rng.Intn(4) {
			case 0:
				n := rng.Intn(40)
				s := a.Grab(n)
				if len(s) != 0 || cap(s) != n {
					t.Fatalf("seed %d: Grab(%d) gave len %d cap %d", seed, n, len(s), cap(s))
				}
				s = append(s, fresh(rng.Intn(n+1))...)
				live = append(live, held{s, slices.Clone(s)})
			case 1:
				v := fresh(rng.Intn(40))
				s := a.Copy(v)
				if !slices.Equal(s, v) || cap(s) != len(v) {
					t.Fatalf("seed %d: Copy returned %v (cap %d), want %v", seed, s, cap(s), v)
				}
				live = append(live, held{s, v})
			case 2:
				before := a.buf
				a.Reserve(rng.Intn(200))
				if len(before) > 0 && &before[0] != &a.buf[0] {
					abandoned++
				}
			case 3:
				if len(live) == 0 {
					continue
				}
				h := &live[rng.Intn(len(live))]
				room := cap(h.s) - len(h.s)
				if room == 0 {
					continue
				}
				add := fresh(1 + rng.Intn(room))
				h.s = append(h.s, add...)
				h.want = append(h.want, add...)
				appends++
			}
			for i, h := range live {
				if !slices.Equal(h.s, h.want) {
					t.Fatalf("seed %d op %d: slice %d holds %v, want %v", seed, op, i, h.s, h.want)
				}
			}
		}
	}
	if abandoned == 0 || appends == 0 {
		t.Fatalf("sequences too tame: %d abandoning reserves, %d in-capacity appends", abandoned, appends)
	}
}
