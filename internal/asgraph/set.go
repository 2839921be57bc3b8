package asgraph

import "math/bits"

// Set is a bitset over AS indices. It is the representation used for
// deployment sets S (the secure ASes) throughout the reproduction: the
// routing-outcome engine probes membership on its hot path, so lookups
// must be O(1) and allocation-free.
//
// The zero Set is empty and read-only usable; Add grows it as needed.
type Set struct {
	words []uint64
}

// NewSet returns an empty Set pre-sized for ASes in [0, n).
func NewSet(n int) *Set {
	return &Set{words: make([]uint64, (n+63)/64)}
}

// SetOf returns a Set containing exactly the given ASes.
func SetOf(n int, members ...AS) *Set {
	s := NewSet(n)
	for _, v := range members {
		s.Add(v)
	}
	return s
}

// Add inserts v.
func (s *Set) Add(v AS) {
	w := int(v) >> 6
	for w >= len(s.words) {
		s.words = append(s.words, 0)
	}
	s.words[w] |= 1 << (uint(v) & 63)
}

// Remove deletes v if present.
func (s *Set) Remove(v AS) {
	w := int(v) >> 6
	if w < len(s.words) {
		s.words[w] &^= 1 << (uint(v) & 63)
	}
}

// Has reports whether v is a member. Has on a nil Set is false, so a nil
// *Set is a valid "no AS is secure" deployment.
func (s *Set) Has(v AS) bool {
	if s == nil {
		return false
	}
	w := int(v) >> 6
	return w < len(s.words) && s.words[w]&(1<<(uint(v)&63)) != 0
}

// Len returns the number of members.
func (s *Set) Len() int {
	if s == nil {
		return 0
	}
	n := 0
	for _, w := range s.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// AddAll inserts every member of t.
func (s *Set) AddAll(t *Set) {
	if t == nil {
		return
	}
	for len(s.words) < len(t.words) {
		s.words = append(s.words, 0)
	}
	for i, w := range t.words {
		s.words[i] |= w
	}
}

// Clone returns an independent copy. Cloning a nil Set yields an empty Set.
func (s *Set) Clone() *Set {
	if s == nil {
		return &Set{}
	}
	return &Set{words: append([]uint64(nil), s.words...)}
}

// Members returns the members in increasing order.
func (s *Set) Members() []AS {
	if s == nil {
		return nil
	}
	out := make([]AS, 0, s.Len())
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			out = append(out, AS(wi*64+b))
			w &= w - 1
		}
	}
	return out
}

// MembersNotIn returns the members of s that are not in t, in
// increasing order. Either set may be nil.
func (s *Set) MembersNotIn(t *Set) []AS {
	if s == nil {
		return nil
	}
	var out []AS
	for wi, w := range s.words {
		if t != nil && wi < len(t.words) {
			w &^= t.words[wi]
		}
		for w != 0 {
			b := bits.TrailingZeros64(w)
			out = append(out, AS(wi*64+b))
			w &= w - 1
		}
	}
	return out
}

// DiffVolume returns the summed Degree over the members of s \ t that
// belong to neither x1 nor x2; any of the sets may be nil. It is the
// allocation-free building block of core's deployment delta-volume
// probe — the sweep planner calls it O(k²) times per grid, so it must
// not materialize member slices.
func (g *Graph) DiffVolume(s, t, x1, x2 *Set) int64 {
	if s == nil {
		return 0
	}
	var vol int64
	for wi, w := range s.words {
		if t != nil && wi < len(t.words) {
			w &^= t.words[wi]
		}
		if x1 != nil && wi < len(x1.words) {
			w &^= x1.words[wi]
		}
		if x2 != nil && wi < len(x2.words) {
			w &^= x2.words[wi]
		}
		for w != 0 {
			b := bits.TrailingZeros64(w)
			vol += int64(g.Degree(AS(wi*64 + b)))
			w &= w - 1
		}
	}
	return vol
}

// DiffSeedVolume adds the members of s \ t that belong to neither x1
// nor x2, with their customers, to seen, and returns the summed Degree
// of the ASes it newly added; any set but seen may be nil, and seen
// must be sized for g. It is the allocation-free building block of
// core's deployment seed-volume probe.
func (g *Graph) DiffSeedVolume(s, t, x1, x2, seen *Set) int64 {
	if s == nil {
		return 0
	}
	var vol int64
	mark := func(v AS) {
		if w, b := int(v)/64, uint64(1)<<(uint(v)%64); seen.words[w]&b == 0 {
			seen.words[w] |= b
			vol += int64(g.Degree(v))
		}
	}
	for wi, w := range s.words {
		if t != nil && wi < len(t.words) {
			w &^= t.words[wi]
		}
		if x1 != nil && wi < len(x1.words) {
			w &^= x1.words[wi]
		}
		if x2 != nil && wi < len(x2.words) {
			w &^= x2.words[wi]
		}
		for w != 0 {
			v := AS(wi*64 + bits.TrailingZeros64(w))
			w &= w - 1
			mark(v)
			for _, c := range g.Customers(v) {
				mark(c)
			}
		}
	}
	return vol
}

// UnionDiffLen returns the number of ASes in exactly one of a1 ∪ a2 and
// b1 ∪ b2; any of the sets may be nil.
func UnionDiffLen(a1, a2, b1, b2 *Set) int {
	var w [4][]uint64
	n := 0
	for i, s := range [4]*Set{a1, a2, b1, b2} {
		if s != nil {
			w[i] = s.words
			n = max(n, len(s.words))
		}
	}
	count := 0
	for i := 0; i < n; i++ {
		var x [4]uint64
		for j := range w {
			if i < len(w[j]) {
				x[j] = w[j][i]
			}
		}
		count += bits.OnesCount64((x[0] | x[1]) ^ (x[2] | x[3]))
	}
	return count
}

// Clear removes every member, keeping the storage.
func (s *Set) Clear() { clear(s.words) }

// ContainsAll reports whether every member of t is also in s.
func (s *Set) ContainsAll(t *Set) bool {
	if t == nil {
		return true
	}
	for i, w := range t.words {
		var sw uint64
		if s != nil && i < len(s.words) {
			sw = s.words[i]
		}
		if w&^sw != 0 {
			return false
		}
	}
	return true
}
