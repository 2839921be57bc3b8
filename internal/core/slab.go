package core

import (
	"unsafe"

	"sbgp/internal/asgraph"
	"sbgp/internal/policy"
)

// This file implements the structure-of-arrays slabs behind the engine's
// per-AS state. An Outcome is five parallel arrays indexed by AS; backing
// them with one allocation instead of five keeps the arrays adjacent in
// memory (the stage loops stream over two or three of them together),
// halves the allocator traffic of every Clone, and gives the engine a
// single block to size once per (topology size, LP) and reuse forever. The
// engine's per-run scratch (offer accumulators, membership bitmaps,
// degree table) is carved the same way; see Engine.attachScratch and
// Engine.attachDeltaScratch.
//
// Layout rules: sections are placed widest-element-first (int32 before
// byte-wide) so every element is naturally aligned, and each section
// starts on its own cache line so sections never false-share a line.
// The backing []byte stays reachable through the interior pointers the
// carved slices hold, so no separate reference needs to be kept.

// slabAlign is the section alignment inside a slab: one cache line.
const slabAlign = 64

// alignUp rounds n up to the next multiple of slabAlign.
func alignUp(n int) int { return (n + slabAlign - 1) &^ (slabAlign - 1) }

// slab carves typed sections out of one backing allocation. The zero
// value is unusable; make one with newSlab sized by summing alignUp of
// each section's byte size plus slabAlign of leading slack for base
// alignment.
type slab struct {
	buf []byte
	off int
}

// newSlab allocates a slab with capacity for the given total section
// bytes (already alignUp-rounded per section by the caller).
func newSlab(sectionBytes int) *slab {
	s := &slab{buf: make([]byte, slabAlign+sectionBytes)}
	if sectionBytes > 0 {
		if r := int(uintptr(unsafe.Pointer(&s.buf[0])) & (slabAlign - 1)); r != 0 {
			s.off = slabAlign - r
		}
	}
	return s
}

// section returns a pointer to the next cache-line-aligned section of
// size bytes, advancing the slab cursor.
func (s *slab) section(bytes int) unsafe.Pointer {
	p := unsafe.Pointer(&s.buf[s.off])
	s.off += alignUp(bytes)
	return p
}

// sectionOf carves the next cache-line-aligned n-element section of T
// out of s. It is the only sanctioned way to mint a typed slice from
// slab memory: every other file stays free of unsafe — an invariant
// sbgplint's unsafeconfine analyzer enforces mechanically — so the
// audit surface for raw-memory reasoning never grows past this file.
func sectionOf[T any](s *slab, n int) []T {
	var zero T
	return unsafe.Slice((*T)(s.section(n*int(unsafe.Sizeof(zero)))), n)
}

// attachSlab points o's five parallel per-AS arrays into a single fresh
// backing allocation (zeroed, which is *not* the cleared no-route state:
// Class's zero value is ClassCustomer and an unrouted Next is
// asgraph.None — callers reset entries explicitly, as resetAll does).
func (o *Outcome) attachSlab(n int) {
	if n == 0 {
		o.Class, o.Len, o.Secure, o.Label, o.Next = nil, nil, nil, nil, nil
		return
	}
	s := newSlab(2*alignUp(4*n) + 3*alignUp(n))
	o.Len = sectionOf[int32](s, n)
	o.Next = sectionOf[asgraph.AS](s, n)
	o.Class = sectionOf[policy.Class](s, n)
	o.Secure = sectionOf[bool](s, n)
	o.Label = sectionOf[Label](s, n)
}

// attachScratch backs the engine's per-run stage scratch — the offer
// accumulators and the peer-stage membership bitmap — with one arena
// sized once at construction. The growable queues (buckets, fixedList,
// touched, dirtyList) are not carved here: their high-water marks are
// workload-dependent, so they grow on demand and are recycled across
// runs by slice reuse instead.
func (e *Engine) attachScratch(n int) {
	if n == 0 {
		e.off, e.inTouch = nil, nil
		return
	}
	accBytes := n * int(unsafe.Sizeof(offerAcc{}))
	s := newSlab(alignUp(accBytes) + alignUp(n))
	e.off = sectionOf[offerAcc](s, n)
	e.inTouch = sectionOf[bool](s, n)
}

// attachDeltaScratch backs the incremental-run scratch — the dirty-set
// bitmap, the per-AS degree table of the edge-volume fallback bound, and
// the secure reverse-reachability states — with one arena, allocated on
// the first RunDelta so engines that never run incrementally pay
// nothing. The per-AS snapshot outcome gets its own slab via attachSlab.
func (e *Engine) attachDeltaScratch(n int) {
	if n == 0 {
		e.deg, e.inDirty, e.reachState = nil, nil, nil
		return
	}
	s := newSlab(alignUp(4*n) + 2*alignUp(n))
	e.deg = sectionOf[int32](s, n)
	e.inDirty = sectionOf[bool](s, n)
	e.reachState = sectionOf[uint8](s, n)
}
