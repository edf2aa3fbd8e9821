package core

import (
	"sync"
	"sync/atomic"
)

// arenaMinPage is the word capacity of a hasher arena's first page;
// subsequent pages double (8 KiB of uint64s to start). Pages are never
// freed, so views handed out by the cache stay valid for the cache's
// lifetime.
const arenaMinPage = 1024

// sigRef locates one record's cached signature prefix inside a
// hasher's arena: 16 flat bytes instead of a 24-byte slice header
// pointing at its own heap allocation.
type sigRef struct {
	page int32 // arena page holding the region
	off  int32 // word offset of the region within the page
	n    int32 // cached prefix length (base hash values written so far)
	cap  int32 // region capacity; growth past it relocates the region
}

// sigArena is a paged bump allocator for signature prefixes. All
// prefixes of one hasher live in a handful of geometrically growing
// []uint64 pages; per-record bookkeeping is a sigRef. Regions are
// never freed — a prefix that outgrows its region is relocated to a
// fresh region and the old words become bounded waste (the geometric
// region growth keeps the total under 2x the live data).
//
// Concurrency: alloc is serialized by the mutex; readers only need the
// page table, which is published as an immutable copy-on-append
// snapshot behind an atomic pointer, so concurrent view calls (the
// parallel key-precompute workers' Ensure hits) never race with page
// allocation. Writing hash values into an allocated region is the
// owning goroutine's business.
type sigArena struct {
	mu sync.Mutex
	// pages is the copy-on-append snapshot of the page table. Page
	// slices are append-only in count, immutable in size.
	pages atomic.Pointer[[][]uint64]
	// used is the bump cursor into the last page (guarded by mu).
	used int
}

func newSigArena() *sigArena {
	a := &sigArena{}
	empty := make([][]uint64, 0)
	a.pages.Store(&empty)
	return a
}

// alloc reserves n words and returns their (page, offset) location.
func (a *sigArena) alloc(n int) (page, off int32) {
	a.mu.Lock()
	pages := *a.pages.Load()
	if len(pages) == 0 || a.used+n > len(pages[len(pages)-1]) {
		size := arenaMinPage
		if len(pages) > 0 {
			size = 2 * len(pages[len(pages)-1])
		}
		if size < n {
			size = n
		}
		next := make([][]uint64, len(pages)+1)
		copy(next, pages)
		next[len(pages)] = make([]uint64, size)
		a.pages.Store(&next)
		pages = next
		a.used = 0
	}
	page = int32(len(pages) - 1)
	off = int32(a.used)
	a.used += n
	a.mu.Unlock()
	return page, off
}

// view returns the n-word region at (page, off). The three-index slice
// keeps callers from appending into a neighboring region.
func (a *sigArena) view(page, off int32, n int) []uint64 {
	p := (*a.pages.Load())[page]
	return p[off : off+int32(n) : off+int32(n)]
}
