package core

import (
	"slices"
	"sync"
	"sync/atomic"
)

// arenaMinPage is the word capacity of a hasher arena's first page;
// later pages double up to arenaMaxPage (8 KiB of uint64s to start).
const arenaMinPage = 1024

// arenaMaxPage caps page growth at 4 MiB (2^19 words), so compaction
// can release whole pages and the unused tail of the last page stays
// bounded. A region larger than the cap gets a page of its own size.
const arenaMaxPage = 1 << 19

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
// prefixes of one hasher live in a handful of []uint64 pages that
// double up to arenaMaxPage; per-record bookkeeping is a sigRef. A
// prefix that outgrows its region is relocated to a fresh region and
// the old region's words become dead: alloc counts them, and compact
// slides the live regions down over them and releases the pages past
// the last live region.
//
// Views: a view is valid until the arena is next compacted. The cache
// compacts only between runs (FilterRounds, after its last round), so
// an Ensure view is valid until the run that returned it ends.
//
// Concurrency: alloc is serialized by the mutex; readers only need the
// page table, which is published as an immutable copy-on-append
// snapshot behind an atomic pointer, so concurrent view calls (the
// parallel key-precompute workers' Ensure hits) never race with page
// allocation. Writing hash values into an allocated region is the
// owning goroutine's business. compact must not run concurrently with
// anything.
type sigArena struct {
	mu sync.Mutex
	// pages is the copy-on-append snapshot of the page table. Page
	// slices are append-only in count, immutable in size; only compact
	// drops pages.
	pages atomic.Pointer[[][]uint64]
	// used is the bump cursor into the last page (guarded by mu).
	used int
	// live is the words reserved by current regions, dead the words of
	// regions relocated since the last compaction (guarded by mu).
	live, dead int64
}

func newSigArena() *sigArena {
	a := &sigArena{}
	empty := make([][]uint64, 0)
	a.pages.Store(&empty)
	return a
}

// alloc reserves n words for a region that replaces one of old words
// (0 for a record's first region) and returns their (page, offset)
// location. The old region's words count as dead until compaction.
func (a *sigArena) alloc(n, old int) (page, off int32) {
	a.mu.Lock()
	pages := *a.pages.Load()
	if len(pages) == 0 || a.used+n > len(pages[len(pages)-1]) {
		size := arenaMinPage
		if len(pages) > 0 {
			size = min(2*len(pages[len(pages)-1]), arenaMaxPage)
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
	a.live += int64(n - old)
	a.dead += int64(old)
	a.mu.Unlock()
	return page, off
}

// view returns the n-word region at (page, off). The three-index slice
// keeps callers from appending into a neighboring region.
func (a *sigArena) view(page, off int32, n int) []uint64 {
	p := (*a.pages.Load())[page]
	return p[off : off+int32(n) : off+int32(n)]
}

// due reports whether the dead words have reached half the live ones,
// the point from which compact pays: it moves at most the live words
// and releases at least a third of the words allocated.
func (a *sigArena) due() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.dead > 0 && 2*a.dead >= a.live
}

// deadWords reports the words of regions relocated since the last
// compaction.
func (a *sigArena) deadWords() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.dead
}

// compact slides every live region (the refs with a reservation) down
// over the dead words in (page, offset) order, keeping its capacity and
// copying its n written words, and drops the pages past the write
// cursor. A region moves only to an earlier position: one that does not
// fit the rest of the cursor's page moves to the next page, at worst
// to its own page at or before its own offset. Views taken before are
// invalid afterwards.
func (a *sigArena) compact(refs []sigRef) {
	pages := *a.pages.Load()
	// Order the live regions by (page, offset): bucket them by page,
	// then sort each page's (offset, record) pairs.
	first := make([]int, len(pages)+1)
	for _, r := range refs {
		if r.cap > 0 {
			first[r.page+1]++
		}
	}
	for p := range pages {
		first[p+1] += first[p]
	}
	order := make([]uint64, first[len(pages)])
	next := slices.Clone(first[:len(pages)])
	for rec, r := range refs {
		if r.cap > 0 {
			order[next[r.page]] = uint64(r.off)<<32 | uint64(rec)
			next[r.page]++
		}
	}
	dp, doff := 0, 0
	for p := range pages {
		run := order[first[p]:first[p+1]]
		slices.Sort(run)
		for _, o := range run {
			r := &refs[uint32(o)]
			c := int(r.cap)
			for doff+c > len(pages[dp]) {
				dp, doff = dp+1, 0
			}
			if int32(dp) != r.page || int32(doff) != r.off {
				copy(pages[dp][doff:doff+int(r.n)], pages[r.page][r.off:r.off+r.n])
				r.page, r.off = int32(dp), int32(doff)
			}
			doff += c
		}
	}
	keep := 0
	if len(order) > 0 {
		keep = dp + 1
	}
	kept := slices.Clone(pages[:keep])
	a.mu.Lock()
	a.pages.Store(&kept)
	a.used = doff
	a.dead = 0
	a.mu.Unlock()
}
