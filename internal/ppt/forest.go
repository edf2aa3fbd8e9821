// Package ppt implements the two data structures of the paper's
// Appendix B: the parent-pointer tree forest used by the transitive
// hashing functions and the pairwise computation function to maintain
// clusters as they merge, and the logarithmic bin array used to find
// the largest cluster in each round of Algorithm 1.
//
// A forest starts with n potential leaves (one per record of the input
// set); each cluster is a tree whose leaves are its records, chained
// left-to-right so the cluster's records can be enumerated without
// touching internal nodes. Each node stores its leaf count, and each
// root points at its first and last leaf (Figure 18).
package ppt

import "fmt"

const nilNode = int32(-1)

// node is one tree node. Leaves occupy ids [0, numLeaves); internal
// nodes are allocated past them.
type node struct {
	parent int32
	leaves int32
	// first/last are maintained for roots: the leftmost and rightmost
	// leaves of the tree (Figure 18's first/last pointers).
	first, last int32
	// next links a leaf to the first leaf on its right within its tree.
	next int32
}

// Forest is a collection of parent-pointer trees over a fixed universe
// of leaves. The zero value is not usable; call NewForest.
//
// Concurrency contract: a Forest must only ever be touched by one
// goroutine at a time — in the parallel hash stage, that is the
// dispatcher that applies each table's merge-edge list (internal/core's
// insertRound). Note that even logically read-only operations mutate
// the structure: Root performs path halving, so SameTree, Roots and any
// lookup rewrite parent pointers. The parallel pipeline therefore keeps
// its table workers away from the forest entirely; they emit edge lists
// over record indices, and all MakeTree/Merge/Root calls happen on the
// dispatcher after the workers are joined.
// TestHashShardedInsertionRace exercises this under -race.
type Forest struct {
	nodes     []node
	numLeaves int
}

// NewForest creates a forest over n potential leaves, none of which
// belongs to a tree yet (Appendix B: "when function H_i is invoked...
// none of the input records belongs to a tree").
func NewForest(n int) *Forest {
	f := &Forest{numLeaves: n}
	f.nodes = make([]node, n, n+n/2+1)
	for i := range f.nodes {
		f.nodes[i] = node{parent: nilNode, first: nilNode, last: nilNode, next: nilNode}
	}
	return f
}

// NumLeaves reports the size of the leaf universe.
func (f *Forest) NumLeaves() int { return f.numLeaves }

// InTree reports whether leaf has been assigned to a tree.
func (f *Forest) InTree(leaf int) bool {
	return f.nodes[leaf].leaves > 0
}

// MakeTree creates a singleton tree containing only leaf (Figure 19a,
// case 1). It panics if the leaf is already in a tree.
func (f *Forest) MakeTree(leaf int) int32 {
	n := &f.nodes[leaf]
	if n.leaves > 0 {
		panic(fmt.Sprintf("ppt: leaf %d is already in a tree", leaf))
	}
	n.leaves = 1
	n.first = int32(leaf)
	n.last = int32(leaf)
	return int32(leaf)
}

// Root returns the root of the tree containing leaf (or any node id).
// It applies path compression on the way up, which shortens future
// lookups without disturbing leaf counts or leaf chains.
func (f *Forest) Root(id int) int32 {
	x := int32(id)
	for f.nodes[x].parent != nilNode {
		p := f.nodes[x].parent
		if gp := f.nodes[p].parent; gp != nilNode {
			f.nodes[x].parent = gp // path halving
		}
		x = p
	}
	return x
}

// SameTree reports whether two leaves are in the same tree. Both must
// already be in trees.
func (f *Forest) SameTree(a, b int) bool {
	return f.Root(a) == f.Root(b)
}

// Merge joins the trees rooted at ra and rb under a fresh root node
// (Figure 19c) and returns the new root. The leaf chains are spliced:
// rb's first leaf follows ra's last leaf. It panics if ra == rb.
func (f *Forest) Merge(ra, rb int32) int32 {
	if ra == rb {
		panic("ppt: merging a tree with itself")
	}
	a, b := &f.nodes[ra], &f.nodes[rb]
	f.nodes = append(f.nodes, node{
		parent: nilNode,
		leaves: a.leaves + b.leaves,
		first:  a.first,
		last:   b.last,
		next:   nilNode,
	})
	nr := int32(len(f.nodes) - 1)
	// Re-take the pointers: append may have moved the backing array.
	a, b = &f.nodes[ra], &f.nodes[rb]
	a.parent = nr
	b.parent = nr
	f.nodes[a.last].next = b.first
	return nr
}

// LeafCount reports the number of leaves under root.
func (f *Forest) LeafCount(root int32) int {
	return int(f.nodes[root].leaves)
}

// Leaves appends the leaves of the tree rooted at root to dst (walking
// the first-leaf chain) and returns the extended slice.
func (f *Forest) Leaves(dst []int32, root int32) []int32 {
	for l := f.nodes[root].first; l != nilNode; l = f.nodes[l].next {
		dst = append(dst, l)
	}
	return dst
}

// Roots returns the roots of all trees that contain at least one leaf,
// in first-leaf order (deterministic).
func (f *Forest) Roots() []int32 {
	seen := make(map[int32]bool)
	var roots []int32
	for leaf := 0; leaf < f.numLeaves; leaf++ {
		if !f.InTree(leaf) {
			continue
		}
		r := f.Root(leaf)
		if !seen[r] {
			seen[r] = true
			roots = append(roots, r)
		}
	}
	return roots
}
