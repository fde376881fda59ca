package jindex

import "sync"

// llrb is a left-leaning red-black tree over composite KVs ordered by
// offset. It is the index's first level: insert-optimized, at the price of
// two child pointers and a color bit per entry — the storage overhead the
// paper's second-level sorted array exists to avoid.
//
// The tree never holds intersecting keys; callers erase intersections
// before inserting, so ordering by Off() is total.
type llrb struct {
	root *llrbNode
	n    int
}

type llrbNode struct {
	kv          KV
	left, right *llrbNode
	red         bool
}

// nodePool recycles tree nodes: every journaled write inserts (and erased
// intersections delete) nodes, and each freeze discards a whole tree — the
// dominant steady-state allocation of the index before pooling. Recycling
// is safe because all structural mutation runs under the index write lock,
// so no reader can hold a node once it is freed.
var nodePool = sync.Pool{New: func() any { return new(llrbNode) }}

func newNode(kv KV) *llrbNode {
	n := nodePool.Get().(*llrbNode)
	n.kv = kv
	n.left, n.right = nil, nil
	n.red = true
	return n
}

func freeNode(n *llrbNode) {
	n.left, n.right = nil, nil
	nodePool.Put(n)
}

// releaseNodes returns the whole tree's nodes to the pool (freeze and
// Clear, after the keys have been copied out). Caller holds the index
// write lock and resets the tree afterwards.
func (t *llrb) releaseNodes() {
	releaseSubtree(t.root)
	t.root = nil
}

func releaseSubtree(h *llrbNode) {
	if h == nil {
		return
	}
	releaseSubtree(h.left)
	releaseSubtree(h.right)
	freeNode(h)
}

// llrbIter walks a tree in offset order starting from the first key whose
// End() > off, without allocating: the explicit stack replaces scanFrom's
// escaping closures on the query hot path. The stack bound follows from
// the red-black height bound 2·log2(n+1) with n ≤ MaxOff (2^17) entries.
type llrbIter struct {
	off   uint32
	top   int
	stack [48]*llrbNode
}

func (it *llrbIter) init(root *llrbNode, off uint32) {
	it.off = off
	it.top = 0
	it.descend(root)
}

// descend pushes h's leftmost qualifying path, applying scanNode's prune
// rule: a node (and its whole left subtree) ending at or before off cannot
// qualify, so descent continues right.
func (it *llrbIter) descend(h *llrbNode) {
	for h != nil {
		if h.kv.End() <= it.off {
			h = h.right
			continue
		}
		it.stack[it.top] = h
		it.top++
		h = h.left
	}
}

func (it *llrbIter) next() (KV, bool) {
	if it.top == 0 {
		return 0, false
	}
	it.top--
	h := it.stack[it.top]
	it.descend(h.right)
	return h.kv, true
}

func isRed(n *llrbNode) bool { return n != nil && n.red }

func rotateLeft(h *llrbNode) *llrbNode {
	x := h.right
	h.right = x.left
	x.left = h
	x.red = h.red
	h.red = true
	return x
}

func rotateRight(h *llrbNode) *llrbNode {
	x := h.left
	h.left = x.right
	x.right = h
	x.red = h.red
	h.red = true
	return x
}

func flipColors(h *llrbNode) {
	h.red = !h.red
	h.left.red = !h.left.red
	h.right.red = !h.right.red
}

func fixUp(h *llrbNode) *llrbNode {
	if isRed(h.right) && !isRed(h.left) {
		h = rotateLeft(h)
	}
	if isRed(h.left) && isRed(h.left.left) {
		h = rotateRight(h)
	}
	if isRed(h.left) && isRed(h.right) {
		flipColors(h)
	}
	return h
}

// insert adds kv; if a key with the same offset exists it is replaced.
func (t *llrb) insert(kv KV) {
	var added bool
	t.root, added = insertNode(t.root, kv)
	t.root.red = false
	if added {
		t.n++
	}
}

func insertNode(h *llrbNode, kv KV) (*llrbNode, bool) {
	if h == nil {
		return newNode(kv), true
	}
	var added bool
	switch {
	case kv.Off() < h.kv.Off():
		h.left, added = insertNode(h.left, kv)
	case kv.Off() > h.kv.Off():
		h.right, added = insertNode(h.right, kv)
	default:
		h.kv = kv
	}
	return fixUp(h), added
}

// delete removes the key with exactly offset off, if present.
func (t *llrb) delete(off uint32) {
	if t.root == nil || !t.contains(off) {
		return
	}
	t.root = deleteNode(t.root, off)
	if t.root != nil {
		t.root.red = false
	}
	t.n--
}

func (t *llrb) contains(off uint32) bool {
	n := t.root
	for n != nil {
		switch {
		case off < n.kv.Off():
			n = n.left
		case off > n.kv.Off():
			n = n.right
		default:
			return true
		}
	}
	return false
}

func moveRedLeft(h *llrbNode) *llrbNode {
	flipColors(h)
	if isRed(h.right.left) {
		h.right = rotateRight(h.right)
		h = rotateLeft(h)
		flipColors(h)
	}
	return h
}

func moveRedRight(h *llrbNode) *llrbNode {
	flipColors(h)
	if isRed(h.left.left) {
		h = rotateRight(h)
		flipColors(h)
	}
	return h
}

func minNode(h *llrbNode) *llrbNode {
	for h.left != nil {
		h = h.left
	}
	return h
}

func deleteMin(h *llrbNode) *llrbNode {
	if h.left == nil {
		// In an LLRB a node without a left child is a leaf (a lone right
		// child would break the left-leaning invariant), so h is dropped
		// whole and can be recycled.
		freeNode(h)
		return nil
	}
	if !isRed(h.left) && !isRed(h.left.left) {
		h = moveRedLeft(h)
	}
	h.left = deleteMin(h.left)
	return fixUp(h)
}

func deleteNode(h *llrbNode, off uint32) *llrbNode {
	if off < h.kv.Off() {
		if !isRed(h.left) && !isRed(h.left.left) {
			h = moveRedLeft(h)
		}
		h.left = deleteNode(h.left, off)
	} else {
		if isRed(h.left) {
			h = rotateRight(h)
		}
		if off == h.kv.Off() && h.right == nil {
			freeNode(h)
			return nil
		}
		if !isRed(h.right) && !isRed(h.right.left) {
			h = moveRedRight(h)
		}
		if off == h.kv.Off() {
			m := minNode(h.right)
			h.kv = m.kv
			h.right = deleteMin(h.right)
		} else {
			h.right = deleteNode(h.right, off)
		}
	}
	return fixUp(h)
}

// scanFrom visits, in offset order, every key whose End() > off, until fn
// returns false. Because keys never intersect, End order equals Off order
// and the qualifying keys form a suffix of the in-order sequence.
func (t *llrb) scanFrom(off uint32, fn func(KV) bool) {
	scanNode(t.root, off, fn)
}

func scanNode(h *llrbNode, off uint32, fn func(KV) bool) bool {
	if h == nil {
		return true
	}
	if h.kv.End() <= off {
		// This key and its whole left subtree end too early.
		return scanNode(h.right, off, fn)
	}
	if !scanNode(h.left, off, fn) {
		return false
	}
	if !fn(h.kv) {
		return false
	}
	return scanNode(h.right, off, fn)
}

// toSliceInto appends all keys in offset order to dst (freeze path: dst is
// the index's recycled snapshot scratch).
func (t *llrb) toSliceInto(dst []KV) []KV {
	t.scanFrom(0, func(kv KV) bool {
		dst = append(dst, kv)
		return true
	})
	return dst
}

// toSlice returns all keys in offset order.
func (t *llrb) toSlice() []KV {
	return t.toSliceInto(make([]KV, 0, t.n))
}

// len returns the number of keys.
func (t *llrb) len() int { return t.n }

// checkInvariants validates red-black properties; tests call it.
func (t *llrb) checkInvariants() error {
	if isRed(t.root) {
		return errRootRed
	}
	_, err := checkNode(t.root)
	return err
}

var (
	errRootRed   = errString("llrb: red root")
	errRedRight  = errString("llrb: right-leaning red link")
	errRedRed    = errString("llrb: consecutive red links")
	errBlackHt   = errString("llrb: unequal black height")
	errUnordered = errString("llrb: keys out of order")
)

type errString string

func (e errString) Error() string { return string(e) }

func checkNode(h *llrbNode) (blackHeight int, err error) {
	if h == nil {
		return 1, nil
	}
	if isRed(h.right) {
		return 0, errRedRight
	}
	if isRed(h) && isRed(h.left) {
		return 0, errRedRed
	}
	if h.left != nil && h.left.kv.Off() >= h.kv.Off() {
		return 0, errUnordered
	}
	if h.right != nil && h.right.kv.Off() <= h.kv.Off() {
		return 0, errUnordered
	}
	lh, err := checkNode(h.left)
	if err != nil {
		return 0, err
	}
	rh, err := checkNode(h.right)
	if err != nil {
		return 0, err
	}
	if lh != rh {
		return 0, errBlackHt
	}
	if !isRed(h) {
		lh++
	}
	return lh, nil
}
