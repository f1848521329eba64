package plan

import (
	"fmt"

	"hybridship/internal/catalog"
)

// Index lays a plan tree out over dense node slots. Build numbers the nodes
// in pre-order, so slot 0 is the root and every parent's slot precedes its
// children's. Child and parent links are slot numbers (-1 for none), so
// binding and costing walk slices instead of pointer-keyed maps.
//
// The optimizer rewires the tree in place with SetChildren, which keeps the
// Nodes' own pointers in step. A slot keeps its node across such rewiring,
// so whatever a caller resolved per slot (the scanned relation here, cost
// facts in package cost) stays valid for the rest of the search; only the
// pre-order (PreOrder) changes.
type Index struct {
	Nodes  []*Node
	Left   []int
	Right  []int
	Parent []int
	// Rels holds each scan's relation in the catalog Build was given: nil
	// for other kinds and for relations the catalog does not know.
	Rels []*catalog.Relation

	// Bind's scratch, and the reason the last Bind failed.
	ref   []int
	state []bindState
	chain []int
	fault bindFault
}

// Build indexes the tree under root in pre-order, reusing the Index's
// storage, and resolves every scan's relation in cat (which may be nil).
func (ix *Index) Build(root *Node, cat *catalog.Catalog) {
	if n := size(root); cap(ix.Nodes) < n {
		ix.Nodes, ix.Rels = make([]*Node, 0, n), make([]*catalog.Relation, 0, n)
		links := make([]int, 3*n)
		ix.Left, ix.Right, ix.Parent = links[:0:n], links[n:n:2*n], links[2*n:2*n:3*n]
	}
	ix.Nodes, ix.Left, ix.Right = ix.Nodes[:0], ix.Left[:0], ix.Right[:0]
	ix.Parent, ix.Rels = ix.Parent[:0], ix.Rels[:0]
	ix.add(root, -1, cat)
}

func size(n *Node) int {
	if n == nil {
		return 0
	}
	return 1 + size(n.Left) + size(n.Right)
}

func (ix *Index) add(n *Node, parent int, cat *catalog.Catalog) int {
	if n == nil {
		return -1
	}
	s := len(ix.Nodes)
	var rel *catalog.Relation
	if n.Kind == KindScan && cat != nil {
		rel, _ = cat.Relation(n.Table)
	}
	ix.Nodes = append(ix.Nodes, n)
	ix.Left = append(ix.Left, -1)
	ix.Right = append(ix.Right, -1)
	ix.Parent = append(ix.Parent, parent)
	ix.Rels = append(ix.Rels, rel)
	l := ix.add(n.Left, s, cat)
	r := ix.add(n.Right, s, cat)
	ix.Left[s], ix.Right[s] = l, r
	return s
}

// PreOrder returns the slots in the pre-order of the tree as currently
// linked, reusing buf. It equals 0, 1, 2, … until a relink moves a subtree.
func (ix *Index) PreOrder(buf []int) []int {
	return ix.preOrder(0, buf[:0])
}

func (ix *Index) preOrder(s int, buf []int) []int {
	if s < 0 || s >= len(ix.Nodes) {
		return buf
	}
	buf = append(buf, s)
	buf = ix.preOrder(ix.Left[s], buf)
	return ix.preOrder(ix.Right[s], buf)
}

// SetChildren makes slots l and r (-1 for none) the children of slot s, in
// both the links and the nodes' pointers.
func (ix *Index) SetChildren(s, l, r int) {
	ix.Left[s], ix.Right[s] = l, r
	n := ix.Nodes[s]
	n.Left, n.Right = nil, nil
	if l >= 0 {
		n.Left = ix.Nodes[l]
		ix.Parent[l] = s
	}
	if r >= 0 {
		n.Right = ix.Nodes[r]
		ix.Parent[r] = s
	}
}

type bindState uint8

const (
	bindPending bindState = iota
	bindVisiting
	bindDone
	bindFailed
)

type faultKind uint8

const (
	faultNone  faultKind = iota
	faultScan            // a scan that cannot be anchored
	faultAnn             // an operator with an annotation its kind lacks
	faultCycle           // operators whose references never reach an anchor
)

// bindFault records why the last Bind failed: the first offending slot in
// slot order, or the number of operators caught in annotation cycles.
type bindFault struct {
	kind  faultKind
	slot  int
	cycle int
}

// Bind resolves the site of every slot into sites, reusing its backing
// array, and reports whether the plan is well formed (§2.1, §2.2.3).
//
// Display and scan operators are anchors: the display and client scans run
// at submitSite, primary-copy scans at the server holding the copy they
// name. Every other operator refers to one neighbour by its annotation
// (inner: left child; outer: right child; producer: its child; consumer:
// its parent) and takes that neighbour's site. A plan whose references form
// a cycle, e.g. a consumer whose child is annotated producer, cannot be
// resolved and is ill-formed.
//
// Bind itself allocates nothing, so the optimizer can sort out ill-formed
// candidates cheaply; the package-level Bind turns a failure into an error.
func (ix *Index) Bind(submitSite catalog.SiteID, sites []catalog.SiteID) ([]catalog.SiteID, bool) {
	n := len(ix.Nodes)
	sites = resize(sites, n)
	ix.ref, ix.state = resize(ix.ref, n), resize(ix.state, n)
	ix.fault = bindFault{slot: -1}
	var ann bindFault
	for s, nd := range ix.Nodes {
		ix.state[s] = bindDone
		switch nd.Kind {
		case KindDisplay:
			sites[s] = submitSite
			continue
		case KindScan:
			rel := ix.Rels[s]
			switch {
			case nd.Ann == AnnClient:
				sites[s] = submitSite
			case nd.Ann == AnnPrimary && rel != nil && nd.Copy < rel.NumCopies():
				// Copy 0 is the primary at Home; higher indices bind the
				// scan to a secondary replica of the relation.
				sites[s] = rel.CopySite(nd.Copy)
			default:
				if ix.fault.kind == faultNone {
					ix.fault = bindFault{kind: faultScan, slot: s}
				}
			}
			continue
		}
		ref, ok := ix.refSlot(s)
		if !ok && ann.kind == faultNone {
			ann = bindFault{kind: faultAnn, slot: s}
		}
		ix.ref[s], ix.state[s] = ref, bindPending
	}
	if ix.fault.kind == faultNone {
		ix.fault = ann
	}
	if ix.fault.kind != faultNone {
		return sites, false
	}
	cycle := 0
	for s := range ix.state {
		if ix.state[s] == bindPending {
			cycle += ix.resolve(s, sites)
		}
	}
	if cycle > 0 {
		ix.fault = bindFault{kind: faultCycle, cycle: cycle}
		return sites, false
	}
	return sites, true
}

// refSlot returns the slot whose site an unanchored operator takes, or -1
// when it has none (a consumer at the root); ok is false when the
// annotation is not one the operator's kind can carry.
func (ix *Index) refSlot(s int) (int, bool) {
	n := ix.Nodes[s]
	switch {
	case n.Kind == KindJoin && n.Ann == AnnInner:
		return ix.Left[s], true
	case n.Kind == KindJoin && n.Ann == AnnOuter:
		return ix.Right[s], true
	case (n.Kind == KindSelect || n.Kind == KindAgg) && n.Ann == AnnProducer:
		return ix.Left[s], true
	case (n.Kind == KindJoin || n.Kind == KindSelect || n.Kind == KindAgg) && n.Ann == AnnConsumer:
		return ix.Parent[s], true
	}
	return -1, false
}

// resolve follows the reference chain from pending slot s until it reaches
// a bound slot, which binds the whole chain, or a dead end or a cycle,
// which fails it. It returns how many slots failed.
func (ix *Index) resolve(s int, sites []catalog.SiteID) int {
	chain := ix.chain[:0]
	t := s
	for t >= 0 && ix.state[t] == bindPending {
		ix.state[t] = bindVisiting
		chain = append(chain, t)
		t = ix.ref[t]
	}
	ix.chain = chain
	if t >= 0 && ix.state[t] == bindDone {
		for _, c := range chain {
			sites[c], ix.state[c] = sites[t], bindDone
		}
		return 0
	}
	for _, c := range chain {
		ix.state[c] = bindFailed
	}
	return len(chain)
}

// bindError describes why the last Bind failed.
func (ix *Index) bindError() error {
	f := ix.fault
	switch f.kind {
	case faultScan:
		n, rel := ix.Nodes[f.slot], ix.Rels[f.slot]
		switch {
		case rel == nil:
			return fmt.Errorf("plan: scan of unknown relation %q", n.Table)
		case n.Ann == AnnPrimary:
			return fmt.Errorf("plan: scan of %q names copy %d, but the relation has %d", n.Table, n.Copy, rel.NumCopies())
		}
		return fmt.Errorf("plan: scan of %q has invalid annotation %v", n.Table, n.Ann)
	case faultAnn:
		n := ix.Nodes[f.slot]
		return fmt.Errorf("plan: %v has invalid annotation %v", n.Kind, n.Ann)
	case faultCycle:
		return fmt.Errorf("plan: ill-formed: %d operator(s) form an annotation cycle", f.cycle)
	}
	return nil
}

// resize returns buf with length n, reusing its backing array when it can.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}
