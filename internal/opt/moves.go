package opt

import (
	"hybridship/internal/catalog"
	"hybridship/internal/plan"
	"hybridship/internal/query"
)

// moveKind enumerates the plan transformations of §3.1.1.
type moveKind int

const (
	// Join ordering (moves 1-4 of the paper).
	mvAssocLeftToRight moveKind = iota // (A⋈B)⋈C → A⋈(B⋈C)
	mvExchangeLeft                     // (A⋈B)⋈C → B⋈(A⋈C)
	mvAssocRightToLeft                 // A⋈(B⋈C) → (A⋈B)⋈C
	mvExchangeRight                    // A⋈(B⋈C) → (A⋈C)⋈B
	mvCommute                          // A⋈B → B⋈A (IK90; optional)
	mvSwapAdjacent                     // (X⋈A)⋈B → (X⋈B)⋈A; left-deep mode only
	// Site selection (moves 5-7 of the paper).
	mvJoinAnn   // change a join's annotation
	mvSelectAnn // toggle a select between consumer and producer
	mvScanAnn   // toggle a scan between client and primary copy
	// Replica rebinding (beyond the paper; DESIGN.md §14).
	mvScanCopy // point a scan at another replica of its relation
)

// move is one candidate transformation: a node (identified by its slot in
// the search's plan.Index) plus a kind and, for annotation moves, a slot
// selecting the target among the policy's allowed annotations for that
// node, skipping the node's current one. Slot-based targets keep the
// move list a function of the tree's *shape* only (the number of allowed
// annotations depends on kind and policy, never on the current annotation),
// so the enumeration can be cached across annotation-only moves.
type move struct {
	nodeIdx int
	kind    moveKind
	slot    int
}

// scanMasks returns, per slot of ix, the query bitmask of the relation a
// scan reads and 0 for every other node, reusing buf.
func scanMasks(q *query.Query, ix *plan.Index, buf []uint64) []uint64 {
	masks := buf[:0]
	for _, n := range ix.Nodes {
		var m uint64
		if n.Kind == plan.KindScan {
			m = q.RelMask(n.Table)
		}
		masks = append(masks, m)
	}
	return masks
}

// subtreeMasks sets every non-scan slot's mask to the union of its
// children's, so each slot holds the base relations scanned under it.
// Walking the pre-order backwards sees every child before its parent.
func subtreeMasks(ix *plan.Index, order []int, masks []uint64) {
	for j := len(order) - 1; j >= 0; j-- {
		s := order[j]
		if ix.Nodes[s].Kind == plan.KindScan {
			continue
		}
		masks[s] = 0
		if l := ix.Left[s]; l >= 0 {
			masks[s] |= masks[l]
		}
		if r := ix.Right[s]; r >= 0 {
			masks[s] |= masks[r]
		}
	}
}

// candidateMoves enumerates every legal move on the indexed plan under the
// policy, visiting slots in the given pre-order and appending into buf.
// Join-order moves are offered only when the resulting joins avoid
// Cartesian products (masks holds each slot's subtree relations);
// annotation moves are offered only for annotations the policy allows
// (Table 1) — which is how the optimizer is "configured to generate plans
// from one of the three policies" (§3.1.1).
// Copy moves exist only for replicated relations under policies that permit
// server-side scans, so an unreplicated catalog enumerates exactly the
// legacy move list. The result depends only on the tree's shape (plus the
// fixed policy and catalog), so callers cache it until a join-order move is
// accepted.
func candidateMoves(q *query.Query, opts Options, ix *plan.Index, order []int, masks []uint64, buf []move) []move {
	moves := buf[:0]
	for _, i := range order {
		switch n := ix.Nodes[i]; n.Kind {
		case plan.KindJoin:
			a, b := ix.Left[i], ix.Right[i]
			aJoin, bJoin := ix.Nodes[a].Kind == plan.KindJoin, ix.Nodes[b].Kind == plan.KindJoin
			if !opts.FixedJoinOrder && opts.LeftDeepOnly {
				// Moves closed over the left-deep space: swap the outer with
				// the adjacent lower outer, and commute the bottom join.
				// Both are compositions of the paper's moves 1-4 (e.g.
				// (X⋈A)⋈B → X⋈(A⋈B) → (X⋈B)⋈A).
				if aJoin {
					tx, ta, tb := masks[ix.Left[a]], masks[ix.Right[a]], masks[b]
					if q.ConnectedMask(tx, tb) && q.ConnectedMask(tx|tb, ta) {
						moves = append(moves, move{i, mvSwapAdjacent, 0})
					}
				}
				if opts.Commutativity && !aJoin {
					moves = append(moves, move{i, mvCommute, 0})
				}
			}
			if !opts.FixedJoinOrder && !opts.LeftDeepOnly {
				if aJoin {
					// (A⋈B)⋈C with A=a.Left, B=a.Right, C=b
					ta, tb, tc := masks[ix.Left[a]], masks[ix.Right[a]], masks[b]
					if q.ConnectedMask(tb, tc) && q.ConnectedMask(ta, tb|tc) {
						moves = append(moves, move{i, mvAssocLeftToRight, 0})
					}
					if q.ConnectedMask(ta, tc) && q.ConnectedMask(tb, ta|tc) {
						moves = append(moves, move{i, mvExchangeLeft, 0})
					}
				}
				if bJoin {
					// A⋈(B⋈C) with A=a, B=b.Left, C=b.Right
					ta, tb, tc := masks[a], masks[ix.Left[b]], masks[ix.Right[b]]
					if q.ConnectedMask(ta, tb) && q.ConnectedMask(ta|tb, tc) {
						moves = append(moves, move{i, mvAssocRightToLeft, 0})
					}
					if q.ConnectedMask(ta, tc) && q.ConnectedMask(ta|tc, tb) {
						moves = append(moves, move{i, mvExchangeRight, 0})
					}
				}
				if opts.Commutativity {
					moves = append(moves, move{i, mvCommute, 0})
				}
			}
			moves = appendAnnMoves(moves, i, mvJoinAnn, plan.KindJoin, opts.Policy)
		case plan.KindSelect, plan.KindAgg:
			moves = appendAnnMoves(moves, i, mvSelectAnn, n.Kind, opts.Policy)
		case plan.KindScan:
			moves = appendAnnMoves(moves, i, mvScanAnn, plan.KindScan, opts.Policy)
			moves = appendCopyMoves(moves, i, ix.Rels[i], opts.Policy)
		}
	}
	return moves
}

// appendAnnMoves adds one slot per alternative annotation: a node with m
// allowed annotations always has exactly m-1 targets other than its current
// one, whatever that current one is.
func appendAnnMoves(moves []move, i int, kind moveKind, k plan.Kind, p plan.Policy) []move {
	for s := 0; s < len(plan.AllowedAnnotations(k, p))-1; s++ {
		moves = append(moves, move{i, kind, s})
	}
	return moves
}

// appendCopyMoves adds one slot per alternative replica of a scan's
// relation. Like annotation moves the targets are slot-based (a relation
// with m copies always has m-1 alternatives), and they are offered only
// under policies that can place the scan at a server at all.
func appendCopyMoves(moves []move, i int, rel *catalog.Relation, p plan.Policy) []move {
	if p == plan.DataShipping || rel == nil {
		return moves
	}
	for s := 0; s < rel.NumCopies()-1; s++ {
		moves = append(moves, move{i, mvScanCopy, s})
	}
	return moves
}

// targetCopy resolves a slot-based copy move: the slot-th copy index of the
// scan's relation, skipping the scan's current one.
func targetCopy(n *plan.Node, numCopies, slot int) int {
	for c := 0; c < numCopies; c++ {
		if c == n.Copy {
			continue
		}
		if slot == 0 {
			return c
		}
		slot--
	}
	return n.Copy // unreachable for a legal move
}

// targetAnn resolves a slot-based annotation move: the slot-th allowed
// annotation for the node, skipping the node's current one.
func targetAnn(n *plan.Node, p plan.Policy, slot int) plan.Annotation {
	for _, ann := range plan.AllowedAnnotations(n.Kind, p) {
		if ann == n.Ann {
			continue
		}
		if slot == 0 {
			return ann
		}
		slot--
	}
	return n.Ann // unreachable for a legal move
}

// undoRec restores the (at most two) slots a move rewires, so the search
// can try a candidate in place and revert it without cloning the tree.
type undoRec struct {
	ix            *plan.Index
	n, k          int // k is -1 unless the move relinked a second join
	nLeft, nRight int
	kLeft, kRight int
	nAnn, kAnn    plan.Annotation
	nCopy         int
}

// revert undoes the move recorded by applyMove.
func (u *undoRec) revert() {
	if u.ix == nil {
		return
	}
	if u.k >= 0 {
		u.ix.SetChildren(u.k, u.kLeft, u.kRight)
		u.ix.Nodes[u.k].Ann = u.kAnn
	}
	u.ix.SetChildren(u.n, u.nLeft, u.nRight)
	n := u.ix.Nodes[u.n]
	n.Ann, n.Copy = u.nAnn, u.nCopy
}

// applyMove mutates the indexed plan in place (links and node pointers
// alike), records the revert state in u, and reports whether the move
// changed the tree's shape (invalidating the pre-order, the subtree masks
// and the cached move list). Neighbors may be ill-formed (annotation cycles); callers must
// validate via binding, per §2.2.3 ("it is very easy to sort out
// ill-formed plans during query optimization").
func applyMove(ix *plan.Index, mv move, p plan.Policy, u *undoRec) bool {
	i := mv.nodeIdx
	n := ix.Nodes[i]
	*u = undoRec{ix: ix, n: i, k: -1, nLeft: ix.Left[i], nRight: ix.Right[i], nAnn: n.Ann, nCopy: n.Copy}
	saveChild := func(k int) {
		u.k, u.kLeft, u.kRight, u.kAnn = k, ix.Left[k], ix.Right[k], ix.Nodes[k].Ann
	}
	switch mv.kind {
	case mvAssocLeftToRight:
		// (A⋈B)⋈C → A⋈(B⋈C); the lower join node is reused for B⋈C.
		k := ix.Left[i]
		saveChild(k)
		a, b, c := ix.Left[k], ix.Right[k], ix.Right[i]
		ix.SetChildren(k, b, c)
		ix.SetChildren(i, a, k)
	case mvExchangeLeft:
		// (A⋈B)⋈C → B⋈(A⋈C)
		k := ix.Left[i]
		saveChild(k)
		a, b, c := ix.Left[k], ix.Right[k], ix.Right[i]
		ix.SetChildren(k, a, c)
		ix.SetChildren(i, b, k)
	case mvAssocRightToLeft:
		// A⋈(B⋈C) → (A⋈B)⋈C
		k := ix.Right[i]
		saveChild(k)
		a, b, c := ix.Left[i], ix.Left[k], ix.Right[k]
		ix.SetChildren(k, a, b)
		ix.SetChildren(i, k, c)
	case mvExchangeRight:
		// A⋈(B⋈C) → (A⋈C)⋈B
		k := ix.Right[i]
		saveChild(k)
		a, b, c := ix.Left[i], ix.Left[k], ix.Right[k]
		ix.SetChildren(k, a, c)
		ix.SetChildren(i, k, b)
	case mvSwapAdjacent:
		// (X⋈A)⋈B → (X⋈B)⋈A
		k := ix.Left[i]
		saveChild(k)
		x, a, b := ix.Left[k], ix.Right[k], ix.Right[i]
		ix.SetChildren(k, x, b)
		ix.SetChildren(i, k, a)
	case mvCommute:
		ix.SetChildren(i, ix.Right[i], ix.Left[i])
		// Inner/outer annotations follow their operands across the swap so
		// the commute is a pure build/probe-side change, not a site change.
		switch n.Ann {
		case plan.AnnInner:
			n.Ann = plan.AnnOuter
		case plan.AnnOuter:
			n.Ann = plan.AnnInner
		}
	case mvJoinAnn, mvSelectAnn, mvScanAnn:
		n.Ann = targetAnn(n, p, mv.slot)
		return false
	case mvScanCopy:
		n.Copy = targetCopy(n, ix.Rels[i].NumCopies(), mv.slot)
		return false
	}
	return true
}
