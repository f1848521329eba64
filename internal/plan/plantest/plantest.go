// Package plantest decodes byte streams into arbitrary annotated plan trees.
// It backs FuzzPlanWellFormed and the cost model's golden table, so both
// draw plans from one generator.
package plantest

import "hybridship/internal/plan"

// Builder decodes Data into an operator tree, including structurally broken
// ones (missing children, display below the root, out-of-range kinds and
// annotations): well-formedness checkers must reject those gracefully
// rather than panic. Tables names the relations scans draw from; the first
// one is the relation every select filters.
type Builder struct {
	Data   []byte
	Tables []string
	pos    int
}

func (b *Builder) next() byte {
	if b.pos >= len(b.Data) {
		return 0
	}
	c := b.Data[b.pos]
	b.pos++
	return c
}

// Build decodes one subtree of at most depth levels below its root.
func (b *Builder) Build(depth int) *plan.Node {
	op := b.next()
	if depth <= 0 {
		op %= 3 // force a leaf (or nil) once deep
	}
	newNode := func(k plan.Kind, left, right *plan.Node) *plan.Node {
		n := &plan.Node{Kind: k, Left: left, Right: right}
		// Valid annotation most of the time, arbitrary (possibly
		// out-of-range) otherwise.
		a := b.next()
		if a&0x80 != 0 {
			n.Ann = plan.Annotation(int8(a))
		} else {
			n.Ann = plan.Annotation(a % 6)
		}
		return n
	}
	switch op % 8 {
	case 0:
		return nil
	case 1:
		// A scan of a known relation, an unknown one or none at all.
		n := newNode(plan.KindScan, nil, nil)
		pick := int(b.next()) % (len(b.Tables) + 2)
		switch {
		case pick < len(b.Tables):
			n.Table = b.Tables[pick]
		case pick == len(b.Tables):
			n.Table = "Z"
		}
		return n
	case 2:
		return plan.NewScan(b.Tables[int(b.next())%len(b.Tables)])
	case 3:
		return newNode(plan.KindJoin, b.Build(depth-1), b.Build(depth-1))
	case 4:
		n := newNode(plan.KindSelect, b.Build(depth-1), nil)
		n.Rel = b.Tables[0]
		return n
	case 5:
		return newNode(plan.KindAgg, b.Build(depth-1), nil)
	case 6:
		// Display in an arbitrary position (only legal at the root).
		return newNode(plan.KindDisplay, b.Build(depth-1), nil)
	default:
		// Out-of-range kind: checkers must reject, not panic.
		return newNode(plan.Kind(int8(b.next())), b.Build(depth-1), nil)
	}
}
