package plan

import "hybridship/internal/catalog"

// Binding maps plan nodes to the physical sites where they will execute.
type Binding map[*Node]catalog.SiteID

// Bind resolves the logical annotations of a plan to physical sites, given a
// catalog (for primary-copy locations) and the site submitting the query
// (§2.1: "At runtime, the logical annotations are bound to actual sites").
// Index.Bind states the rules; a plan whose annotations form a cycle is
// rejected as ill-formed (§2.2.3).
func Bind(root *Node, cat *catalog.Catalog, submitSite catalog.SiteID) (Binding, error) {
	var bd Binder
	return bd.Bind(root, cat, submitSite)
}

// Binder is the map-returning form of Index.Bind for callers that bind
// one plan at a time, reusing its index and map across calls. The Binding
// returned by Bind aliases the Binder's storage and is valid only until the
// next Bind call; callers that need a persistent Binding must copy it (or
// use the package-level Bind).
type Binder struct {
	ix    Index
	sites []catalog.SiteID
	b     Binding
}

// Bind is the reusable-buffer form of the package-level Bind.
func (bd *Binder) Bind(root *Node, cat *catalog.Catalog, submitSite catalog.SiteID) (Binding, error) {
	if err := CheckStructure(root); err != nil {
		return nil, err
	}
	bd.ix.Build(root, cat)
	sites, ok := bd.ix.Bind(submitSite, bd.sites)
	bd.sites = sites
	if !ok {
		return nil, bd.ix.bindError()
	}
	if bd.b == nil {
		bd.b = make(Binding, len(sites))
	} else {
		clear(bd.b)
	}
	for s, n := range bd.ix.Nodes {
		bd.b[n] = sites[s]
	}
	return bd.b, nil
}

// WellFormed reports whether the plan's annotations can be bound to sites.
func WellFormed(root *Node, cat *catalog.Catalog, submitSite catalog.SiteID) bool {
	_, err := Bind(root, cat, submitSite)
	return err == nil
}
