package plan_test

import (
	"bytes"
	"testing"

	"hybridship/internal/catalog"
	"hybridship/internal/plan"
	"hybridship/internal/plan/plantest"
)

// fuzzCatalog is a small schema with two homed relations; "Z" stays
// deliberately unknown so scans of missing relations are exercised.
func fuzzCatalog() *catalog.Catalog {
	cat := catalog.New(4096, 2)
	for _, r := range []catalog.Relation{
		{Name: "A", Tuples: 10000, TupleBytes: 100, Home: 0},
		{Name: "B", Tuples: 1000, TupleBytes: 100, Home: 1},
	} {
		if err := cat.AddRelation(r); err != nil {
			panic(err)
		}
	}
	return cat
}

// FuzzPlanWellFormed feeds random annotated trees through the plan
// validators and the binder. Invariants: nothing panics on any input, a
// plan the checkers accept binds successfully with every node bound, and
// an accepted plan survives a Marshal/Unmarshal round trip bit for bit.
func FuzzPlanWellFormed(f *testing.F) {
	f.Add([]byte{6, 0, 3, 1, 2, 0, 1, 1, 2, 1})                   // display(join(scan,scan))
	f.Add([]byte{6, 0, 4, 2, 0, 1})                               // display(select(scan))
	f.Add([]byte{3, 2, 6, 0, 1, 0, 2})                            // display below root
	f.Add([]byte{7, 99, 1, 2, 3})                                 // bogus kind
	f.Add([]byte{0})                                              // nil plan
	f.Add(bytes.Repeat([]byte{3, 1}, 64))                         // deep join spine
	f.Add([]byte{6, 0, 5, 3, 0, 2, 0, 2, 1, 0xff, 0xfe, 0x81, 1}) // weird annotations

	cat := fuzzCatalog()
	f.Fuzz(func(t *testing.T, data []byte) {
		tb := &plantest.Builder{Data: data, Tables: []string{"A", "B"}}
		root := tb.Build(12)

		// None of the checkers may panic, whatever the tree looks like.
		structErr := plan.CheckStructure(root)
		for p := plan.DataShipping; p <= plan.HybridShipping; p++ {
			_ = plan.ValidateFor(root, p)
		}

		binding, bindErr := plan.Bind(root, cat, catalog.Client)
		if ok := plan.WellFormed(root, cat, catalog.Client); ok != (bindErr == nil) {
			t.Fatalf("WellFormed = %v but Bind error = %v", ok, bindErr)
		}
		if bindErr == nil {
			if structErr != nil {
				t.Fatalf("Bind accepted a plan CheckStructure rejects: %v", structErr)
			}
			// Accept ⇒ bind succeeds and is total: every operator got a site.
			root.Walk(func(n *plan.Node) {
				if _, ok := binding[n]; !ok {
					t.Fatalf("accepted plan has unbound node %v/%v", n.Kind, n.Ann)
				}
			})
			// Bindable, policy-legal plans round-trip through the JSON
			// encoding. (Bind alone tolerates annotations Unmarshal's
			// hybrid-shipping legality check rejects, e.g. a display root
			// annotated consumer, so gate on ValidateFor.)
			if plan.ValidateFor(root, plan.HybridShipping) == nil {
				enc, err := plan.Marshal(root)
				if err != nil {
					t.Fatalf("Marshal of accepted plan: %v", err)
				}
				back, err := plan.Unmarshal(enc)
				if err != nil {
					t.Fatalf("Unmarshal of Marshal output: %v", err)
				}
				enc2, err := plan.Marshal(back)
				if err != nil {
					t.Fatalf("re-Marshal: %v", err)
				}
				if !bytes.Equal(enc, enc2) {
					t.Fatalf("round trip not stable:\n%s\nvs\n%s", enc, enc2)
				}
			}
			// The structural key is deterministic.
			k1 := plan.AppendKey(nil, root)
			k2 := plan.AppendKey(nil, root)
			if !bytes.Equal(k1, k2) {
				t.Fatalf("AppendKey not deterministic")
			}
		}
	})
}
