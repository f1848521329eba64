package opt

import (
	"math/rand"
	"testing"

	"hybridship/internal/catalog"
	"hybridship/internal/cost"
	"hybridship/internal/plan"
)

// TestSearchEvaluateMatchesBindEstimate walks the search's working tree
// through random moves, shape moves included, and checks every candidate
// the dense path binds and prices against the public map-keyed Bind and
// Estimate on the same tree: the same well-formedness, the same site for
// every node and the same estimate, bit for bit. Accepted moves are mixed
// in so the index is exercised after relinks, not just fresh from Build.
func TestSearchEvaluateMatchesBindEstimate(t *testing.T) {
	cat, q := chainEnv(8, 4, 0.3)
	if err := cat.ReplicateAll(2, 5); err != nil {
		t.Fatal(err)
	}
	for _, pol := range []plan.Policy{plan.DataShipping, plan.QueryShipping, plan.HybridShipping} {
		for _, leftDeep := range []bool{false, true} {
			o := newOpt(cat, q, pol, cost.MetricResponseTime, 17)
			o.model.Params.ServerDiskUtil = map[catalog.SiteID]float64{1: 0.5}
			o.opts.LeftDeepOnly = leftDeep
			rng := rand.New(rand.NewSource(int64(pol) + 1))
			start, err := o.randomPlan(rng)
			if err != nil {
				t.Fatal(err)
			}
			st := newSearch(o, o.opts, rng)
			st.reset(start.Plan, start.Estimate)
			var u undoRec
			for i := 0; i < 400; i++ {
				moves := st.ensureMoves()
				if len(moves) == 0 {
					break
				}
				changedShape := applyMove(&st.ix, moves[rng.Intn(len(moves))], pol, &u)
				clear(st.memo)
				est, ok := st.evaluate()
				b, err := plan.Bind(st.root, cat, catalog.Client)
				if ok != (err == nil) {
					t.Fatalf("%v step %d: dense bind ok=%v, Bind error %v\n%s", pol, i, ok, err, st.root)
				}
				if ok {
					for s, n := range st.ix.Nodes {
						if st.sites[s] != b[n] {
							t.Fatalf("%v step %d: slot %d bound to %d, Bind says %d\n%s", pol, i, s, st.sites[s], b[n], st.root)
						}
					}
					if want := o.model.Estimate(st.root, b); est != want {
						t.Fatalf("%v step %d: dense estimate %+v, Estimate %+v\n%s", pol, i, est, want, st.root)
					}
				}
				if ok && rng.Intn(3) == 0 {
					st.accept(est, changedShape)
				} else {
					u.revert()
				}
			}
		}
	}
}

// TestSearchStepAllocatesNothing holds BenchmarkNeighborEvaluate's loop to
// 0 allocs, once its memo is warm, and the dense bind and estimate of a
// candidate to 0 allocs on every call.
func TestSearchStepAllocatesNothing(t *testing.T) {
	cat, q := chainEnv(10, 5, 0)
	o := newOpt(cat, q, plan.HybridShipping, cost.MetricResponseTime, 1)
	start, err := o.RandomPlan()
	if err != nil {
		t.Fatal(err)
	}
	st := newSearch(o, o.opts, rand.New(rand.NewSource(1)))
	st.reset(start.Plan, start.Estimate)
	var u undoRec
	step := func() {
		moves := st.ensureMoves()
		applyMove(&st.ix, moves[st.rng.Intn(len(moves))], st.opts.Policy, &u)
		st.evaluate()
		u.revert()
	}
	for i := 0; i < 20000; i++ {
		step()
	}
	if a := testing.AllocsPerRun(1000, step); a != 0 {
		t.Errorf("search step: %v allocs/op, want 0", a)
	}
	price := func() {
		var ok bool
		if st.sites, ok = st.ix.Bind(catalog.Client, st.sites); ok {
			st.estimator.EstimateIndex(&st.ix, st.sites)
		}
	}
	if a := testing.AllocsPerRun(1000, price); a != 0 {
		t.Errorf("dense bind + estimate: %v allocs/op, want 0", a)
	}
}
