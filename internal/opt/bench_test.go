package opt

import (
	"math/rand"
	"testing"

	"hybridship/internal/cost"
	"hybridship/internal/plan"
)

// BenchmarkRandomPlan measures fresh random-plan construction, the per-start
// setup cost of the optimizer.
func BenchmarkRandomPlan(b *testing.B) {
	cat, q := chainEnv(10, 5, 0)
	o := newOpt(cat, q, plan.HybridShipping, cost.MetricResponseTime, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := o.RandomPlan(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNeighborEvaluate measures one inner-loop step of the search as
// the hot path actually runs it: pick a move, apply it in place, evaluate
// the mutated tree, revert. This is the unit the allocation-lean rewrite
// targets (the seed implementation cloned the whole tree per step).
func BenchmarkNeighborEvaluate(b *testing.B) {
	cat, q := chainEnv(10, 5, 0)
	o := newOpt(cat, q, plan.HybridShipping, cost.MetricResponseTime, 1)
	start, err := o.RandomPlan()
	if err != nil {
		b.Fatal(err)
	}
	st := newSearch(o, o.opts, rand.New(rand.NewSource(1)))
	st.reset(start.Plan, start.Estimate)
	var u undoRec
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		moves := st.ensureMoves()
		mv := moves[st.rng.Intn(len(moves))]
		applyMove(&st.ix, mv, st.opts.Policy, &u)
		st.evaluate() // ok=false (an ill-formed candidate) is a normal outcome
		u.revert()
	}
}

// BenchmarkOptimize10Way measures one full two-phase optimization of the
// paper's 10-way chain join.
func BenchmarkOptimize10Way(b *testing.B) {
	cat, q := chainEnv(10, 5, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o := newOpt(cat, q, plan.HybridShipping, cost.MetricResponseTime, int64(i))
		if _, err := o.Optimize(); err != nil {
			b.Fatal(err)
		}
	}
}
