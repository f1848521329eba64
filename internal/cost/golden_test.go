package cost

import (
	"bufio"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"

	"hybridship/internal/catalog"
	"hybridship/internal/plan"
	"hybridship/internal/plan/plantest"
	"hybridship/internal/query"
)

var update = flag.Bool("update", false, "rewrite testdata/golden_estimates.txt from the current model")

const goldenPath = "testdata/golden_estimates.txt"

var goldenTables = []string{"R0", "R1", "R2", "R3", "R4", "R5"}

// goldenCase is one cell of the golden grid: the cost-model settings every
// figure varies, crossed in full.
type goldenCase struct {
	policy   plan.Policy
	maxAlloc bool
	load     bool // Fig 4 external disk load on server 0 (plus a clamped server 1)
	cached   bool
	rf       int
	groupBy  int
	servers  int
}

func (c goldenCase) String() string {
	return fmt.Sprintf("%v max=%t load=%t cached=%t rf=%d group=%d servers=%d",
		c.policy, c.maxAlloc, c.load, c.cached, c.rf, c.groupBy, c.servers)
}

func goldenCases() []goldenCase {
	var out []goldenCase
	for _, pol := range []plan.Policy{plan.DataShipping, plan.QueryShipping, plan.HybridShipping} {
		for _, maxAlloc := range []bool{false, true} {
			for _, load := range []bool{false, true} {
				for _, cached := range []bool{false, true} {
					for _, rf := range []int{1, 2, 3} {
						for _, groupBy := range []int{0, 7} {
							for _, servers := range []int{2, 5, 10} {
								out = append(out, goldenCase{pol, maxAlloc, load, cached, rf, groupBy, servers})
							}
						}
					}
				}
			}
		}
	}
	return out
}

// model builds the case's catalog, query and parameters. Relation sizes are
// uneven on purpose: an empty relation, tuples wider than a page, and a
// mix of cached prefixes reach every branch of the scan and join rules.
func (c goldenCase) model(rng *rand.Rand) (*Model, error) {
	cat := catalog.New(4096, c.servers)
	tuples := []int{10000, 1000, 5000, 0, 20000, 300}
	bytes := []int{100, 200, 100, 100, 50, 5000}
	for i, name := range goldenTables {
		r := catalog.Relation{Name: name, Tuples: tuples[i], TupleBytes: bytes[i],
			Home: catalog.SiteID(rng.Intn(c.servers))}
		if err := cat.AddRelation(r); err != nil {
			return nil, err
		}
	}
	if err := cat.ReplicateAll(min(c.rf, c.servers), rng.Int63()); err != nil {
		return nil, err
	}
	if c.cached {
		for i, frac := range []float64{0.5, 1, 0.25, 0, 0.1} {
			if err := cat.SetCachedFraction(goldenTables[i], frac); err != nil {
				return nil, err
			}
		}
	}
	q := &query.Query{
		Relations:        goldenTables,
		ResultTupleBytes: 100,
		Selects:          map[string]float64{"R0": 0.1, "R2": 0.5},
		GroupBy:          c.groupBy,
	}
	for i := 1; i < len(goldenTables); i++ {
		q.Preds = append(q.Preds, query.Pred{A: goldenTables[i-1], B: goldenTables[i], Selectivity: 1.0 / float64(1000*i)})
	}
	q.Preds = append(q.Preds, query.Pred{A: "R0", B: "R3", Selectivity: 0.01})
	if err := q.Validate(); err != nil {
		return nil, err
	}
	p := DefaultParams()
	p.MaxAlloc = c.maxAlloc
	if c.load {
		p.ServerDiskUtil = map[catalog.SiteID]float64{0: 40 * p.RandPageTime, 1: 1.2}
	}
	return &Model{Params: p, Catalog: cat, Query: q}, nil
}

// randomPlan draws trees from the plan fuzzer's generator under a display
// root, skips those that scan unknown relations, re-annotates every node with an annotation the policy allows and
// every primary scan with a random copy, and keeps the first that binds
// and has at least minJoins joins.
func randomPlan(rng *rand.Rand, cat *catalog.Catalog, pol plan.Policy, minJoins int) (*plan.Node, plan.Binding, error) {
	for attempt := 0; attempt < 100000; attempt++ {
		data := make([]byte, 64)
		rng.Read(data)
		b := &plantest.Builder{Data: data, Tables: goldenTables}
		root := plan.NewDisplay(b.Build(6))
		if plan.CheckStructure(root) != nil || !allKnown(root, cat) || len(root.Joins()) < minJoins {
			continue
		}
		root.Walk(func(n *plan.Node) {
			if anns := plan.AllowedAnnotations(n.Kind, pol); len(anns) > 0 {
				n.Ann = anns[rng.Intn(len(anns))]
			}
			if n.Kind == plan.KindScan && n.Ann == plan.AnnPrimary {
				if rel, ok := cat.Relation(n.Table); ok {
					n.Copy = rng.Intn(rel.NumCopies())
				}
			}
		})
		if bd, err := plan.Bind(root, cat, catalog.Client); err == nil {
			return root, bd, nil
		}
	}
	return nil, nil, fmt.Errorf("no bindable plan with %d joins in 100000 draws", minJoins)
}

// allKnown reports whether every scan reads a catalog relation: Bind
// accepts a client scan of any name, but the model must price it.
func allKnown(root *plan.Node, cat *catalog.Catalog) bool {
	ok := true
	root.Walk(func(n *plan.Node) {
		if n.Kind == plan.KindScan {
			if _, known := cat.Relation(n.Table); !known {
				ok = false
			}
		}
	})
	return ok
}

// goldenLine renders one case: the plan's digest, the exact bits of the
// three estimates and the site every node is bound to, in pre-order.
func goldenLine(i int, c goldenCase, root *plan.Node, bd plan.Binding, e Estimate) string {
	h := fnv.New64a()
	h.Write([]byte(root.String()))
	var sites []string
	root.Walk(func(n *plan.Node) { sites = append(sites, fmt.Sprint(int(bd[n]))) })
	return fmt.Sprintf("%03d plan=%016x rt=%016x tc=%016x ps=%016x sites=%s | %v",
		i, h.Sum64(), math.Float64bits(e.ResponseTime), math.Float64bits(e.TotalCost),
		math.Float64bits(e.PagesSent), strings.Join(sites, ","), c)
}

// TestGoldenEstimates pins the cost model and the binder bit for bit over a
// seeded grid of random well-formed plans: DS/QS/HY × min/max allocation ×
// Fig 4 disk load × client caching × RF 1–3 × aggregate × 2/5/10 servers.
// The reusable Binder and Estimator must agree with the one-shot forms.
func TestGoldenEstimates(t *testing.T) {
	var got []string
	var binder plan.Binder
	var est Estimator
	for i, c := range goldenCases() {
		rng := rand.New(rand.NewSource(int64(1996 + i)))
		m, err := c.model(rng)
		if err != nil {
			t.Fatalf("case %d (%v): %v", i, c, err)
		}
		root, bd, err := randomPlan(rng, m.Catalog, c.policy, 1+i%3)
		if err != nil {
			t.Fatalf("case %d (%v): %v", i, c, err)
		}
		e := m.Estimate(root, bd)
		line := goldenLine(i, c, root, bd, e)
		rb, err := binder.Bind(root, m.Catalog, catalog.Client)
		if err != nil {
			t.Fatalf("case %d: reused Binder: %v", i, err)
		}
		if again := goldenLine(i, c, root, rb, est.Estimate(m, root, rb)); again != line {
			t.Fatalf("case %d: reused Binder/Estimator disagree with the one-shot forms:\n%s\n%s", i, again, line)
		}
		got = append(got, line)
	}
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if len(want) != len(got) {
		t.Fatalf("golden has %d cases, the grid %d", len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("case %d changed:\n got %s\nwant %s", i, got[i], want[i])
		}
	}
}
