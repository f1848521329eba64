package serve

import (
	"fmt"
	"math/rand"
	"testing"

	"hybridship/internal/coherence"
	"hybridship/internal/cost"
	"hybridship/internal/exec"
	"hybridship/internal/faults"
	"hybridship/internal/opt"
	"hybridship/internal/plan"
	"hybridship/internal/seedmix"
	"hybridship/internal/workload"
)

// Seed-derivation tags of perfbench's serve workload, so a case here is
// the same serving run as the benchmark's cell of that seed and index.
const (
	crashTagOpt int64 = iota + 2
	crashTagSim
	crashTagServe
	crashTagFault
	crashTagWrite
)

// crashCase is one coherent serving run of perfbench's serve workload with
// its stochastic faults replaced by a scripted site and client crash.
type crashCase struct {
	seed    int64
	cell    int
	clients int
	writes  bool
	lease   float64
	script  []faults.Event
}

// crashConfig builds the benchmark's serve cell: 12 queries at 0.25/s over
// a 2-way chain on one 50 %-cached server, breakers, a retry budget and
// degradation on, and in a write cell 3 seed-chosen update slots.
func crashConfig(t *testing.T, c crashCase) Config {
	t.Helper()
	cat, err := workload.BuildCatalog(4096, 1, workload.PlaceRoundRobin(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := workload.CacheAllFraction(cat, 0.5); err != nil {
		t.Fatal(err)
	}
	p := cost.DefaultParams()
	p.MaxAlloc = true
	m := &cost.Model{Params: p, Catalog: cat, Query: workload.ChainQuery(2, workload.Moderate)}
	var fresh []*plan.Node
	var static *plan.Node
	for class, pol := range []plan.Policy{plan.DataShipping, plan.DataShipping, plan.QueryShipping} {
		res, err := opt.New(m, opt.DefaultOptions(pol, cost.MetricResponseTime,
			seedmix.Derive(c.seed, crashTagOpt, int64(class)))).Optimize()
		if err != nil {
			t.Fatal(err)
		}
		if pol == plan.QueryShipping {
			static = res.Plan
		} else {
			fresh = append(fresh, res.Plan)
		}
	}
	params := exec.DefaultParams()
	params.MaxAlloc = true
	cfg := Config{
		Exec: exec.Config{
			Params:    params,
			Catalog:   cat,
			Query:     workload.ChainQuery(2, workload.Moderate),
			Next:      workload.Next(workload.Moderate),
			Seed:      seedmix.Derive(c.seed, crashTagSim, int64(c.cell)),
			Coherence: &coherence.Config{NumClients: c.clients, LeaseDuration: c.lease},
			Faults: &faults.Config{
				Seed:         seedmix.Derive(c.seed, crashTagFault, int64(c.cell)),
				Script:       c.script,
				FetchTimeout: 2, MaxRetries: 200, BackoffBase: 0.1, BackoffMax: 1,
			},
		},
		Seed:        seedmix.Derive(c.seed, crashTagServe, int64(c.cell)),
		NumQueries:  12,
		ArrivalRate: 0.25,
		Deadline:    30,
		MPL:         3,
		QueueCap:    8,
		Breaker:     BreakerParams{Threshold: 3, Cooldown: 1},
		RetryBudget: 0.5,
		DegradeHi:   3, DegradeLo: 1,
		StaticHi: 5, StaticLo: 2,
		OptInst:    10e6,
		Classes:    len(fresh),
		FreshPlans: fresh,
		StaticPlan: static,
	}
	if c.writes {
		wseed := seedmix.Derive(c.seed, crashTagWrite, int64(c.cell))
		update := map[int]bool{}
		for _, qi := range rand.New(rand.NewSource(wseed)).Perm(cfg.NumQueries)[:3] {
			update[qi] = true
		}
		mix := workload.WriteMix(cat, wseed, 1)
		cfg.Updates = func(qi int) (string, int, int, bool) {
			if !update[qi] {
				return "", 0, 0, false
			}
			u, ok := mix(qi)
			return u.Rel, u.Page0, u.Pages, ok
		}
	}
	return cfg
}

func siteAndClientCrash(siteAt, clientAt float64, client int) []faults.Event {
	return []faults.Event{
		{At: siteAt, Kind: faults.SiteCrash, Site: 0, Duration: 2},
		{At: clientAt, Kind: faults.ClientCrash, Site: client, Duration: 3},
	}
}

// TestServeScriptedCrashesDrain runs coherent fleets of 2 and 4 clients,
// read-only and with writes, under scripted server and client crashes,
// among them the two schedules perfbench/README.md reports as deadlocking
// the simulation (cell 1 at seed 7, cell 11 at seed 13). Every run must
// finish without a panic, bring every offered query to a terminal state,
// and keep the staleness oracle at zero.
func TestServeScriptedCrashesDrain(t *testing.T) {
	cases := []crashCase{
		{seed: 7, cell: 1, clients: 2, lease: 0.5, script: siteAndClientCrash(23.03, 10.16, 1)},
		{seed: 13, cell: 11, clients: 4, lease: 2, script: siteAndClientCrash(12.55, 34.00, 3)},
		{seed: 7, cell: 5, clients: 2, writes: true, lease: 0.5, script: siteAndClientCrash(10.16, 10.16, 0)},
		{seed: 3, cell: 7, clients: 2, writes: true, lease: 2, script: siteAndClientCrash(5, 6, 1)},
		{seed: 13, cell: 9, clients: 4, lease: 0.5, script: siteAndClientCrash(0.5, 20, 2)},
		{seed: 5, cell: 13, clients: 4, writes: true, lease: 0.5, script: siteAndClientCrash(30, 29, 3)},
		{seed: 11, cell: 15, clients: 4, writes: true, lease: 2, script: siteAndClientCrash(15, 16.5, 0)},
	}
	for _, c := range cases {
		name := fmt.Sprintf("seed=%d/cell=%d/clients=%d/writes=%v", c.seed, c.cell, c.clients, c.writes)
		t.Run(name, func(t *testing.T) {
			sv, err := Start(crashConfig(t, c))
			if err != nil {
				t.Fatal(err)
			}
			var res Result
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("serve run panicked: %v", r)
					}
				}()
				res = sv.Finish(sv.Session().Run())
			}()
			if !sv.Done() {
				t.Errorf("run drained with queries still open: %+v", res)
			}
			if res.Coherence == nil {
				t.Fatal("coherence summary missing")
			}
			if o := res.Coherence.Oracle; o.StaleCommittedReads != 0 {
				t.Errorf("staleness oracle: %d stale pages read by committed queries", o.StaleCommittedReads)
			}
			if st := sv.Session().FaultStats(); st.SiteCrashes == 0 || st.ClientCrashes == 0 {
				t.Errorf("scripted crashes did not fire: %+v", st)
			}
		})
	}
}
