package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"hybridship/internal/catalog"
	"hybridship/internal/coherence"
	"hybridship/internal/cost"
	"hybridship/internal/disk"
	"hybridship/internal/exec"
	"hybridship/internal/faults"
	"hybridship/internal/opt"
	"hybridship/internal/plan"
	"hybridship/internal/seedmix"
	"hybridship/internal/serve"
	"hybridship/internal/sim"
	"hybridship/internal/workload"
)

// op is one entry of a workload's call list: one call into the program plus
// the checks on its output. run records its spans under parent when tr is
// non-nil; id is the call's index in the run, carried on every span.
type op struct {
	key string // the call's inputs, as derived from the seed
	run func(tr *tracer, parent, id int) (outcome, error)
}

// call runs the op. A panic in the program fails the call instead of the
// run, so it counts in failed like any other failed check.
func (o op) call(tr *tracer, parent, id int) (out outcome, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return o.run(tr, parent, id)
}

// outcome is what one checked call reports.
type outcome struct {
	dur     time.Duration // host time of the program call alone
	queries int64         // queries the call brought to a terminal state
	digest  string        // hash of the call's virtual outputs
}

// benchWorkload builds a workload's call list from the seed. A tracer, when
// given, records the spans of any program calls the build itself makes
// (plan compilation) under the parent span.
type benchWorkload struct {
	name  string
	build func(seed int64, tr *tracer, parent int) ([]op, error)
}

var benchWorkloads = []benchWorkload{
	{"optimize", buildOptimize},
	{"simulate", buildSimulate},
	{"serve", buildServe},
}

func findWorkload(name string) (benchWorkload, bool) {
	for _, w := range benchWorkloads {
		if w.name == name {
			return w, true
		}
	}
	return benchWorkload{}, false
}

// Stream tags for seedmix.Derive, one per kind of derived input.
const (
	tagPlacement int64 = iota + 1
	tagOptSeed
	tagSimSeed
	tagServeSeed
	tagFaultSeed
	tagWriteSeed
)

var policies = []plan.Policy{plan.DataShipping, plan.QueryShipping, plan.HybridShipping}

var policyNames = map[plan.Policy]string{
	plan.DataShipping:   "DS",
	plan.QueryShipping:  "QS",
	plan.HybridShipping: "HY",
}

func allocName(maxAlloc bool) string {
	if maxAlloc {
		return "max"
	}
	return "min"
}

// digest hashes a call's virtual outputs. Floats enter by their bits, so any
// change to a simulated number changes the digest.
func digest(vals ...any) string {
	h := sha256.New()
	for _, v := range vals {
		if f, ok := v.(float64); ok {
			v = math.Float64bits(f)
		}
		fmt.Fprintf(h, "%v;", v)
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// chainCall is one 10-way chain query on a randomly placed catalog: the
// unit of both the optimize and the simulate workload.
type chainCall struct {
	sel      workload.Selectivity
	servers  int
	policy   plan.Policy
	maxAlloc bool
	leftDeep bool
	load     bool // Fig 4's external load on server 0
	cached   bool // the first five relations cached at the client

	placement []catalog.SiteID
	optSeed   int64
	simSeed   int64
}

// chainLoad is the external random-read rate on server 0 of a loaded call,
// the middle level of Figure 4's load axis.
const chainLoad = 40.0

func (c *chainCall) key() string {
	shape := "bushy"
	if c.leftDeep {
		shape = "deep"
	}
	return fmt.Sprintf("%v/k%d/%s/%s/%s/load=%v/cached=%v/place=%v/opt=%d/sim=%d",
		c.sel, c.servers, policyNames[c.policy], allocName(c.maxAlloc), shape,
		c.load, c.cached, c.placement, c.optSeed, c.simSeed)
}

func newChainCall(seed int64, i int, c chainCall) *chainCall {
	rng := rand.New(rand.NewSource(seedmix.Derive(seed, tagPlacement, int64(i))))
	c.placement = workload.PlaceRandom(rng, 10, c.servers)
	c.optSeed = seedmix.Derive(seed, tagOptSeed, int64(i))
	c.simSeed = seedmix.Derive(seed, tagSimSeed, int64(i))
	return &c
}

// model builds the call's catalog and the optimizer's cost model, which
// sees the external load as predicted disk utilization.
func (c *chainCall) model() (*cost.Model, error) {
	cat, err := workload.BuildCatalog(4096, c.servers, c.placement)
	if err != nil {
		return nil, err
	}
	if c.cached {
		if err := workload.CacheFirstK(cat, 5); err != nil {
			return nil, err
		}
	}
	p := cost.DefaultParams()
	p.MaxAlloc = c.maxAlloc
	if c.load {
		p.ServerDiskUtil = map[catalog.SiteID]float64{0: math.Min(chainLoad*p.RandPageTime, 0.95)}
	}
	return &cost.Model{Params: p, Catalog: cat, Query: workload.ChainQuery(10, c.sel)}, nil
}

// optimizer returns a ready 2PO optimizer for the call.
func (c *chainCall) optimizer() (*opt.Optimizer, *cost.Model, error) {
	m, err := c.model()
	if err != nil {
		return nil, nil, err
	}
	opts := opt.DefaultOptions(c.policy, cost.MetricResponseTime, c.optSeed)
	opts.LeftDeepOnly = c.leftDeep
	return opt.New(m, opts), m, nil
}

// optimizeChecked runs one Optimize and checks its plan: it conforms to the
// policy, binds, and the cost model gives it a finite estimate equal to the
// one the optimizer reported. Bind and Estimate are the traced probes.
func optimizeChecked(tr *tracer, parent, id int, o *opt.Optimizer, m *cost.Model,
	policy plan.Policy) (opt.Result, outcome, error) {
	sp := tr.beginCall("opt.Optimize", parent, id)
	t0 := time.Now()
	res, err := o.Optimize()
	dur := time.Since(t0)
	tr.end(sp, map[string]float64{"queries": 1})
	if err != nil {
		return res, outcome{}, err
	}
	if err := plan.ValidateFor(res.Plan, policy); err != nil {
		return res, outcome{}, err
	}
	sp = tr.begin("plan.Bind", parent, id)
	b, err := plan.Bind(res.Plan, m.Catalog, catalog.Client)
	tr.end(sp, nil)
	if err != nil {
		return res, outcome{}, fmt.Errorf("optimized plan does not bind: %w", err)
	}
	sp = tr.begin("cost.Estimate", parent, id)
	est := m.Estimate(res.Plan, b)
	tr.end(sp, nil)
	for _, v := range []float64{est.ResponseTime, est.TotalCost, est.PagesSent} {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return res, outcome{}, fmt.Errorf("estimate %+v is not finite", est)
		}
	}
	if !near(est.ResponseTime, res.Estimate.ResponseTime) || !near(est.TotalCost, res.Estimate.TotalCost) ||
		!near(est.PagesSent, res.Estimate.PagesSent) {
		return res, outcome{}, fmt.Errorf("estimate of the bound plan %+v differs from the optimizer's %+v", est, res.Estimate)
	}
	e := res.Estimate
	return res, outcome{dur: dur, queries: 1, digest: digest(e.ResponseTime, e.TotalCost, e.PagesSent)}, nil
}

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b)) }

// optimizeSpecs is the optimize workload's call list, 36 calls in a fixed
// order over the Fig 6–8 and 10–11 sweep axes: every server count × policy
// pair under a half fraction of selectivity × allocation × plan shape, so
// each level of every axis appears equally often.
func optimizeSpecs() []chainCall {
	var out []chainCall
	for _, k := range []int{2, 5, 10} {
		for _, pol := range policies {
			for _, sel := range []workload.Selectivity{workload.Moderate, workload.HiSel} {
				for _, maxAlloc := range []bool{false, true} {
					leftDeep := (sel == workload.HiSel) != maxAlloc
					out = append(out, chainCall{sel: sel, servers: k, policy: pol, maxAlloc: maxAlloc, leftDeep: leftDeep})
				}
			}
		}
	}
	return out
}

func buildOptimize(seed int64, _ *tracer, _ int) ([]op, error) {
	var ops []op
	for i, spec := range optimizeSpecs() {
		c := newChainCall(seed, i, spec)
		o, m, err := c.optimizer()
		if err != nil {
			return nil, err
		}
		ops = append(ops, op{key: c.key(), run: func(tr *tracer, parent, id int) (outcome, error) {
			_, out, err := optimizeChecked(tr, parent, id, o, m, c.policy)
			return out, err
		}})
	}
	return ops, nil
}

// simulateSpecs is the simulate workload's list: each policy under four
// environments, a half fraction of allocation × load × caching, so each
// level of each axis appears equally often. Server counts rotate so each of
// 2, 5 and 10 appears four times.
func simulateSpecs() []chainCall {
	envs := []struct{ maxAlloc, load, cached bool }{
		{false, false, false}, {false, true, true}, {true, false, true}, {true, true, false},
	}
	servers := []int{2, 5, 10}
	var out []chainCall
	for pi, pol := range policies {
		for ei, env := range envs {
			out = append(out, chainCall{
				sel: workload.Moderate, servers: servers[(pi+ei)%3], policy: pol,
				maxAlloc: env.maxAlloc, load: env.load, cached: env.cached,
			})
		}
	}
	return out
}

// buildSimulate compiles every plan of the list (the optimizer's only work
// in this workload) and returns one exec.Run per plan.
func buildSimulate(seed int64, tr *tracer, parent int) ([]op, error) {
	var ops []op
	for i, spec := range simulateSpecs() {
		c := newChainCall(seed, i, spec)
		o, m, err := c.optimizer()
		if err != nil {
			return nil, err
		}
		call := tr.begin("call", parent, -1)
		res, _, err := optimizeChecked(tr, call, -1, o, m, c.policy)
		tr.end(call, nil)
		if err != nil {
			return nil, fmt.Errorf("compile %s: %w", c.key(), err)
		}
		params := exec.DefaultParams()
		params.MaxAlloc = c.maxAlloc
		cfg := exec.Config{
			Params:  params,
			Catalog: m.Catalog,
			Query:   m.Query,
			Next:    workload.Next(c.sel),
			Seed:    c.simSeed,
		}
		if c.load {
			cfg.ServerLoad = map[catalog.SiteID]float64{0: chainLoad}
		}
		want := workload.ExpectedResult(10, c.sel)
		p := res.Plan
		ops = append(ops, op{key: c.key(), run: func(tr *tracer, parent, id int) (outcome, error) {
			return simulateCall(tr, parent, id, cfg, p, want)
		}})
	}
	return ops, nil
}

func simulateCall(tr *tracer, parent, id int, cfg exec.Config, p *plan.Node, want int64) (outcome, error) {
	cfg.Kernel = sim.New() // a fresh kernel of our own, so its dispatches can be counted
	sp := tr.beginCall("exec.Run", parent, id)
	t0 := time.Now()
	res, err := exec.Run(cfg, p)
	dur := time.Since(t0)
	r, w, h := diskTotals(res.DiskStats)
	tr.end(sp, map[string]float64{
		"queries": 1, "events": float64(cfg.Kernel.Dispatched()),
		"disk.reads": float64(r), "disk.writes": float64(w), "disk.hits": float64(h),
		"net.pages": float64(res.PagesSent), "net.messages": float64(res.Messages),
	})
	if err != nil {
		return outcome{}, err
	}
	if res.ResultTuples != want {
		return outcome{}, fmt.Errorf("result has %d tuples, want %d", res.ResultTuples, want)
	}
	parts := []any{res.ResponseTime, res.PagesSent, res.Messages, res.ResultTuples}
	for _, s := range sortedSites(res.DiskStats) {
		d := res.DiskStats[s]
		parts = append(parts, s, d.Reads, d.Writes, d.CacheHits)
	}
	return outcome{dur: dur, queries: 1, digest: digest(parts...)}, nil
}

func sortedSites(m map[catalog.SiteID]disk.Stats) []catalog.SiteID {
	out := make([]catalog.SiteID, 0, len(m))
	for s := range m {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func diskTotals(m map[catalog.SiteID]disk.Stats) (reads, writes, hits int64) {
	for _, d := range m {
		reads += d.Reads
		writes += d.Writes
		hits += d.CacheHits
	}
	return reads, writes, hits
}

// Serve cell constants. The shape is the coherence grid's (2-way join, one
// server, half of every relation client-cached, DS classes, QS static
// fallback), offered below capacity so most queries complete: the workload
// measures serving, not retry storms.
//
// A write cell has a fixed number of updates, in seed-chosen slots: a drawn
// count (a write fraction) made a cell's cost swing up to threefold between
// seeds.
const (
	serveQueries    = 12
	serveRate       = 0.25 // arrivals per virtual second
	serveDeadline   = 30.0
	serveMPL        = 3
	serveQueueCap   = 8
	serveOptInst    = 10e6
	serveRetryRatio = 0.5
	serveUpdates    = 3 // of the serveQueries slots, in a write cell
	serveSiteMTBF   = 120.0
	serveSiteMTTR   = 2.0
	serveClientMTBF = 60.0
	serveClientMTTR = 3.0
)

// serveCell is one serving run's configuration.
type serveCell struct {
	clients int
	writes  bool
	lease   float64
	faults  bool
}

// serveCells is the serve workload's list: clients × writes × lease ×
// faults, 16 cells in a fixed order.
func serveCells() []serveCell {
	var out []serveCell
	for _, nc := range []int{2, 4} {
		for _, writes := range []bool{false, true} {
			for _, lease := range []float64{0.5, 2} {
				for _, f := range []bool{false, true} {
					out = append(out, serveCell{clients: nc, writes: writes, lease: lease, faults: f})
				}
			}
		}
	}
	return out
}

func serveCatalog() (*catalog.Catalog, error) {
	cat, err := workload.BuildCatalog(4096, 1, workload.PlaceRoundRobin(2, 1))
	if err != nil {
		return nil, err
	}
	return cat, workload.CacheAllFraction(cat, 0.5)
}

// servePlans compiles the serve workload's two DS class plans and its QS
// static fallback.
func servePlans(seed int64, tr *tracer, parent int) (fresh []*plan.Node, static *plan.Node, err error) {
	cat, err := serveCatalog()
	if err != nil {
		return nil, nil, err
	}
	p := cost.DefaultParams()
	p.MaxAlloc = true
	m := &cost.Model{Params: p, Catalog: cat, Query: workload.ChainQuery(2, workload.Moderate)}
	for class, pol := range []plan.Policy{plan.DataShipping, plan.DataShipping, plan.QueryShipping} {
		o := opt.New(m, opt.DefaultOptions(pol, cost.MetricResponseTime, seedmix.Derive(seed, tagOptSeed, int64(class))))
		call := tr.begin("call", parent, -1)
		res, _, err := optimizeChecked(tr, call, -1, o, m, pol)
		tr.end(call, nil)
		if err != nil {
			return nil, nil, fmt.Errorf("compile serve class %d: %w", class, err)
		}
		if pol == plan.QueryShipping {
			static = res.Plan
		} else {
			fresh = append(fresh, res.Plan)
		}
	}
	return fresh, static, nil
}

func buildServe(seed int64, tr *tracer, parent int) ([]op, error) {
	fresh, static, err := servePlans(seed, tr, parent)
	if err != nil {
		return nil, err
	}
	params := exec.DefaultParams()
	params.MaxAlloc = true
	var ops []op
	for i, cell := range serveCells() {
		cat, err := serveCatalog()
		if err != nil {
			return nil, err
		}
		cfg := serve.Config{
			Exec: exec.Config{
				Params:    params,
				Catalog:   cat,
				Query:     workload.ChainQuery(2, workload.Moderate),
				Next:      workload.Next(workload.Moderate),
				Seed:      seedmix.Derive(seed, tagSimSeed, int64(i)),
				Coherence: &coherence.Config{NumClients: cell.clients, LeaseDuration: cell.lease},
			},
			Seed:        seedmix.Derive(seed, tagServeSeed, int64(i)),
			NumQueries:  serveQueries,
			ArrivalRate: serveRate,
			Deadline:    serveDeadline,
			MPL:         serveMPL,
			QueueCap:    serveQueueCap,
			Breaker:     serve.BreakerParams{Threshold: 3, Cooldown: 1},
			RetryBudget: serveRetryRatio,
			DegradeHi:   3, DegradeLo: 1,
			StaticHi: 5, StaticLo: 2,
			OptInst:    serveOptInst,
			Classes:    len(fresh),
			FreshPlans: fresh,
			StaticPlan: static,
		}
		if cell.faults {
			cfg.Exec.Faults = &faults.Config{
				Seed:     seedmix.Derive(seed, tagFaultSeed, int64(i)),
				SiteMTBF: serveSiteMTBF, SiteMTTR: serveSiteMTTR,
				ClientMTBF: serveClientMTBF, ClientMTTR: serveClientMTTR,
				FetchTimeout: 2, MaxRetries: 200, BackoffBase: 0.1, BackoffMax: 1,
			}
		}
		var slots []int
		if cell.writes {
			wseed := seedmix.Derive(seed, tagWriteSeed, int64(i))
			slots = rand.New(rand.NewSource(wseed)).Perm(serveQueries)[:serveUpdates]
			update := map[int]bool{}
			for _, qi := range slots {
				update[qi] = true
			}
			mix := workload.WriteMix(cat, wseed, 1) // an update for every slot; update picks the slots
			cfg.Updates = func(qi int) (string, int, int, bool) {
				if !update[qi] {
					return "", 0, 0, false
				}
				u, ok := mix(qi)
				return u.Rel, u.Page0, u.Pages, ok
			}
		}
		key := fmt.Sprintf("clients=%d/writes=%v/lease=%g/faults=%v/sim=%d/serve=%d/updates=%v",
			cell.clients, cell.writes, cell.lease, cell.faults, cfg.Exec.Seed, cfg.Seed, slots)
		ops = append(ops, op{key: key, run: func(tr *tracer, parent, id int) (outcome, error) {
			return serveCall(tr, parent, id, cfg)
		}})
	}
	return ops, nil
}

// completedRT is the summed response time of a run's completed queries.
func completedRT(res serve.Result) float64 {
	if res.Completed == 0 {
		return 0
	}
	return res.MeanRT * float64(res.Completed)
}

func serveCall(tr *tracer, parent, id int, cfg serve.Config) (outcome, error) {
	sp := tr.beginCall("serve.Run", parent, id)
	t0 := time.Now()
	sv, err := serve.Start(cfg)
	if err != nil {
		tr.end(sp, nil)
		return outcome{}, err
	}
	res := sv.Finish(sv.Session().Run())
	dur := time.Since(t0)

	ses := sv.Session()
	r, w, h := diskTotals(ses.DiskStats())
	net := ses.NetStats()
	var hit, miss, renew, cb int64
	for _, st := range res.Streams {
		hit += st.CacheHitPages
		miss += st.CacheMissPages
		renew += st.LeaseRenewals
		cb += st.CallbackMsgs
	}
	tr.end(sp, map[string]float64{
		"queries": float64(res.Offered), "completed": float64(res.Completed),
		"events":     float64(ses.Simulator().Dispatched()),
		"disk.reads": float64(r), "disk.writes": float64(w), "disk.hits": float64(h),
		"net.pages": float64(net.DataPages), "net.messages": float64(net.Messages),
		"coh.hit_pages": float64(hit), "coh.miss_pages": float64(miss),
		"coh.renewals": float64(renew), "coh.callback_msgs": float64(cb), "coh.updates": float64(res.Updates),
		"faults.retries": float64(res.Retries), "faults.aborted_s": res.AbortedWork,
		"faults.completed_rt_s": completedRT(res),
	})
	if !sv.Done() {
		return outcome{}, fmt.Errorf("serve run drained with queries still open: %+v", res)
	}
	if res.Offered != int64(cfg.NumQueries) {
		return outcome{}, fmt.Errorf("offered %d queries, want %d", res.Offered, cfg.NumQueries)
	}
	if res.Coherence == nil {
		return outcome{}, fmt.Errorf("coherent serve run reported no coherence summary")
	}
	if o := res.Coherence.Oracle; o.StaleCommittedReads != 0 {
		return outcome{}, fmt.Errorf("staleness oracle: %d stale pages read by committed queries", o.StaleCommittedReads)
	}
	return outcome{dur: dur, queries: res.Offered, digest: digest(
		res.Offered, res.RejectedRate, res.RejectedQueue, res.Admitted,
		res.Completed, res.Expired, res.Failed,
		res.FreshServed, res.CachedServed, res.StaticServed,
		res.Retries, res.RetriesGranted, res.AbortedWork, res.BackoffTime,
		res.Elapsed, res.MeanRT, res.P50RT, res.P99RT, res.BreakerOpens,
		res.ShedClientDown, res.FailedClientDown, res.Updates, res.UpdatesCommitted,
		res.Invalidations, res.UpdateWaitTime, hit, miss, renew, cb,
		net.DataPages, net.Messages, r, w, h,
	)}, nil
}
