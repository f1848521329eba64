// Package cost implements the optimizer's analytic cost model (§3.1.2).
//
// Total-cost estimates follow the style of Mackert and Lohman's R* model:
// the sum, over all operators, of CPU, disk, and communication resource
// consumption. Response-time estimates follow Ganguly, Hasan and
// Krishnamurthy: pipelined producer/consumer operators overlap, independent
// subtrees run in parallel, and the final response time is bounded below by
// the busiest single resource. Hybrid-hash-join memory behaviour (minimum and
// maximum allocations) follows Shapiro.
//
// The model deliberately shares the paper's idealization that communication
// fully overlaps with processing; §4.2.3 of the paper observes (and our
// EXPERIMENTS.md confirms) that the simulator rarely attains this.
package cost

import (
	"math"
	"slices"

	"hybridship/internal/catalog"
	"hybridship/internal/plan"
	"hybridship/internal/query"
)

// Params configures the cost model. Table 2 of the paper defines the CPU and
// message constants; the per-page disk times are the calibration aggregates
// of §4.1 (obtained from separate simulation runs, exactly as the paper did).
type Params struct {
	Mips        float64 // CPU speed, 10^6 instructions per second
	PageSize    int     // bytes per page
	NetBw       float64 // network bandwidth, bits per second
	MsgInst     float64 // instructions to send or receive a message
	PerSizeMI   float64 // instructions to send or receive PageSize bytes
	DisplayInst float64 // instructions to display a tuple
	CompareInst float64 // instructions to apply a predicate
	HashInst    float64 // instructions to hash a tuple
	MoveInst    float64 // instructions to copy 4 bytes
	DiskInst    float64 // instructions per disk I/O request
	NumDisks    int     // disk arms per site (default 1)

	SeqPageTime  float64 // seconds per sequential page I/O (calibrated)
	RandPageTime float64 // seconds per random page I/O (calibrated)
	// Spill I/O prices reflect the disk's write-back cache and batched
	// destaging: partition writes and partition-sequential re-reads run
	// much closer to sequential than to random speed. Calibrated against
	// the simulator like the two rates above.
	SpillWriteTime float64
	SpillReadTime  float64

	FudgeF   float64 // Shapiro's hash-table fudge factor (1.2)
	MaxAlloc bool    // joins get maximum (true) or minimum (false) allocation

	// ServerDiskUtil is the utilization of each server's disk due to
	// external load (multi-client contention, §4.2.2). Disk service times at
	// a loaded server are inflated by 1/(1-u). An Estimator reads it once
	// per Prepare into a per-site slice.
	ServerDiskUtil map[catalog.SiteID]float64
}

// DefaultParams returns the Table 2 defaults with the §4.1 disk calibration.
func DefaultParams() Params {
	return Params{
		Mips:           50,
		PageSize:       4096,
		NetBw:          100e6,
		MsgInst:        20000,
		PerSizeMI:      12000,
		DisplayInst:    0,
		CompareInst:    2,
		HashInst:       9,
		MoveInst:       1,
		DiskInst:       5000,
		NumDisks:       1,
		SeqPageTime:    0.0035,
		RandPageTime:   0.0118,
		SpillWriteTime: 0.0045,
		SpillReadTime:  0.0035,
		FudgeF:         1.2,
		MaxAlloc:       false,
	}
}

func (p Params) cpuTime(instructions float64) float64 {
	return instructions / (p.Mips * 1e6)
}

// msgCPUTime is the endpoint CPU time to send or receive one message.
func (p Params) msgCPUTime(bytes int) float64 {
	return p.cpuTime(p.MsgInst + p.PerSizeMI*float64(bytes)/float64(p.PageSize))
}

func (p Params) wireTime(bytes int) float64 {
	return float64(bytes) * 8 / p.NetBw
}

func (p Params) diskUtil(site catalog.SiteID) float64 {
	u := p.ServerDiskUtil[site]
	switch {
	case u < 0:
		return 0
	case u > 0.99:
		return 0.99
	default:
		return u
	}
}

// ctrlMsgBytes is the size of a small control message (e.g. a page-fault
// request).
const ctrlMsgBytes = 128

// Estimate is the optimizer's prediction for a bound plan.
type Estimate struct {
	TotalCost    float64 // sum of all resource consumption, seconds
	ResponseTime float64 // predicted elapsed time, seconds
	PagesSent    float64 // data pages crossing the network
}

// Metric selects which prediction the optimizer minimizes.
type Metric int

const (
	MetricTotalCost Metric = iota
	MetricResponseTime
	MetricPagesSent
)

func (m Metric) String() string {
	switch m {
	case MetricTotalCost:
		return "total-cost"
	case MetricResponseTime:
		return "response-time"
	case MetricPagesSent:
		return "pages-sent"
	}
	return "metric(?)"
}

// Value extracts the metric from an estimate.
func (e Estimate) Value(m Metric) float64 {
	switch m {
	case MetricTotalCost:
		return e.TotalCost
	case MetricResponseTime:
		return e.ResponseTime
	case MetricPagesSent:
		return e.PagesSent
	}
	return e.TotalCost
}

// Model evaluates plans for one query against one catalog.
type Model struct {
	Params  Params
	Catalog *catalog.Catalog
	Query   *query.Query
}

// nodeInfo carries per-node derived quantities up the tree.
type nodeInfo struct {
	card       float64 // output cardinality, tuples
	tupleBytes int
	pages      float64 // output size in pages
	rt         float64 // completion time of this node's output
	site       catalog.SiteID
	tables     uint64 // base-relation bitmask
}

// nodeFacts is what the model reads of one plan node besides its kind, its
// site and, for a scan, the relation's own statistics (plan.Index.Rels):
// a scan's cached pages and query bitmask, a select's selectivity. Prepare
// resolves them once per Build of the index, so pricing a candidate looks
// nothing up by name.
type nodeFacts struct {
	cached float64 // scan: pages cached at the client, at most its pages
	mask   uint64  // scan: the relation's bit in the query
	sel    float64 // select: selectivity of its predicate
}

// Estimate predicts the execution of a plan whose annotations have been
// bound to sites.
func (m *Model) Estimate(root *plan.Node, binding plan.Binding) Estimate {
	var e Estimator
	return e.Estimate(m, root, binding)
}

// Estimator prices plans laid out in a plan.Index. Prepare resolves the
// per-slot facts of an index; EstimateIndex then prices any binding of any
// candidate that keeps those slots, touching no map. Resource consumption
// accumulates in per-site slices, slot i holding site base+i: the client
// (-1) comes first and servers follow in ascending order, the order in
// which total adds them up.
type Estimator struct {
	m     *Model
	facts []nodeFacts // by index slot

	base     catalog.SiteID
	diskFree []float64 // by site: 1 - external disk utilization
	cpu      []float64 // by site
	disk     []float64 // by site
	wire     float64
	pages    float64

	// The map-keyed Estimate adapter's own index and sites.
	ix    plan.Index
	sites []catalog.SiteID
}

// Estimate is the reusable-buffer form of Model.Estimate: it indexes the
// tree, reads the binding once per node and prices the result.
func (e *Estimator) Estimate(m *Model, root *plan.Node, binding plan.Binding) Estimate {
	e.ix.Build(root, m.Catalog)
	e.sites = slices.Grow(e.sites[:0], len(e.ix.Nodes))
	for _, n := range e.ix.Nodes {
		e.sites = append(e.sites, binding[n])
	}
	e.prepare(m, &e.ix, e.sites)
	return e.EstimateIndex(&e.ix, e.sites)
}

// Prepare resolves the facts of every slot of ix, which must have been
// built over m.Catalog, and sizes the accumulators for the client and
// every server. It panics on a scan of a relation the catalog lacks.
func (e *Estimator) Prepare(m *Model, ix *plan.Index) {
	e.prepare(m, ix, nil)
}

// prepare is Prepare with the accumulators widened to cover sites too.
func (e *Estimator) prepare(m *Model, ix *plan.Index, sites []catalog.SiteID) {
	e.m = m
	e.facts = slices.Grow(e.facts[:0], len(ix.Nodes))
	lo, hi := catalog.Client, catalog.SiteID(m.Catalog.NumServers-1)
	cover := func(s catalog.SiteID) {
		lo, hi = min(lo, s), max(hi, s)
	}
	for s, n := range ix.Nodes {
		var f nodeFacts
		switch n.Kind {
		case plan.KindScan:
			rel := ix.Rels[s]
			if rel == nil {
				panic("catalog: unknown relation " + n.Table)
			}
			f.cached = min(float64(m.Catalog.CachedPages(n.Table)), float64(rel.Pages(m.Params.PageSize)))
			f.mask = m.Query.RelMask(n.Table)
			for c := 0; c < rel.NumCopies(); c++ {
				cover(rel.CopySite(c))
			}
		case plan.KindSelect:
			f.sel = m.Query.SelectSelectivity(n.Rel)
		}
		e.facts = append(e.facts, f)
	}
	for _, s := range sites {
		cover(s)
	}
	e.base = lo
	n := int(hi-lo) + 1
	if cap(e.cpu) < n {
		buf := make([]float64, 3*n)
		e.cpu, e.disk, e.diskFree = buf[:n:n], buf[n:2*n:2*n], buf[2*n:]
	}
	e.cpu, e.disk, e.diskFree = e.cpu[:n], e.disk[:n], e.diskFree[:n]
	for i := range e.diskFree {
		e.diskFree[i] = 1 - m.Params.diskUtil(lo+catalog.SiteID(i))
	}
}

// EstimateIndex prices the plan laid out in ix with slot i bound to
// sites[i]. Prepare must have been called on ix since its last Build.
func (e *Estimator) EstimateIndex(ix *plan.Index, sites []catalog.SiteID) Estimate {
	clear(e.cpu)
	clear(e.disk)
	e.wire, e.pages = 0, 0
	info := e.eval(ix, sites, 0)
	rt := math.Max(info.rt, e.bottleneck(e.m.Params.NumDisks))
	return Estimate{TotalCost: e.total(), ResponseTime: rt, PagesSent: e.pages}
}

// total sums all resource consumption: wire time, then every site's CPU,
// then every site's disk, each in ascending site order. Sites that consumed
// nothing add +0, which leaves the sum's bits unchanged, so the result does
// not depend on which sites a plan touches.
func (e *Estimator) total() float64 {
	t := e.wire
	for _, v := range e.cpu {
		t += v
	}
	for _, v := range e.disk {
		t += v
	}
	return t
}

func (e *Estimator) bottleneck(disksPerSite int) float64 {
	if disksPerSite < 1 {
		disksPerSite = 1
	}
	m := e.wire
	for _, v := range e.cpu {
		m = math.Max(m, v)
	}
	for _, v := range e.disk {
		// A site's disk work spreads over its arms in the best case.
		m = math.Max(m, v/float64(disksPerSite))
	}
	return m
}

func (e *Estimator) addCPU(site catalog.SiteID, v float64)  { e.cpu[site-e.base] += v }
func (e *Estimator) addDisk(site catalog.SiteID, v float64) { e.disk[site-e.base] += v }

// diskTime inflates a raw disk service time by the external load at a site.
func (e *Estimator) diskTime(site catalog.SiteID, raw float64) float64 {
	return raw / e.diskFree[site-e.base]
}

func pagesOf(card float64, tupleBytes, pageSize int) float64 {
	if card <= 0 {
		return 0
	}
	perPage := float64(pageSize / tupleBytes)
	if perPage < 1 {
		perPage = 1
	}
	return math.Ceil(card / perPage)
}

// ship charges communication for moving `pages` data pages of `bytes` total
// from one site to another and returns the pipeline stage duration.
func (e *Estimator) ship(from, to catalog.SiteID, pages float64, acct bool) float64 {
	if from == to || pages <= 0 {
		return 0
	}
	p := &e.m.Params
	perPageCPU := p.msgCPUTime(p.PageSize)
	wire := p.wireTime(p.PageSize)
	e.addCPU(from, perPageCPU*pages)
	e.addCPU(to, perPageCPU*pages)
	e.wire += wire * pages
	if acct {
		e.pages += pages
	}
	// The shipping stage streams pages; its duration is bounded by the
	// slower of the wire and the two endpoint CPUs for this stream.
	return pages * math.Max(wire, perPageCPU)
}

// eval prices the subtree at slot s: children first, left before right,
// then the node itself, so every site's accumulator receives its additions
// in the same order on every evaluation of the same plan.
func (e *Estimator) eval(ix *plan.Index, sites []catalog.SiteID, s int) nodeInfo {
	p := &e.m.Params
	site := sites[s]
	switch ix.Nodes[s].Kind {
	case plan.KindScan:
		return e.evalScan(ix.Rels[s], &e.facts[s], site)

	case plan.KindSelect:
		child := e.eval(ix, sites, ix.Left[s])
		shipDur := e.ship(child.site, site, child.pages, true)
		sel := e.facts[s].sel
		cpu := p.cpuTime(p.CompareInst * child.card)
		e.addCPU(site, cpu)
		out := child.card * sel
		return nodeInfo{
			card:       out,
			tupleBytes: child.tupleBytes,
			pages:      pagesOf(out, child.tupleBytes, p.PageSize),
			rt:         math.Max(child.rt, math.Max(shipDur, cpu)),
			site:       site,
			tables:     child.tables,
		}

	case plan.KindJoin:
		return e.evalJoin(ix, sites, s)

	case plan.KindAgg:
		child := e.eval(ix, sites, ix.Left[s])
		shipDur := e.ship(child.site, site, child.pages, true)
		cpu := p.cpuTime(p.HashInst * child.card)
		e.addCPU(site, cpu)
		groupBy := e.m.Query.GroupBy
		out := float64(groupBy)
		if out <= 0 || out > child.card {
			out = math.Min(1, child.card)
			if groupBy > 0 {
				out = math.Min(float64(groupBy), child.card)
			}
		}
		// Aggregation is blocking: its (small) output appears only after the
		// whole input has been consumed.
		return nodeInfo{
			card:       out,
			tupleBytes: child.tupleBytes,
			pages:      pagesOf(out, child.tupleBytes, p.PageSize),
			rt:         math.Max(child.rt, shipDur) + cpu,
			site:       site,
			tables:     child.tables,
		}

	case plan.KindDisplay:
		child := e.eval(ix, sites, ix.Left[s])
		shipDur := e.ship(child.site, site, child.pages, true)
		cpu := p.cpuTime(p.DisplayInst * child.card)
		e.addCPU(site, cpu)
		return nodeInfo{
			card:       child.card,
			tupleBytes: child.tupleBytes,
			pages:      child.pages,
			rt:         math.Max(child.rt, math.Max(shipDur, cpu)),
			site:       site,
			tables:     child.tables,
		}
	}
	panic("cost: unknown node kind")
}

func (e *Estimator) evalScan(rel *catalog.Relation, f *nodeFacts, site catalog.SiteID) nodeInfo {
	p := &e.m.Params
	pages := float64(rel.Pages(p.PageSize))
	info := nodeInfo{card: float64(rel.Tuples), tupleBytes: rel.TupleBytes, pages: pages, site: site, tables: f.mask}

	if site != catalog.Client || pages == 0 {
		// Scan at a server copy (the primary, or whichever replica the plan
		// bound): sequential I/O at that copy's site.
		at := site
		if at == catalog.Client {
			at = rel.Home // degenerate empty relation bound at the client
		}
		d := e.diskTime(at, p.SeqPageTime) * pages
		cpu := p.cpuTime(p.DiskInst * pages)
		e.addDisk(at, d)
		e.addCPU(at, cpu)
		info.rt = d + cpu
		return info
	}

	// Client scan (§2.1): cached pages come from the client disk; missing
	// pages are faulted in from the home server one page at a time, with no
	// overlap between request, server I/O, and reply (§4.2.3).
	cached := f.cached
	missing := pages - cached

	clientDisk := e.diskTime(site, p.SeqPageTime) * cached
	clientCPU := p.cpuTime(p.DiskInst * cached)
	e.addDisk(site, clientDisk)
	e.addCPU(site, clientCPU)

	var faultDur float64
	if missing > 0 {
		reqCPU := p.msgCPUTime(ctrlMsgBytes)
		pageCPU := p.msgCPUTime(p.PageSize)
		serverIO := e.diskTime(rel.Home, p.SeqPageTime)
		serverCPU := p.cpuTime(p.DiskInst)
		e.addCPU(site, (reqCPU+pageCPU)*missing)
		e.addCPU(rel.Home, (reqCPU+pageCPU+serverCPU)*missing)
		e.addDisk(rel.Home, serverIO*missing)
		e.wire += (p.wireTime(ctrlMsgBytes) + p.wireTime(p.PageSize)) * missing
		e.pages += missing
		perFault := reqCPU*2 + p.wireTime(ctrlMsgBytes) + serverCPU + serverIO +
			pageCPU*2 + p.wireTime(p.PageSize)
		faultDur = perFault * missing
	}
	info.rt = clientDisk + clientCPU + faultDur
	return info
}

func (e *Estimator) evalJoin(ix *plan.Index, sites []catalog.SiteID, s int) nodeInfo {
	p := &e.m.Params
	site := sites[s]
	inner := e.eval(ix, sites, ix.Left[s])
	outer := e.eval(ix, sites, ix.Right[s])

	innerShip := e.ship(inner.site, site, inner.pages, true)
	outerShip := e.ship(outer.site, site, outer.pages, true)

	sel := e.m.Query.JoinSelectivityMask(inner.tables, outer.tables)
	outCard := inner.card * outer.card * sel
	outBytes := e.m.Query.ResultTupleBytes
	outPages := pagesOf(outCard, outBytes, p.PageSize)

	// CPU: hash each input tuple once, move each result tuple.
	buildCPU := p.cpuTime(p.HashInst * inner.card)
	probeCPU := p.cpuTime(p.HashInst*outer.card + p.MoveInst*(float64(outBytes)/4)*outCard)
	e.addCPU(site, buildCPU+probeCPU)

	// Temporary I/O per Shapiro: with the maximum allocation the inner's
	// hash table is memory resident; with the minimum allocation all but a
	// memory-sized slice of both inputs is written to and re-read from the
	// join site's disk.
	var writeInner, writeOuter, readBack float64
	if !p.MaxAlloc {
		fn := p.FudgeF * inner.pages
		mem := math.Ceil(math.Sqrt(fn))
		q := 0.0
		if fn > 0 {
			q = mem / fn
		}
		if q > 1 {
			q = 1
		}
		spillInner := (1 - q) * inner.pages
		spillOuter := (1 - q) * outer.pages
		ioCPU := p.cpuTime(p.DiskInst)
		writeInner = (e.diskTime(site, p.SpillWriteTime) + ioCPU) * spillInner
		writeOuter = (e.diskTime(site, p.SpillWriteTime) + ioCPU) * spillOuter
		readBack = (e.diskTime(site, p.SpillReadTime) + ioCPU) * (spillInner + spillOuter)
		e.addDisk(site, e.diskTime(site, p.SpillWriteTime)*(spillInner+spillOuter)+
			e.diskTime(site, p.SpillReadTime)*(spillInner+spillOuter))
		e.addCPU(site, ioCPU*2*(spillInner+spillOuter))
	}

	// Response time. The build blocks on the inner and the probe pipelines
	// with the outer. Partition writes at this join overlap the producer's
	// work when the producer runs at a different site (its partition-pass
	// reads stream while we write); co-located producer and consumer share
	// one disk, so their phases serialize. The final partition passes
	// (readBack) are this join's output emission and are in turn overlapped
	// by our consumer, which applies the same rule.
	buildWork := buildCPU + writeInner
	probeWork := probeCPU + writeOuter
	var buildDur, probeDur float64
	if inner.site == site {
		buildDur = inner.rt + buildWork
	} else {
		buildDur = math.Max(inner.rt, math.Max(innerShip, buildWork))
	}
	if outer.site == site {
		probeDur = outer.rt + probeWork
	} else {
		probeDur = math.Max(outer.rt, math.Max(outerShip, probeWork))
	}
	rt := buildDur + probeDur + readBack

	return nodeInfo{card: outCard, tupleBytes: outBytes, pages: outPages, rt: rt, site: site,
		tables: inner.tables | outer.tables}
}
