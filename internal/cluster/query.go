package cluster

import (
	"fmt"
	"sync"

	"parabit/internal/nvme"
	"parabit/internal/plan"
	"parabit/internal/sched"
	"parabit/internal/sim"
	"parabit/internal/ssd"
)

// Query routing. Leaves of the expression are column keys. When every
// operand column has a replica on one common live shard the whole
// expression executes there — through the shard's NVMe queue pair when
// the shape is wire-expressible, as a planner query otherwise. When the
// operands are spread out, the front end recurses: each sub-expression
// routes independently (and may itself run shard-locally), leaf pages are
// read from replicas, and the host combines result pages in software with
// the same base-op/complement folds the in-flash chains use — so the
// result bytes are identical either way.

// Route labels how a query executed.
type Route string

// Route values.
const (
	// RouteWire: one shard, expression crossed the NVMe wire encoding.
	RouteWire Route = "wire"
	// RouteLocal: one shard, planner query submitted directly.
	RouteLocal Route = "local"
	// RouteScatter: multiple shards plus host-side combine.
	RouteScatter Route = "scatter"
)

// QueryResult is a routed query's outcome.
type QueryResult struct {
	// Data is the result page, byte-identical to a single-device
	// execution of the same expression.
	Data []byte
	// Elapsed is the virtual service time: the slowest shard-side path
	// plus any host-side combine cost.
	Elapsed sim.Duration
	// Route records how the query executed; scatter anywhere in the tree
	// marks the whole query RouteScatter.
	Route Route
}

// Query routes and executes a bitmap expression whose leaves are column
// keys, under the tenant's QoS.
func (c *Cluster) Query(tenant string, e *plan.Expr, scheme ssd.Scheme) (QueryResult, error) {
	tn, err := c.adm.admit(tenant, c.Now())
	if err != nil {
		return QueryResult{}, err
	}
	defer tn.release()
	c.tele.cQueries.Add(1)

	n, err := plan.Normalize(e)
	if err != nil {
		return QueryResult{}, err
	}
	res, err := c.route(n, scheme)
	if err != nil {
		return QueryResult{}, err
	}
	c.tele.hQuery.Observe(res.Elapsed)
	switch res.Route {
	case RouteWire:
		c.tele.cRouteWire.Add(1)
	case RouteLocal:
		c.tele.cRouteLocal.Add(1)
	case RouteScatter:
		c.tele.cRouteScat.Add(1)
	}
	return res, nil
}

// routeScratch is the reusable memory of one routed query: the leaf
// buffer, the columns colocation looked up, and the wire route's formula,
// command streams, parsed batches and lifted tree. A query takes one from
// the cluster's free list and returns it once its shard tickets have been
// waited on. By then the shard has executed the tree it was handed, and
// nothing there keeps it: the device's compiler and result cache hold
// pages and keys, not nodes, and the scheduler copies the leaf pages.
type routeScratch struct {
	leaves     []uint64
	cols       []*column
	formula    nvme.Formula
	cmds, wire []nvme.Command
	parser     nvme.Parser
	tree       plan.Arena
}

// scratchList is the cluster's free list of route scratch. It is no
// sync.Pool: under -race a pool drops items at random, which would make
// the query allocation ceilings flake.
type scratchList struct {
	mu   sync.Mutex
	free []*routeScratch // guarded by mu
}

// take pops route scratch off the list, or makes one; it grows on first
// use.
func (l *scratchList) take() *routeScratch {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.free)
	if n == 0 {
		return new(routeScratch)
	}
	s := l.free[n-1]
	l.free[n-1] = nil
	l.free = l.free[:n-1]
	return s
}

// put returns route scratch to the list, holding no column.
func (l *scratchList) put(s *routeScratch) {
	clear(s.cols)
	s.cols = s.cols[:0]
	l.mu.Lock()
	l.free = append(l.free, s)
	l.mu.Unlock()
}

// colocatedShard finds a live shard holding a replica of every key in
// s.leaves, or nil. Preference follows liveLeastLoadedLocked over the
// first key's replicas. On success it overwrites each leaf with that
// key's LPN on the chosen shard, so the caller maps leaves by position.
func (c *Cluster) colocatedShard(s *routeScratch) (*Shard, error) {
	keys := s.leaves
	c.mu.RLock()
	defer c.mu.RUnlock()
	if len(keys) == 0 {
		return nil, fmt.Errorf("%w: no leaves", plan.ErrBadExpr)
	}
	// Candidates start as the first key's live replicas and narrow to the
	// shards every later key also has a live replica on. Each key's
	// column is looked up once; the mapping pass reuses it.
	var buf [8]replica
	candidates := buf[:0]
	s.cols = s.cols[:0]
	for i, key := range keys {
		col := c.columns[key]
		if col == nil {
			return nil, fmt.Errorf("%w: key %d", ErrUnknownColumn, key)
		}
		if !col.hasLiveLocked(c.shards) {
			c.tele.cUnavailable.Add(1)
			return nil, fmt.Errorf("%w: column %d", ErrUnavailable, key)
		}
		s.cols = append(s.cols, col)
		if i == 0 {
			for _, r := range col.replicas {
				if sh := c.shards[r.shard]; sh != nil && sh.Alive() {
					candidates = append(candidates, replica{shard: r.shard})
				}
			}
			continue
		}
		// Candidate shards exist: the map cannot change under the read lock.
		kept := candidates[:0]
		for _, cand := range candidates {
			if _, ok := col.replicaOnLocked(cand.shard); ok && c.shards[cand.shard].Alive() {
				kept = append(kept, cand)
			}
		}
		if candidates = kept; len(candidates) == 0 {
			return nil, nil
		}
	}
	sh, _, ok := c.liveLeastLoadedLocked(candidates)
	if !ok {
		return nil, nil
	}
	for i, col := range s.cols {
		r, _ := col.replicaOnLocked(sh.id)
		keys[i] = r.lpn
	}
	return sh, nil
}

// route executes a (normalized) expression, preferring shard-local
// execution and recursing into scatter/gather otherwise. It runs on
// route scratch from the free list, returned once the query's shard
// tickets have been waited on.
func (c *Cluster) route(e *plan.Expr, scheme ssd.Scheme) (QueryResult, error) {
	s := c.scratch.take()
	defer c.scratch.put(s)
	return c.routeOn(s, e, scheme)
}

// routeOn is route on the caller's scratch.
func (c *Cluster) routeOn(s *routeScratch, e *plan.Expr, scheme ssd.Scheme) (QueryResult, error) {
	if e.IsLeaf() {
		return c.routeLeaf(e.LPN)
	}
	s.leaves = e.AppendLeaves(s.leaves[:0])
	sh, err := c.colocatedShard(s)
	if err != nil {
		return QueryResult{}, err
	}
	if sh != nil {
		return c.execLocal(sh, e, s, scheme)
	}
	// Scatter: route each argument independently, gather, combine in
	// host software. This level is done with the scratch, so each
	// sub-route reuses it in turn.
	pages := make([][]byte, len(e.Args))
	var slowest sim.Duration
	for i, a := range e.Args {
		sub, err := c.routeOn(s, a, scheme)
		if err != nil {
			return QueryResult{}, err
		}
		pages[i] = sub.Data
		if sub.Elapsed > slowest {
			slowest = sub.Elapsed
		}
	}
	out, err := plan.Combine(e.Op, pages)
	if err != nil {
		return QueryResult{}, err
	}
	return QueryResult{
		Data:    out,
		Elapsed: slowest + plan.CombineCost(len(pages), len(out)),
		Route:   RouteScatter,
	}, nil
}

// routeLeaf serves a bare column read inside a scattered query.
func (c *Cluster) routeLeaf(key uint64) (QueryResult, error) {
	c.mu.RLock()
	col := c.columns[key]
	var sh *Shard
	var rep replica
	ok := false
	if col != nil {
		sh, rep, ok = c.liveLeastLoadedLocked(col.replicas)
	}
	c.mu.RUnlock()
	if col == nil {
		return QueryResult{}, fmt.Errorf("%w: key %d", ErrUnknownColumn, key)
	}
	if !ok {
		c.tele.cUnavailable.Add(1)
		return QueryResult{}, fmt.Errorf("%w: column %d", ErrUnavailable, key)
	}
	sh.reads.Add(1)
	res := sh.sched.Submit(sched.Command{Kind: sched.KindRead, LPN: rep.lpn, ToHost: true}).Wait()
	if res.Err != nil {
		return QueryResult{}, fmt.Errorf("cluster: read key %d shard %d: %w", key, sh.id, res.Err)
	}
	return QueryResult{Data: res.Data, Elapsed: resultEnd(res).Sub(res.Start), Route: RouteLocal}, nil
}

// execLocal runs the whole expression on one shard. s.leaves holds the
// shard-local page of each leaf, in e.Leaves order; the shard's device
// compiles e over them, so the tree is never rebuilt for the shard.
// Wire-expressible shapes cross the shard's queue pair first — encode,
// bounded submit, device-side parse — so what executes is exactly what
// survived the wire.
func (c *Cluster) execLocal(sh *Shard, e *plan.Expr, s *routeScratch, scheme ssd.Scheme) (QueryResult, error) {
	route, lpns := RouteLocal, s.leaves
	empty := nvme.Formula{Terms: s.formula.Terms[:0], Combine: s.formula.Combine[:0]}
	if f, ok := plan.AppendFormula(empty, e, c.PageSize()); ok {
		s.formula = f
		// AppendFormula lays the leaves out in Leaves order, two per term.
		for i := range f.Terms {
			f.Terms[i].M.LBA, f.Terms[i].N.LBA = lpns[2*i], lpns[2*i+1]
		}
		// The scheme rides DWord 14 of every command, so on the wire route
		// the device executes under what survived the encoding — not an
		// out-of-band copy.
		f.Scheme, f.SchemeValid = uint8(scheme), true
		wired, wireScheme, werr := c.throughWire(sh, f, s)
		if werr != nil {
			// Queue full or a wire anomaly: fall back to the direct
			// planner path rather than failing the query.
			c.tele.sink.Counter("cluster.wire.fallback").Add(1)
		} else {
			// The parsed tree names the shard's pages itself.
			e, lpns, scheme, route = wired, nil, wireScheme, RouteWire
		}
	}
	sh.reads.Add(1)
	res := sh.sched.Submit(sched.Command{
		Kind: sched.KindQuery, Query: e, LPNs: lpns, Scheme: scheme, ToHost: true,
	}).Wait()
	if res.Err != nil {
		return QueryResult{}, fmt.Errorf("cluster: query shard %d: %w", sh.id, res.Err)
	}
	return QueryResult{Data: res.Data, Elapsed: resultEnd(res).Sub(res.Start), Route: route}, nil
}

// throughWire pushes a formula through the shard's NVMe queue pair and
// lifts the device-side parse back into an expression, together with the
// placement scheme recovered from the stream's DWord 14 hints. The
// command streams, the batches and the lifted tree live in s.
func (c *Cluster) throughWire(sh *Shard, f nvme.Formula, s *routeScratch) (*plan.Expr, ssd.Scheme, error) {
	var err error
	if s.cmds, err = nvme.AppendCommands(s.cmds[:0], f, c.PageSize()); err != nil {
		return nil, 0, err
	}
	if s.wire, err = sh.qp.AppendExchange(s.wire[:0], s.cmds); err != nil {
		return nil, 0, err
	}
	scheme, ok, err := nvme.StreamScheme(s.wire)
	if err != nil {
		return nil, 0, err
	}
	if !ok {
		return nil, 0, fmt.Errorf("%w: stream carries no scheme hint", nvme.ErrBadCommand)
	}
	batches, err := s.parser.Parse(s.wire, c.PageSize())
	if err != nil {
		return nil, 0, err
	}
	e, err := s.tree.FromBatches(batches, c.PageSize())
	if err != nil {
		return nil, 0, err
	}
	return e, ssd.Scheme(scheme), nil
}

// resultEnd returns a command's completion instant (host transfer
// included when it shipped bytes).
func resultEnd(r sched.Result) sim.Time { return sim.Max(r.Done, r.HostDone) }
