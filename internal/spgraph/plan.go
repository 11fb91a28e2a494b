package spgraph

import (
	"fmt"
	"sync"

	"repro/internal/dag"
	"repro/internal/distribution"
	"repro/internal/failure"
)

// A Plan is the compiled reduction/duplication schedule of one Dodin run.
// Every decision Dodin makes — which arcs merge in series or parallel,
// which join node is duplicated — depends only on the network's topology,
// never on the arc distributions, so Compile records the schedule without
// any arithmetic and Run replays it under any failure model. Run is the
// only code that evaluates Dodin's distributions: Dodin, DodinPlan, the
// artifact store's plan rule and the experiments sweep all go through it.
//
// Run is safe for concurrent use: the sweep scheduler and makespand
// replay one cached plan for every pfail point.
type Plan struct {
	// init describes the initial arcs in creation order: the task ID whose
	// two-state distribution the arc carries, or -1 for a zero-length
	// precedence arc.
	init []int32
	// weights snapshots the task weights at compile time.
	weights []float64
	// ops is the recorded schedule. Arc IDs index Run's slot array:
	// initial arcs first, every opAdd/opMove/opCopy appending one more.
	ops      []planOp
	result   int32
	nArcs    int
	maxAtoms int // 0 = unlimited
	stats    DodinStats

	pool sync.Pool // *planScratch
}

type planOp struct {
	kind uint8
	a, b int32
}

// The op kinds. Each one also says which arcs the network killed, so Run
// drops those slots as it goes and holds only the live arcs' distributions.
const (
	// opMax: dist[a] = MaxIndCapped(dist[a], dist[b]) — a parallel merge
	// into the surviving arc a; b dies.
	opMax uint8 = iota
	// opAdd: append AddCapped(dist[a], dist[b]) — a series reduction
	// creating a new arc; a and b die.
	opAdd
	// opMove: append dist[a] — a duplication re-homing arc a onto the
	// fresh node; a dies.
	opMove
	// opCopy: append dist[a] — a duplication copying an outgoing arc;
	// a stays alive.
	opCopy
)

type planScratch struct {
	dists []distribution.Discrete
	s     distribution.Scratch
}

// Compile walks Dodin's reductions and duplications on g's topology and
// records them as a Plan. maxAtoms caps distribution supports during
// replay: 0 means DefaultMaxAtoms, a negative value means unlimited
// (exact arithmetic, for small graphs).
func Compile(g *dag.Graph, maxAtoms int) (*Plan, error) {
	if maxAtoms == 0 {
		maxAtoms = DefaultMaxAtoms
	}
	if maxAtoms < 0 {
		maxAtoms = 0
	}
	net, err := FromDAG(g)
	if err != nil {
		return nil, err
	}
	result, stats, err := net.reduce()
	if err != nil {
		return nil, err
	}
	return &Plan{
		init:     net.init,
		weights:  g.Weights(),
		ops:      net.ops,
		result:   int32(result),
		nArcs:    len(net.arcs),
		maxAtoms: maxAtoms,
		stats:    stats,
	}, nil
}

// DodinPlan compiles g and runs the plan once under model: it returns
// Dodin's result together with the plan for replay under other models.
func DodinPlan(g *dag.Graph, model failure.Model, maxAtoms int) (Result, DodinStats, *Plan, error) {
	plan, err := Compile(g, maxAtoms)
	if err != nil {
		return Result{}, DodinStats{}, nil, err
	}
	res, err := plan.Run(model)
	if err != nil {
		return Result{}, plan.Stats(), nil, err
	}
	return res, plan.Stats(), plan, nil
}

// Stats returns the duplication/reduction counts of the recorded run;
// they are topology-only and hold for every replay.
func (p *Plan) Stats() DodinStats { return p.stats }

// SizeBytes reports the approximate retained heap size of the recorded
// schedule (initial-arc table, weight snapshot and op list), excluding
// pooled replay scratch. Used by the makespand registry's byte budget.
func (p *Plan) SizeBytes() int64 {
	s := int64(len(p.init)) * 4
	s += int64(len(p.weights)) * 8
	s += int64(len(p.ops)) * 12 // planOp: uint8 + 2×int32, aligned
	return s + 96               // struct header + pool
}

// Run evaluates the plan under model: Dodin's makespan distribution of
// the compiled graph. Safe for concurrent use; scratch buffers are pooled
// across calls.
func (p *Plan) Run(model failure.Model) (Result, error) {
	return p.run(model, nil)
}

// run is Run with an optional step hook, called with the slot array after
// every op (tests mirror the network's liveness with it).
func (p *Plan) run(model failure.Model, step func(dists []distribution.Discrete)) (Result, error) {
	ps, _ := p.pool.Get().(*planScratch)
	if ps == nil {
		ps = &planScratch{}
	}
	if cap(ps.dists) < p.nArcs {
		ps.dists = make([]distribution.Discrete, 0, p.nArcs)
	}
	// Drop references on return so pooled scratch pins no distribution.
	defer func() {
		clear(ps.dists[:cap(ps.dists)])
		p.pool.Put(ps)
	}()
	dists := ps.dists[:0]
	zero := distribution.Point(0)
	for _, task := range p.init {
		if task < 0 {
			dists = append(dists, zero)
			continue
		}
		a := p.weights[task]
		d, err := distribution.TwoState(a, model.PSuccess(a))
		if err != nil {
			return Result{}, fmt.Errorf("spgraph: task %d: %w", task, err)
		}
		dists = append(dists, d)
	}
	var dead distribution.Discrete
	for _, op := range p.ops {
		switch op.kind {
		case opMax:
			dists[op.a] = dists[op.a].MaxIndCapped(dists[op.b], p.maxAtoms, &ps.s)
			dists[op.b] = dead
		case opAdd:
			dists = append(dists, dists[op.a].AddCapped(dists[op.b], p.maxAtoms, &ps.s))
			dists[op.a], dists[op.b] = dead, dead
		case opMove:
			dists = append(dists, dists[op.a])
			dists[op.a] = dead
		default: // opCopy
			dists = append(dists, dists[op.a])
		}
		if step != nil {
			step(dists)
		}
	}
	d := dists[p.result]
	return Result{Estimate: d.Mean(), Distribution: d}, nil
}
