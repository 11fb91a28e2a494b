package spgraph

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sync"
	"testing"

	"repro/internal/dag"
	"repro/internal/distribution"
	"repro/internal/failure"
	"repro/internal/linalg"
)

// testdata/dodin_corpus.json holds the output of the live Dodin network —
// the implementation that convolved while it reduced, before the
// recording became topology-only — on corpusCases: estimate bits, stats
// and a SHA-256 of every atom's value and probability bits, in order.

type corpusEntry struct {
	Name  string `json:"name"`
	Est   uint64 `json:"est_bits"`
	Dups  int    `json:"dups"`
	Reds  int    `json:"reds"`
	Atoms int    `json:"atoms"`
	SHA   string `json:"atoms_sha256"`
}

type corpusGraph struct {
	name string
	g    *dag.Graph
	caps []int
}

type corpusCase struct {
	graph *corpusGraph
	name  string
	cap   int
	pfail float64
}

// corpusCases lists the captured inputs: LU/QR/Cholesky k=4–8, seeded
// random DAGs, random series-parallel DAGs and four workflow shapes, each
// at pfail 1e-3 and 1e-2 under the 64- and 1024-atom caps plus uncapped
// (exact) arithmetic on graphs of at most 30 tasks; and an 8×8 wavefront,
// whose plan duplicates heavily, under a 32-atom cap.
func corpusCases(t testing.TB) []corpusCase {
	t.Helper()
	var graphs []*corpusGraph
	add := func(name string, g *dag.Graph, err error) {
		if err != nil {
			t.Fatal(err)
		}
		caps := []int{64, 1024}
		if g.NumTasks() <= 30 {
			caps = append(caps, -1)
		}
		graphs = append(graphs, &corpusGraph{name, g, caps})
	}
	for k := 4; k <= 8; k++ {
		g, err := linalg.LU(k, linalg.KernelTimes{})
		add(fmt.Sprintf("lu%d", k), g, err)
		g, err = linalg.QR(k, linalg.KernelTimes{})
		add(fmt.Sprintf("qr%d", k), g, err)
		g, err = linalg.Cholesky(k, linalg.KernelTimes{})
		add(fmt.Sprintf("cholesky%d", k), g, err)
	}
	rng := rand.New(rand.NewSource(32))
	for _, n := range []int{12, 25, 60} {
		g, err := dag.LayeredRandom(dag.RandomConfig{Tasks: n, EdgeProb: 0.4, MaxLayerWidth: 5}, rng)
		add(fmt.Sprintf("layered%d", n), g, err)
		g, err = dag.ErdosRenyiDAG(dag.RandomConfig{Tasks: n, EdgeProb: 0.2}, rng)
		add(fmt.Sprintf("erdos%d", n), g, err)
		g, err = dag.RandomSeriesParallel(n, dag.RandomConfig{}, rng)
		add(fmt.Sprintf("sp%d", n), g, err)
	}
	add("wavefront6", dag.Wavefront(6, 1.25), nil)
	fft, err := dag.FFT(8, 1)
	add("fft8", fft, err)
	add("pipeline", dag.Pipeline(4, 3, 2), nil)
	add("diamond", dag.Diamond(1, 5, 3, 2), nil)
	graphs = append(graphs, &corpusGraph{"wavefront8", dag.Wavefront(8, 1), []int{32}})

	var out []corpusCase
	for _, gr := range graphs {
		for _, c := range gr.caps {
			for _, pf := range []float64{1e-3, 1e-2} {
				out = append(out, corpusCase{gr, fmt.Sprintf("%s/cap%d/pfail%g", gr.name, c, pf), c, pf})
			}
		}
	}
	return out
}

func (c corpusCase) model(t testing.TB) failure.Model {
	t.Helper()
	m, err := failure.FromPfail(c.pfail, c.graph.g.MeanWeight())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func corpusDigest(name string, res Result, stats DodinStats) corpusEntry {
	h := sha256.New()
	var buf [16]byte
	d := res.Distribution
	for i := 0; i < d.Len(); i++ {
		v, p := d.Atom(i)
		binary.LittleEndian.PutUint64(buf[:8], math.Float64bits(v))
		binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(p))
		h.Write(buf[:])
	}
	return corpusEntry{
		Name:  name,
		Est:   math.Float64bits(res.Estimate),
		Dups:  stats.Duplications,
		Reds:  stats.Reductions,
		Atoms: d.Len(),
		SHA:   hex.EncodeToString(h.Sum(nil)),
	}
}

// Every Dodin entry point reproduces the captured live-network output bit
// for bit: DodinPlan, Dodin, and one plan per (graph, cap) compiled once
// and replayed under every pfail.
func TestPlanReplayMatchesDodin(t *testing.T) {
	raw, err := os.ReadFile("testdata/dodin_corpus.json")
	if err != nil {
		t.Fatal(err)
	}
	var want []corpusEntry
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	cases := corpusCases(t)
	if len(cases) != len(want) {
		t.Fatalf("corpus has %d cases, testdata %d", len(cases), len(want))
	}
	shared := map[*corpusGraph]map[int]*Plan{}
	for i, c := range cases {
		if want[i].Name != c.name {
			t.Fatalf("case %d: name %q, testdata %q", i, c.name, want[i].Name)
		}
		m := c.model(t)
		res, stats, plan, err := DodinPlan(c.graph.g, m, c.cap)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := corpusDigest(c.name, res, stats); got != want[i] {
			t.Fatalf("%s: DodinPlan %+v, captured %+v", c.name, got, want[i])
		}
		direct, dstats, err := Dodin(c.graph.g, m, c.cap)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := corpusDigest(c.name, direct, dstats); got != want[i] {
			t.Fatalf("%s: Dodin %+v, captured %+v", c.name, got, want[i])
		}
		if shared[c.graph] == nil {
			shared[c.graph] = map[int]*Plan{}
		}
		if shared[c.graph][c.cap] == nil {
			shared[c.graph][c.cap] = plan
		}
		sp := shared[c.graph][c.cap]
		replay, err := sp.Run(m)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := corpusDigest(c.name, replay, sp.Stats()); got != want[i] {
			t.Fatalf("%s: shared replay %+v, captured %+v", c.name, got, want[i])
		}
	}
}

// Concurrent replays of one plan (the sweep scheduler's usage) must be
// race-free and each bit-identical to the serial answer.
func TestPlanConcurrentReplay(t *testing.T) {
	g := dag.Wavefront(6, 1.25)
	model, err := failure.FromPfail(0.01, g.MeanWeight())
	if err != nil {
		t.Fatal(err)
	}
	_, _, plan, err := DodinPlan(g, model, 0)
	if err != nil {
		t.Fatal(err)
	}
	pfails := []float64{0.1, 0.03, 0.01, 0.003, 0.001, 0.0003, 0.0001, 0.00003}
	want := make([]float64, len(pfails))
	for i, pf := range pfails {
		m, _ := failure.FromPfail(pf, g.MeanWeight())
		r, err := plan.Run(m)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r.Estimate
	}
	var wg sync.WaitGroup
	errs := make([]error, len(pfails))
	got := make([]float64, len(pfails))
	for rep := 0; rep < 4; rep++ {
		for i, pf := range pfails {
			wg.Add(1)
			go func(i int, pf float64) {
				defer wg.Done()
				m, _ := failure.FromPfail(pf, g.MeanWeight())
				r, err := plan.Run(m)
				if err != nil {
					errs[i] = err
					return
				}
				got[i] = r.Estimate
			}(i, pf)
		}
		wg.Wait()
		for i := range pfails {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			if got[i] != want[i] {
				t.Fatalf("concurrent replay %d: %v != %v", i, got[i], want[i])
			}
		}
	}
}

// planLiveness mirrors the network's arc liveness over the op list:
// opMax kills b, opAdd kills a and b, opMove kills a, and every op but
// opMax appends a live arc.
type planLiveness struct {
	alive []bool
	live  int
}

func newPlanLiveness(p *Plan) *planLiveness {
	l := &planLiveness{alive: make([]bool, len(p.init), p.nArcs), live: len(p.init)}
	for i := range l.alive {
		l.alive[i] = true
	}
	return l
}

func (l *planLiveness) apply(op planOp) {
	kill := func(id int32) {
		l.alive[id] = false
		l.live--
	}
	switch op.kind {
	case opMax:
		kill(op.b)
	case opAdd:
		kill(op.a)
		kill(op.b)
		l.alive = append(l.alive, true)
		l.live++
	case opMove:
		kill(op.a)
		l.alive = append(l.alive, true)
		l.live++
	default: // opCopy
		l.alive = append(l.alive, true)
		l.live++
	}
}

// Run holds a distribution only for arcs the recording still had alive,
// so its live slots are bounded by the peak live arcs, not by every arc
// the plan ever created. full checks every slot after every op (small
// plans); otherwise the slots the op touched are checked after every op
// and every slot every 1024 ops — slots an op does not name never change.
func checkRunLiveness(t *testing.T, name string, p *Plan, m failure.Model, full bool) (peak int) {
	t.Helper()
	l := newPlanLiveness(p)
	check := func(dists []distribution.Discrete, ids ...int) {
		for _, id := range ids {
			if dists[id].IsZero() == l.alive[id] {
				t.Fatalf("%s: slot %d holds a distribution %v, recording has it alive %v", name, id, !dists[id].IsZero(), l.alive[id])
			}
		}
	}
	all := func(dists []distribution.Discrete) {
		for id := range dists {
			check(dists, id)
		}
	}
	step := 0
	want, err := p.Run(m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.run(m, func(dists []distribution.Discrete) {
		op := p.ops[step]
		step++
		l.apply(op)
		peak = max(peak, l.live)
		if len(dists) != len(l.alive) {
			t.Fatalf("%s: op %d: %d slots, recording has %d arcs", name, step, len(dists), len(l.alive))
		}
		if full || step%1024 == 0 {
			all(dists)
			return
		}
		check(dists, int(op.a), len(dists)-1)
		if op.kind != opMove && op.kind != opCopy {
			check(dists, int(op.b))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if step != len(p.ops) || len(l.alive) != p.nArcs || l.live != 1 || !l.alive[p.result] {
		t.Fatalf("%s: %d/%d ops, %d/%d arcs, %d live at the end", name, step, len(p.ops), len(l.alive), p.nArcs, l.live)
	}
	if math.Float64bits(got.Estimate) != math.Float64bits(want.Estimate) {
		t.Fatalf("%s: hooked run %v != Run %v", name, got.Estimate, want.Estimate)
	}
	return peak
}

func TestPlanRunDropsDeadArcs(t *testing.T) {
	for name, g := range map[string]*dag.Graph{
		"wavefront6": dag.Wavefront(6, 1.25),
		"diamond":    dag.Diamond(1, 5, 3, 2),
		"empty":      dag.New(0),
	} {
		p, err := Compile(g, 0)
		if err != nil {
			t.Fatal(err)
		}
		checkRunLiveness(t, name, p, failure.Model{Lambda: 0.05}, true)
	}
	g, err := linalg.LU(16, linalg.KernelTimes{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	m, err := failure.FromPfail(1e-3, g.MeanWeight())
	if err != nil {
		t.Fatal(err)
	}
	peak := checkRunLiveness(t, "lu16", p, m, false)
	if peak*5 > p.nArcs {
		t.Fatalf("LU k=16: peak %d live slots of %d arcs, want ≤ 20%%", peak, p.nArcs)
	}
	t.Logf("LU k=16: %d ops, %d arcs, peak %d live (%.1f%%)", len(p.ops), p.nArcs, peak, 100*float64(peak)/float64(p.nArcs))
}
