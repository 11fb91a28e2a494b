package dag

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// jsonGraph is the graph schema as encoding/json sees it. Decoding
// into it with json.Unmarshal and adding the tasks and edges one by
// one is the reference DecodeJSON is held to; json.Marshal of it is
// the reference for AppendJSON.
type jsonGraph struct {
	Tasks []jsonTask `json:"tasks"`
	Edges [][2]int   `json:"edges"`
}

type jsonTask struct {
	Name   string  `json:"name"`
	Weight float64 `json:"weight"`
}

// oracleDecode is the reflection decoder DecodeJSON replaced.
func oracleDecode(data []byte) (*Graph, error) {
	var jg jsonGraph
	if err := json.Unmarshal(data, &jg); err != nil {
		return nil, err
	}
	g := New(len(jg.Tasks))
	for _, t := range jg.Tasks {
		if _, err := g.AddTask(t.Name, t.Weight); err != nil {
			return nil, fmt.Errorf("dag: bad task %q: %w", t.Name, err)
		}
	}
	for _, e := range jg.Edges {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			return nil, fmt.Errorf("dag: bad edge %v: %w", e, err)
		}
	}
	return g, nil
}

// oracleSchema is the jsonGraph the reflection encoder marshalled.
func oracleSchema(g *Graph) jsonGraph {
	jg := jsonGraph{Tasks: make([]jsonTask, g.NumTasks())}
	for i := range jg.Tasks {
		jg.Tasks[i] = jsonTask{Name: g.Name(i), Weight: g.Weight(i)}
	}
	for u := 0; u < g.NumTasks(); u++ {
		for _, v := range g.Succ(u) {
			jg.Edges = append(jg.Edges, [2]int{u, v})
		}
	}
	return jg
}

// sameGraph fails t unless got and want have the same tasks (names,
// weight bits), edge count and successor and predecessor lists in the
// same order.
func sameGraph(t *testing.T, got, want *Graph) {
	t.Helper()
	if got.NumTasks() != want.NumTasks() || got.NumEdges() != want.NumEdges() {
		t.Fatalf("shape: got %d tasks %d edges, want %d tasks %d edges",
			got.NumTasks(), got.NumEdges(), want.NumTasks(), want.NumEdges())
	}
	for i := 0; i < want.NumTasks(); i++ {
		if got.Name(i) != want.Name(i) {
			t.Fatalf("task %d name %q, want %q", i, got.Name(i), want.Name(i))
		}
		if math.Float64bits(got.Weight(i)) != math.Float64bits(want.Weight(i)) {
			t.Fatalf("task %d weight %v, want %v", i, got.Weight(i), want.Weight(i))
		}
		if fmt.Sprint(got.Succ(i)) != fmt.Sprint(want.Succ(i)) {
			t.Fatalf("task %d succ %v, want %v", i, got.Succ(i), want.Succ(i))
		}
		if fmt.Sprint(got.Pred(i)) != fmt.Sprint(want.Pred(i)) {
			t.Fatalf("task %d pred %v, want %v", i, got.Pred(i), want.Pred(i))
		}
	}
}

// FuzzGraphJSON holds the hand-written codec to encoding/json: both
// decoders accept and reject the same documents, with the same
// "dag: bad task/edge" errors; accepted documents give equal graphs;
// AppendJSON and WriteJSON emit what json.Marshal and
// json.MarshalIndent emit for the reference schema; and the canonical
// bytes decode back to the same tasks and successor lists.
func FuzzGraphJSON(f *testing.F) {
	for _, seed := range []int64{1, 2} {
		g, err := LayeredRandom(RandomConfig{Tasks: 60, EdgeProb: 0.6, MaxLayerWidth: 30}, rand.New(rand.NewSource(seed)))
		if err != nil {
			f.Fatal(err)
		}
		raw, err := json.Marshal(oracleSchema(g))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Add([]byte(`{"x":` + strings.Repeat("[", maxJSONDepth-1) + strings.Repeat("]", maxJSONDepth-1) + `}`))
	f.Add([]byte(`{"x":` + strings.Repeat("[", maxJSONDepth) + strings.Repeat("]", maxJSONDepth) + `}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		want, wantErr := oracleDecode(data)
		got, err := DecodeJSON(data)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("DecodeJSON error %v, encoding/json error %v", err, wantErr)
		}
		if wantErr != nil {
			if strings.HasPrefix(wantErr.Error(), "dag: bad ") && err.Error() != wantErr.Error() {
				t.Fatalf("DecodeJSON error %q, want %q", err, wantErr)
			}
			return
		}
		sameGraph(t, got, want)

		canonical := got.AppendJSON(nil)
		wantCanonical, err := json.Marshal(oracleSchema(want))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(canonical, wantCanonical) {
			t.Fatalf("AppendJSON:\n%s\nwant\n%s", canonical, wantCanonical)
		}
		if viaMarshaler, err := json.Marshal(got); err != nil || !bytes.Equal(viaMarshaler, canonical) {
			t.Fatalf("json.Marshal(graph) = %s, %v; want the canonical bytes", viaMarshaler, err)
		}
		var pretty bytes.Buffer
		if err := WriteJSON(&pretty, got); err != nil {
			t.Fatal(err)
		}
		wantPretty, err := json.MarshalIndent(oracleSchema(want), "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(pretty.Bytes(), append(wantPretty, '\n')) {
			t.Fatalf("WriteJSON:\n%s\nwant\n%s", pretty.Bytes(), wantPretty)
		}

		// The canonical form keeps tasks and successor order but lists
		// edges by source, so predecessor order may change once; from
		// there on the encoding is a fixed point.
		back, err := DecodeJSON(canonical)
		if err != nil {
			t.Fatalf("canonical bytes do not decode: %v\n%s", err, canonical)
		}
		wantBack, err := oracleDecode(canonical)
		if err != nil {
			t.Fatal(err)
		}
		sameGraph(t, back, wantBack)
		for i := 0; i < got.NumTasks(); i++ {
			if fmt.Sprint(back.Succ(i)) != fmt.Sprint(got.Succ(i)) {
				t.Fatalf("task %d succ %v after a round trip, want %v", i, back.Succ(i), got.Succ(i))
			}
		}
		if again := back.AppendJSON(nil); !bytes.Equal(again, canonical) {
			t.Fatalf("canonical bytes re-encode as\n%s\nwant\n%s", again, canonical)
		}
	})
}

func TestDecodeJSONAdjacencyDoesNotAlias(t *testing.T) {
	g, err := DecodeJSON([]byte(`{"tasks":[{},{},{},{}],"edges":[[0,1],[1,2],[0,2],[2,3]]}`))
	if err != nil {
		t.Fatal(err)
	}
	g.MustAddEdge(0, 3)
	g.MustAddEdge(1, 3)
	want := map[int][2]string{0: {"[1 2 3]", "[]"}, 1: {"[2 3]", "[0]"}, 2: {"[3]", "[1 0]"}, 3: {"[]", "[2 0 1]"}}
	for u, lists := range want {
		if got := fmt.Sprint(g.Succ(u)); got != lists[0] {
			t.Errorf("succ(%d) = %s, want %s", u, got, lists[0])
		}
		if got := fmt.Sprint(g.Pred(u)); got != lists[1] {
			t.Errorf("pred(%d) = %s, want %s", u, got, lists[1])
		}
	}
	if err := g.AddEdge(0, 1); err == nil {
		t.Fatal("duplicate edge accepted after a bulk decode")
	}
}

// Benchmark results land here so the compiler keeps the measured calls.
var (
	benchGraph *Graph
	benchBytes []byte
)

// benchGraphJSON is an inline-sized request graph: a 300-task
// Erdős–Rényi DAG at edge probability 0.15, about 130 KB of JSON.
func benchGraphJSON(b *testing.B) []byte {
	b.Helper()
	g, err := ErdosRenyiDAG(RandomConfig{Tasks: 300, MinWeight: 0.5, MaxWeight: 2, EdgeProb: 0.15}, rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	return g.AppendJSON(nil)
}

func BenchmarkDecodeJSON(b *testing.B) {
	raw := benchGraphJSON(b)
	b.SetBytes(int64(len(raw)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if benchGraph, err = DecodeJSON(raw); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeJSONOracle(b *testing.B) {
	raw := benchGraphJSON(b)
	b.SetBytes(int64(len(raw)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := oracleDecode(raw); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAppendJSON(b *testing.B) {
	g, err := DecodeJSON(benchGraphJSON(b))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchBytes = g.AppendJSON(nil)
	}
}

func BenchmarkAppendJSONOracle(b *testing.B) {
	g, err := DecodeJSON(benchGraphJSON(b))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := json.Marshal(oracleSchema(g)); err != nil {
			b.Fatal(err)
		}
	}
}
