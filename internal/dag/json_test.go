package dag

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

func TestJSONRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g, _ := LayeredRandom(RandomConfig{Tasks: 30, EdgeProb: 0.3, MaxLayerWidth: 5}, rng)
	var buf bytes.Buffer
	if err := WriteJSON(&buf, g); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumTasks() != g.NumTasks() || got.NumEdges() != g.NumEdges() {
		t.Fatalf("shape changed: %v vs %v", got, g)
	}
	for i := 0; i < g.NumTasks(); i++ {
		if got.Name(i) != g.Name(i) || got.Weight(i) != g.Weight(i) {
			t.Fatalf("task %d changed", i)
		}
		if len(got.Succ(i)) != len(g.Succ(i)) {
			t.Fatalf("succ %d changed", i)
		}
		for k, s := range g.Succ(i) {
			if got.Succ(i)[k] != s {
				t.Fatalf("succ %d order changed", i)
			}
		}
	}
	d1, _ := Makespan(g)
	d2, _ := Makespan(got)
	if d1 != d2 {
		t.Fatalf("makespans differ: %v %v", d1, d2)
	}
}

func TestReadJSONRejectsCycle(t *testing.T) {
	in := `{"tasks":[{"name":"a","weight":1},{"name":"b","weight":1}],
	        "edges":[[0,1],[1,0]]}`
	if _, err := ReadJSON(strings.NewReader(in)); err == nil {
		t.Fatal("expected cycle error")
	}
}

func TestReadJSONRejectsBadEdge(t *testing.T) {
	in := `{"tasks":[{"name":"a","weight":1}],"edges":[[0,5]]}`
	if _, err := ReadJSON(strings.NewReader(in)); err == nil {
		t.Fatal("expected bad edge error")
	}
}

func TestReadJSONRejectsBadWeight(t *testing.T) {
	in := `{"tasks":[{"name":"a","weight":-3}],"edges":[]}`
	if _, err := ReadJSON(strings.NewReader(in)); err == nil {
		t.Fatal("expected bad weight error")
	}
}

func TestReadJSONRejectsGarbage(t *testing.T) {
	if _, err := ReadJSON(strings.NewReader("{nope")); err == nil {
		t.Fatal("expected parse error")
	}
}

func TestDecodeEnvelope(t *testing.T) {
	const g = `{"tasks":[{"name":"a","weight":1},{"name":"b","weight":2}],"edges":[[0,1]]}`
	cases := []struct {
		name, doc string
		rest      string // "" when the document is malformed
		graph     string // the member's bytes; "" when there is none
	}{
		{"members around the graph", `{"a":1, "graph" : ` + g + ` ,"b" : [2] }`, `{"a":1,"b" : [2]}`, g},
		{"no members", `{}`, `{}`, ""},
		{"only the graph", ` {"graph":` + g + `} `, `{}`, g},
		{"last occurrence wins", `{"graph":{"tasks":7},"GRAPH":` + g + `}`, `{}`, g},
		{"escaped key", `{"gr\u0061ph":{"tasks":"x"},"x":null}`, `{"x":null}`, `{"tasks":"x"}`},
		{"null is a graph", `{"Graph":` + g + `,"graph":null}`, `{}`, `null`},
		{"bad graph", `{"graph": {"tasks":[{"name":"a","weight":1}],"edges":[[0,1.5]]}}`, `{}`,
			`{"tasks":[{"name":"a","weight":1}],"edges":[[0,1.5]]}`},
		{"not an object", ` [1, {"graph":7}]`, ` [1, {"graph":7}]`, ""},
		{"data after the body", `{"graph":` + g + `} x`, "", ""},
		{"syntax error after a graph error", `{"graph":{"tasks":7},"a":}`, "", ""},
		{"syntax error inside the graph", `{"graph":{"tasks":[1e]}}`, "", ""},
		{"empty", ``, "", ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			env, err := DecodeEnvelope([]byte(tc.doc), "graph")
			if tc.rest == "" {
				if err == nil {
					t.Fatalf("want an error, got %+v", env)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if string(env.Rest) != tc.rest {
				t.Fatalf("rest %q, want %q", env.Rest, tc.rest)
			}
			if env.HasGraph != (tc.graph != "") {
				t.Fatalf("HasGraph %v", env.HasGraph)
			}
			if !env.HasGraph {
				return
			}
			// The member decodes as DecodeJSON decodes its bytes alone,
			// error offsets included.
			want, wantErr := DecodeJSON([]byte(tc.graph))
			if wantErr != nil {
				if env.GraphErr == nil || env.GraphErr.Error() != wantErr.Error() {
					t.Fatalf("graph error %v, want %v", env.GraphErr, wantErr)
				}
				return
			}
			if env.GraphErr != nil {
				t.Fatal(env.GraphErr)
			}
			sameGraph(t, env.Graph, want)
		})
	}
}

func TestWriteDot(t *testing.T) {
	g := Diamond(1, 2, 3, 4)
	var buf bytes.Buffer
	err := WriteDot(&buf, g, DotOptions{ShowWeights: true, Highlight: []int{0, 1, 3}, RankDir: "LR"})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"digraph G", "rankdir=LR", "n0 -> n1", "color=red", "src"} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT output missing %q:\n%s", want, out)
		}
	}
	// Edge inside the highlighted path is red; edge leaving it is not.
	if !strings.Contains(out, "n0 -> n1 [color=red];") {
		t.Errorf("highlighted edge not red")
	}
	if strings.Contains(out, "n0 -> n2 [color=red];") {
		t.Errorf("non-highlighted edge red")
	}
}

func TestDotID(t *testing.T) {
	if dotID("abc_1") != "abc_1" {
		t.Errorf("plain id quoted")
	}
	if dotID("a b") != `"a b"` {
		t.Errorf("id with space not quoted: %s", dotID("a b"))
	}
	if dotID("") != `""` {
		t.Errorf("empty id: %s", dotID(""))
	}
}

func TestForkJoinShape(t *testing.T) {
	g := ForkJoin(5, 2.0)
	if g.NumTasks() != 7 {
		t.Fatalf("tasks = %d want 7", g.NumTasks())
	}
	if g.NumEdges() != 10 {
		t.Fatalf("edges = %d want 10", g.NumEdges())
	}
	d, _ := Makespan(g)
	if d != 2 {
		t.Fatalf("fork-join makespan = %v want 2", d)
	}
}

func TestOutTreeShape(t *testing.T) {
	g := OutTree(3, 2, 1.0)
	if g.NumTasks() != 7 { // 1 + 2 + 4
		t.Fatalf("tasks = %d want 7", g.NumTasks())
	}
	d, _ := Makespan(g)
	if d != 3 {
		t.Fatalf("tree makespan = %v want 3", d)
	}
	if g := OutTree(0, 0, 1); g.NumTasks() != 1 {
		t.Fatalf("degenerate tree")
	}
}

func TestChainWeightsCycle(t *testing.T) {
	g := Chain(5, 1, 2)
	want := []float64{1, 2, 1, 2, 1}
	for i, w := range want {
		if g.Weight(i) != w {
			t.Fatalf("weight %d = %v want %v", i, g.Weight(i), w)
		}
	}
}
