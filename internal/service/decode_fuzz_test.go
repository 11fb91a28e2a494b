package service

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/dag"
)

// The request decoding decodeRequest replaced, kept as the oracle: one
// encoding/json pass over the whole body into the request struct, with
// the "graph" member held as a json.RawMessage, then dag.DecodeJSON on
// those bytes. Each oracle type is its request type plus that member.
type (
	oracleEstimate struct {
		estimateRequest
		Graph json.RawMessage `json:"graph,omitempty"`
	}
	oracleSchedule struct {
		scheduleRequest
		Graph json.RawMessage `json:"graph,omitempty"`
	}
	oracleSweep struct {
		sweepRequest
		Graph json.RawMessage `json:"graph,omitempty"`
	}
	oracleGraphRef struct {
		graphRef
		Graph json.RawMessage `json:"graph,omitempty"`
	}
)

// oracleDecodeRequest is the replica's old decodeJSON on an in-memory
// body: a json.Decoder that rejects unknown fields and ignores what
// follows the first value, which trailing reports.
func oracleDecodeRequest(body []byte, v any) (trailing bool, err error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return false, err
	}
	return len(bytes.TrimLeft(body[dec.InputOffset():], " \t\r\n")) > 0, nil
}

// oracleExtractSelector is the lb's old ExtractSelector.
func oracleExtractSelector(body []byte) (oracleGraphRef, error) {
	var sel oracleGraphRef
	err := json.Unmarshal(body, &sel)
	return sel, err
}

// oracleGraph is the oracle's inline graph: set when the member is
// present, then DecodeJSON's result on its bytes.
type oracleGraph struct {
	set bool
	g   *dag.Graph
	err error
}

func decodeOracleGraph(raw json.RawMessage) oracleGraph {
	if len(raw) == 0 {
		return oracleGraph{}
	}
	g, err := dag.DecodeJSON(raw)
	return oracleGraph{set: true, g: g, err: err}
}

// selector gives the tests every request type's embedded selector.
func (sel *RoutingSelector) selector() *RoutingSelector { return sel }

// sameInline fails t unless sel's decoded graph member is want: both
// absent, or the same graph by its canonical bytes, or the same error
// text.
func sameInline(t *testing.T, who string, sel *RoutingSelector, want oracleGraph) {
	t.Helper()
	if sel.hasGraph != want.set {
		t.Fatalf("%s: graph member present %v, oracle %v", who, sel.hasGraph, want.set)
	}
	if !want.set {
		return
	}
	if (sel.graphErr == nil) != (want.err == nil) {
		t.Fatalf("%s: graph error %v, oracle %v", who, sel.graphErr, want.err)
	}
	if want.err != nil {
		if sel.graphErr.Error() != want.err.Error() {
			t.Fatalf("%s: graph error %q, oracle %q", who, sel.graphErr, want.err)
		}
		return
	}
	if got, exp := sel.graph.AppendJSON(nil), want.g.AppendJSON(nil); !bytes.Equal(got, exp) {
		t.Fatalf("%s: graph %s, oracle %s", who, got, exp)
	}
}

// checkRequestDecode holds decodeRequest to the oracle for one request
// type T with oracle twin O, whose request part and graph bytes split
// returns. It returns the replica's decoded selector, or nil when the
// body is rejected.
func checkRequestDecode[T any, O any](t *testing.T, body []byte, split func(*O) (*T, json.RawMessage)) *RoutingSelector {
	t.Helper()
	var got T
	gotV := any(&got).(interface {
		requestBody
		selector() *RoutingSelector
	})
	err := decodeRequest(body, gotV, true)
	var o O
	trailing, wantErr := oracleDecodeRequest(body, &o)
	name := reflect.TypeOf(got).Name()
	switch {
	case wantErr != nil:
		if err == nil {
			t.Fatalf("%s: accepted %q, oracle: %v", name, body, wantErr)
		}
		return nil
	case trailing:
		if err == nil {
			t.Fatalf("%s: accepted %q with data after the body", name, body)
		}
		return nil
	case err != nil:
		t.Fatalf("%s: rejected %q (%v), oracle accepts", name, body, err)
	}
	want, raw := split(&o)
	sel := *gotV.selector()
	sameInline(t, name, &sel, decodeOracleGraph(raw))
	// Everything but the graph member decodes as encoding/json decodes it.
	gotV.selector().setGraph(dag.Envelope{})
	if !reflect.DeepEqual(&got, want) {
		t.Fatalf("%s: decoded %+v, oracle %+v", name, got, *want)
	}
	return &sel
}

// FuzzRequestDecode holds both hops' one-pass request decoding to the
// encoding/json decoding it replaced, for every request type: the same
// bodies are accepted and rejected (except that data after the body is
// now an error), non-graph fields decode equal, the inline graph is the
// same graph or fails with the same error text, and the lb's selector
// matches the oracle's and, when the replica accepts, the replica's.
func FuzzRequestDecode(f *testing.F) {
	f.Add([]byte(`{"graph":{"tasks":[{"name":"a","weight":1},{"name":"b","weight":2}],"edges":[[0,1]]},"pfail":0.01,"methods":"First Order","trials":100,"seed":7}`))
	f.Add([]byte(`{"kind":"lu","k":6,"procs":4,"policies":"cp","pfails":[0.1],"quantiles":[0.5]}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		sels := []*RoutingSelector{
			checkRequestDecode(t, body, func(o *oracleEstimate) (*estimateRequest, json.RawMessage) { return &o.estimateRequest, o.Graph }),
			checkRequestDecode(t, body, func(o *oracleSchedule) (*scheduleRequest, json.RawMessage) { return &o.scheduleRequest, o.Graph }),
			checkRequestDecode(t, body, func(o *oracleSweep) (*sweepRequest, json.RawMessage) { return &o.sweepRequest, o.Graph }),
			checkRequestDecode(t, body, func(o *oracleGraphRef) (*graphRef, json.RawMessage) { return &o.graphRef, o.Graph }),
		}

		lb, err := ExtractSelector(body)
		want, wantErr := oracleExtractSelector(body)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("ExtractSelector error %v, oracle %v", err, wantErr)
		}
		if err != nil {
			for _, sel := range sels {
				if sel != nil {
					t.Fatalf("the replica accepts %q, the lb cannot read it: %v", body, err)
				}
			}
			return
		}
		sameInline(t, "lb", &lb, decodeOracleGraph(want.Graph))
		if lb.GraphID != want.GraphID || lb.Kind != want.Kind || lb.K != want.K {
			t.Fatalf("lb selector %+v, oracle %+v", lb, want.graphRef)
		}
		for _, sel := range sels {
			if sel == nil {
				continue
			}
			if lb.GraphID != sel.GraphID || lb.Kind != sel.Kind || lb.K != sel.K {
				t.Fatalf("lb selector %+v, replica %+v", lb, *sel)
			}
			sameInline(t, "lb vs replica", &lb, oracleGraph{set: sel.hasGraph, g: sel.graph, err: sel.graphErr})
		}
	})
}
