package dag

// The graph JSON codec. A graph is stored as
//
//	{"tasks":[{"name":…,"weight":…},…],"edges":[[from,to],…]}
//
// with edges in (from, insertion) order. These bytes are the graph's
// canonical form: the service hashes them into graph ids, so the
// encoder must keep emitting exactly what encoding/json's Marshal did
// for that schema, and the decoder must accept exactly the documents
// encoding/json's Unmarshal accepted and give them the same meaning —
// case-insensitive keys, a repeated key decoding over the previous
// value, null leaving a field as it was. The package tests hold the
// encoding/json decoder as the oracle (FuzzGraphJSON). DecodeEnvelope
// runs the same scanner over a document that carries a graph as one of
// its members, so a request body's graph bytes are read exactly once.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"unicode/utf16"
	"unicode/utf8"
)

// MarshalJSON encodes the graph in its canonical form; see AppendJSON.
func (g *Graph) MarshalJSON() ([]byte, error) {
	return g.AppendJSON(nil), nil
}

// UnmarshalJSON decodes a graph with DecodeJSON. The receiver is
// replaced wholesale.
func (g *Graph) UnmarshalJSON(data []byte) error {
	fresh, err := DecodeJSON(data)
	if err != nil {
		return err
	}
	*g = *fresh
	return nil
}

// WriteJSON writes the graph to w as indented JSON followed by a
// newline: the canonical form laid out as json.MarshalIndent(v, "", "  ")
// lays it out.
func WriteJSON(w io.Writer, g *Graph) error {
	_, err := w.Write(append(appendIndented(nil, g.AppendJSON(nil)), '\n'))
	return err
}

// ReadJSON parses a graph from r and validates it (acyclicity, weights).
func ReadJSON(r io.Reader) (*Graph, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	g, err := DecodeJSON(data)
	if err != nil {
		return nil, err
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// AppendJSON appends the graph's canonical JSON encoding to dst:
// compact, HTML-safe string escapes, floats in the shortest form that
// round-trips (exponent form below 1e-6 and from 1e21), "edges":null
// for an edgeless graph, edges in (from, insertion) order.
func (g *Graph) AppendJSON(dst []byte) []byte {
	size := 32 + 32*len(g.names) + 12*g.edges
	for _, name := range g.names {
		size += len(name)
	}
	dst = append(slices.Grow(dst, size), `{"tasks":[`...)
	for i, name := range g.names {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"name":`...)
		dst = appendJSONString(dst, name)
		dst = append(dst, `,"weight":`...)
		dst = appendJSONFloat(dst, g.weights[i])
		dst = append(dst, '}')
	}
	if g.edges == 0 {
		return append(dst, `],"edges":null}`...)
	}
	dst = append(dst, `],"edges":[`...)
	for u, succ := range g.succ {
		for _, v := range succ {
			dst = append(dst, '[')
			dst = appendInt(dst, u)
			dst = append(dst, ',')
			dst = appendInt(dst, v)
			dst = append(dst, ']', ',')
		}
	}
	dst[len(dst)-1] = ']'
	return append(dst, '}')
}

// appendIndented appends compact JSON laid out one element per line,
// two spaces per level, with empty arrays and objects kept as [] and {}.
func appendIndented(dst, compact []byte) []byte {
	newline := func(depth int) {
		dst = append(dst, '\n')
		for ; depth > 0; depth-- {
			dst = append(dst, ' ', ' ')
		}
	}
	depth, inString := 0, false
	for i := 0; i < len(compact); i++ {
		c := compact[i]
		if inString {
			dst = append(dst, c)
			if c == '\\' {
				i++
				dst = append(dst, compact[i])
			} else if c == '"' {
				inString = false
			}
			continue
		}
		switch c {
		case '{', '[':
			dst = append(dst, c)
			if next := compact[i+1]; next == '}' || next == ']' {
				dst = append(dst, next)
				i++
			} else {
				depth++
				newline(depth)
			}
		case '}', ']':
			depth--
			newline(depth)
			dst = append(dst, c)
		case ',':
			dst = append(dst, c)
			newline(depth)
		case ':':
			dst = append(dst, c, ' ')
		default:
			inString = c == '"'
			dst = append(dst, c)
		}
	}
	return dst
}

// appendInt appends a task id in decimal; ids below a million, which
// is every graph in practice, skip strconv's general path.
func appendInt(dst []byte, v int) []byte {
	if v < 0 || v >= 1e6 {
		return strconv.AppendInt(dst, int64(v), 10)
	}
	n := len(dst) + 1
	for x := v; x >= 10; x /= 10 {
		n++
	}
	dst = slices.Grow(dst, n-len(dst))[:n]
	for i := n - 1; ; i-- {
		dst[i] = byte('0' + v%10)
		if v /= 10; v == 0 {
			return dst
		}
	}
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a JSON string the way encoding/json
// does with HTML escaping on: \" \\ \b \f \n \r \t, \u00XX for the
// other control bytes and for < > &, \u2028 and \u2029 escaped, and
// each byte of invalid UTF-8 replaced by \ufffd.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		} else if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
		} else {
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// appendJSONFloat appends a finite f as encoding/json formats a
// float64: shortest round-trip digits, plain notation unless
// |f| < 1e-6 or |f| >= 1e21, and exponents without zero padding.
func appendJSONFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// e-07 → e-7
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

// DecodeJSON parses a graph document in one pass and builds the graph
// in bulk. It accepts what encoding/json would decode into the graph
// schema: surrounding whitespace, keys in any letter case, unknown
// keys, null for any field (a no-op, as is a top-level null, which
// yields the empty graph), extra elements in an edge pair. Invalid
// JSON, a value of the wrong type, an integer edge endpoint that is
// not a plain integer, and a weight that overflows float64 are
// errors. Task weights and edges are then checked in document order
// exactly as AddTask and AddEdge check them, and the first violation
// is reported as "dag: bad task …" or "dag: bad edge …" wrapping the
// ErrBad* sentinel. Cycles are left to Validate.
func DecodeJSON(raw []byte) (*Graph, error) {
	d := graphDecoder{data: raw}
	if err := d.document(); err != nil {
		return nil, err
	}
	return d.build()
}

// Envelope is a JSON document split by DecodeEnvelope: one member
// decoded in place as a graph, the others kept as raw bytes.
type Envelope struct {
	// Rest holds the document's other members, byte for byte and in
	// order, as a JSON object. A document that is not an object is its
	// own Rest.
	Rest []byte
	// HasGraph reports that the graph member is present (null counts).
	HasGraph bool
	// Graph is what DecodeJSON returns on the value bytes of the graph
	// member's last occurrence.
	Graph *Graph
	// GraphErr is DecodeJSON's error on those same bytes.
	GraphErr error
}

// DecodeEnvelope reads a JSON document holding exactly one value in a
// single pass. Members of a top-level object whose key matches key as
// encoding/json matches a struct field name (after unescaping, in any
// letter case) are decoded in place as graphs: the last one wins, as
// with a json.RawMessage field, and earlier ones need only be valid
// JSON. Every other member is copied verbatim into Rest, so a general
// decoder sees only the document's remainder. Malformed JSON anywhere,
// including data after the value, is the returned error; a well-formed
// graph member that is not a valid graph is Envelope.GraphErr.
func DecodeEnvelope(doc []byte, key string) (Envelope, error) {
	d := graphDecoder{data: doc}
	var env Envelope
	var err error
	if d.peek() == '{' {
		rest := append(make([]byte, 0, 128), '{')
		err = d.object(1, func(k []byte, depth int) error {
			if bytes.EqualFold(k, []byte(key)) {
				env.HasGraph = true
				var err error
				env.Graph, env.GraphErr, err = d.graphValue(depth + 1)
				return err
			}
			start := d.memberStart
			if err := d.skipValue(depth + 1); err != nil {
				return err
			}
			if len(rest) > 1 {
				rest = append(rest, ',')
			}
			rest = append(rest, doc[start:d.pos]...)
			return nil
		})
		env.Rest = append(rest, '}')
	} else {
		err = d.skipValue(1)
		env.Rest = doc
	}
	if err == nil {
		if d.skipSpace(); d.pos != len(doc) {
			err = d.syntaxError("end of input")
		}
	}
	if err != nil {
		return Envelope{}, errors.New(err.(*syntaxError).text)
	}
	return env, nil
}

// graphValue decodes the graph value at d.pos (depth is its level) as
// DecodeJSON decodes those bytes alone, error offsets included. Only a
// syntax error is returned as err; a well-formed value that is not a
// valid graph yields gerr, with the scan moved past the value.
func (d *graphDecoder) graphValue(depth int) (g *Graph, gerr, err error) {
	d.skipSpace()
	d.base = d.pos
	d.tasks, d.edges, d.names = nil, nil, d.names[:0]
	if gerr = d.graph(depth); gerr == nil {
		g, gerr = d.build()
		return g, gerr, nil
	}
	if _, ok := gerr.(*syntaxError); ok {
		return nil, nil, gerr
	}
	d.pos = d.base
	if err := d.skipValue(depth); err != nil {
		return nil, nil, err
	}
	return nil, gerr, nil
}

// maxJSONDepth is encoding/json's nesting limit for arrays and objects.
const maxJSONDepth = 10000

// graphDecoder is DecodeJSON's scanner state. tasks and edges follow
// encoding/json's slice semantics: decoding an array writes over the
// elements already in the backing array (so null elements keep them)
// and then truncates, an empty array drops the backing array, and null
// drops the slice.
type graphDecoder struct {
	data        []byte
	pos         int
	base        int    // where the graph value starts; error offsets count from it
	memberStart int    // where the object member being decoded starts
	names       []byte // unescaped task names, back to back
	tasks       []rawTask
	edges       [][2]int
	key         []byte // scratch for escaped object keys
}

// rawTask is a decoded task whose name is names[nameStart:nameEnd].
type rawTask struct {
	nameStart, nameEnd int
	weight             float64
}

// syntaxError is malformed JSON, as opposed to a well-formed value that
// does not describe a graph. Its offsets count from the document start.
type syntaxError struct{ text string }

func (e *syntaxError) Error() string { return "dag: graph JSON: " + e.text }

func (d *graphDecoder) syntaxError(what string) error {
	if d.pos >= len(d.data) {
		return &syntaxError{"unexpected end of input, expecting " + what}
	}
	return &syntaxError{fmt.Sprintf("invalid character %q at offset %d, expecting %s", d.data[d.pos], d.pos, what)}
}

func (d *graphDecoder) skipSpace() {
	for d.pos < len(d.data) {
		switch d.data[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

// peek skips whitespace and returns the next byte (0 at end of input).
func (d *graphDecoder) peek() byte {
	d.skipSpace()
	if d.pos < len(d.data) {
		return d.data[d.pos]
	}
	return 0
}

func (d *graphDecoder) document() error {
	if err := d.graph(1); err != nil {
		return err
	}
	if d.skipSpace(); d.pos != len(d.data) {
		return d.syntaxError("end of input")
	}
	return nil
}

// graph decodes a graph value at d.pos; depth is its level.
func (d *graphDecoder) graph(depth int) error {
	switch d.peek() {
	case '{':
		return d.object(depth, d.graphMember)
	case 'n':
		return d.literal("null")
	}
	return d.wrongType(depth, "a graph")
}

// object scans an object at d.pos (depth is its own nesting level) and
// hands each member's unescaped key to member, which must consume the
// value.
func (d *graphDecoder) object(depth int, member func(key []byte, depth int) error) error {
	if depth > maxJSONDepth {
		return d.depthError()
	}
	d.pos++ // '{'
	if d.peek() == '}' {
		d.pos++
		return nil
	}
	for {
		if d.peek() != '"' {
			return d.syntaxError("object key")
		}
		d.memberStart = d.pos
		start, end, plain, err := d.scanString()
		if err != nil {
			return err
		}
		key := d.data[start:end]
		if !plain {
			d.key = unquote(d.key[:0], key)
			key = d.key
		}
		if d.peek() != ':' {
			return d.syntaxError("':' after object key")
		}
		d.pos++
		if err := member(key, depth); err != nil {
			return err
		}
		switch d.peek() {
		case ',':
			d.pos++
		case '}':
			d.pos++
			return nil
		default:
			return d.syntaxError("',' or '}' after object member")
		}
	}
}

func (d *graphDecoder) depthError() error {
	return &syntaxError{fmt.Sprintf("offset %d: exceeded max depth", d.pos)}
}

// array scans an array at d.pos and calls elem with each element's
// index; elem must consume the element.
func (d *graphDecoder) array(depth int, elem func(i, depth int) error) error {
	if depth > maxJSONDepth {
		return d.depthError()
	}
	d.pos++ // '['
	if d.peek() == ']' {
		d.pos++
		return nil
	}
	for i := 0; ; i++ {
		if err := elem(i, depth); err != nil {
			return err
		}
		switch d.peek() {
		case ',':
			d.pos++
		case ']':
			d.pos++
			return nil
		default:
			return d.syntaxError("',' or ']' after array element")
		}
	}
}

func (d *graphDecoder) graphMember(key []byte, depth int) error {
	switch {
	case bytes.EqualFold(key, []byte("tasks")):
		return d.taskList(depth + 1)
	case bytes.EqualFold(key, []byte("edges")):
		return d.edgeList(depth + 1)
	}
	return d.skipValue(depth + 1)
}

// taskList decodes the value of "tasks" (at the given depth) into
// d.tasks.
func (d *graphDecoder) taskList(depth int) error {
	switch d.peek() {
	case 'n':
		d.tasks = nil
		return d.literal("null")
	case '[':
		n := 0
		err := d.array(depth, func(i, depth int) error {
			d.tasks = growElem(d.tasks, i)
			n = i + 1
			switch d.peek() {
			case '{':
				return d.object(depth+1, func(key []byte, depth int) error {
					return d.taskMember(&d.tasks[i], key, depth)
				})
			case 'n':
				return d.literal("null")
			}
			return d.wrongType(depth+1, "a task")
		})
		d.tasks = truncate(d.tasks, n)
		return err
	}
	return d.wrongType(depth, "the task list")
}

func (d *graphDecoder) taskMember(t *rawTask, key []byte, depth int) error {
	switch {
	case bytes.EqualFold(key, []byte("name")):
		switch d.peek() {
		case '"':
			s, e, plain, err := d.scanString()
			if err != nil {
				return err
			}
			t.nameStart = len(d.names)
			if plain {
				d.names = append(d.names, d.data[s:e]...)
			} else {
				d.names = unquote(d.names, d.data[s:e])
			}
			t.nameEnd = len(d.names)
			return nil
		case 'n':
			return d.literal("null")
		}
		return d.wrongType(depth+1, "a task name")
	case bytes.EqualFold(key, []byte("weight")):
		switch c := d.peek(); {
		case c == '-' || (c >= '0' && c <= '9'):
			at := d.pos
			lit, err := d.number()
			if err != nil {
				return err
			}
			w, err := strconv.ParseFloat(string(lit), 64)
			if err != nil {
				return fmt.Errorf("dag: graph JSON: offset %d: weight %s does not fit a float64", at-d.base, lit)
			}
			t.weight = w
			return nil
		case c == 'n':
			return d.literal("null")
		}
		return d.wrongType(depth+1, "a task weight")
	}
	return d.skipValue(depth + 1)
}

// edgeList decodes the value of "edges" (at the given depth) into
// d.edges.
func (d *graphDecoder) edgeList(depth int) error {
	switch d.peek() {
	case 'n':
		d.edges = nil
		return d.literal("null")
	case '[':
		if cap(d.edges) == 0 {
			// Size the list once: every pair opens with '[' and takes at
			// least six bytes, so this bounds it without over-allocating
			// on bodies full of brackets.
			rest := d.data[d.pos:]
			d.edges = make([][2]int, 0, min(bytes.Count(rest, []byte("[")), len(rest)/6+1))
		}
		n := 0
		err := d.array(depth, func(i, depth int) error {
			d.edges = growElem(d.edges, i)
			n = i + 1
			switch d.peek() {
			case '[':
				if d.compactPair(&d.edges[i]) {
					return nil
				}
				return d.edgePair(&d.edges[i], depth+1)
			case 'n':
				return d.literal("null")
			}
			return d.wrongType(depth+1, "an edge")
		})
		d.edges = truncate(d.edges, n)
		return err
	}
	return d.wrongType(depth, "the edge list")
}

// compactPair is edgePair's fast path for the canonical spelling
// [from,to] — no whitespace, non-negative plain integers. It reports
// false, consuming nothing, on anything else.
func (d *graphDecoder) compactPair(e *[2]int) bool {
	data, i := d.data, d.pos+1
	var pair [2]int
	for k, sep := range [2]byte{',', ']'} {
		start, v := i, 0
		for i < len(data) && data[i] >= '0' && data[i] <= '9' {
			v = 10*v + int(data[i]-'0')
			i++
		}
		if digits := i - start; digits == 0 || digits > 18 || (digits > 1 && data[start] == '0') ||
			i >= len(data) || data[i] != sep {
			return false
		}
		pair[k] = v
		i++
	}
	*e = pair
	d.pos = i
	return true
}

// edgePair decodes [from, to] into e like a Go [2]int: missing
// endpoints become 0, elements past the second are skipped unchecked,
// and null keeps an endpoint as it was.
func (d *graphDecoder) edgePair(e *[2]int, depth int) error {
	n := 0
	err := d.array(depth, func(i, depth int) error {
		n = i + 1
		if i >= len(e) {
			return d.skipValue(depth + 1)
		}
		switch c := d.peek(); {
		case c == '-' || (c >= '0' && c <= '9'):
			at := d.pos
			lit, err := d.number()
			if err != nil {
				return err
			}
			// As encoding/json: "1e2" and "1.0" are not ints either.
			v, err := strconv.ParseInt(string(lit), 10, strconv.IntSize)
			if err != nil {
				return fmt.Errorf("dag: graph JSON: offset %d: edge endpoint %s is not an int", at-d.base, lit)
			}
			e[i] = int(v)
			return nil
		case c == 'n':
			return d.literal("null")
		}
		return d.wrongType(depth+1, "an edge endpoint")
	})
	for i := n; i < len(e); i++ {
		e[i] = 0
	}
	return err
}

// wrongType skips a valid value of the wrong type (depth is its
// level) and reports it; a malformed value reports its syntax error.
func (d *graphDecoder) wrongType(depth int, want string) error {
	start := d.pos
	if err := d.skipValue(depth); err != nil {
		return err
	}
	return fmt.Errorf("dag: graph JSON: offset %d: want %s, got %.20s", start-d.base, want, d.data[start:d.pos])
}

// growElem makes s[i] addressable as encoding/json does when decoding
// element i of an array into a slice: within capacity the slice is
// re-extended over its old contents, beyond it the new element is zero.
func growElem[T any](s []T, i int) []T {
	if i < cap(s) {
		return s[:i+1]
	}
	var zero T
	return append(s[:i], zero)
}

// truncate ends a decoded array of n elements: the slice is cut to n,
// and an empty array leaves an empty slice with no backing array.
func truncate[T any](s []T, n int) []T {
	if n == 0 {
		return s[:0:0]
	}
	return s[:n]
}

// skipValue validates and skips one value of any type; depth is the
// nesting level an array or object at this position has.
func (d *graphDecoder) skipValue(depth int) error {
	switch c := d.peek(); {
	case c == '{':
		return d.object(depth, func(_ []byte, depth int) error { return d.skipValue(depth + 1) })
	case c == '[':
		return d.array(depth, func(_, depth int) error { return d.skipValue(depth + 1) })
	case c == '"':
		_, _, _, err := d.scanString()
		return err
	case c == 't':
		return d.literal("true")
	case c == 'f':
		return d.literal("false")
	case c == 'n':
		return d.literal("null")
	case c == '-' || (c >= '0' && c <= '9'):
		_, err := d.number()
		return err
	}
	return d.syntaxError("value")
}

func (d *graphDecoder) literal(word string) error {
	if !bytes.HasPrefix(d.data[d.pos:], []byte(word)) {
		return d.syntaxError(fmt.Sprintf("literal %s", word))
	}
	d.pos += len(word)
	return nil
}

// number scans a JSON number at d.pos and returns its text.
func (d *graphDecoder) number() ([]byte, error) {
	data, start := d.data, d.pos
	i := start
	digits := func(what string) error { // one or more
		if i >= len(data) || data[i] < '0' || data[i] > '9' {
			d.pos = i
			return d.syntaxError(what)
		}
		for i < len(data) && data[i] >= '0' && data[i] <= '9' {
			i++
		}
		return nil
	}
	if data[i] == '-' {
		i++
	}
	if i < len(data) && data[i] == '0' {
		i++
	} else if err := digits("digit"); err != nil {
		return nil, err
	}
	if i < len(data) && data[i] == '.' {
		i++
		if err := digits("digit after decimal point"); err != nil {
			return nil, err
		}
	}
	if i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		i++
		if i < len(data) && (data[i] == '+' || data[i] == '-') {
			i++
		}
		if err := digits("digit in exponent"); err != nil {
			return nil, err
		}
	}
	d.pos = i
	return data[start:i], nil
}

// scanString validates the string at d.pos and moves past it. The
// content sits in data[start:end]; plain reports that it has no escape
// and no byte outside ASCII, so it is its own unescaped value.
func (d *graphDecoder) scanString() (start, end int, plain bool, err error) {
	data := d.data
	start = d.pos + 1
	plain = true
	for i := start; i < len(data); {
		c := data[i]
		switch {
		case c == '"':
			d.pos = i + 1
			return start, i, plain, nil
		case c == '\\':
			plain = false
			if i+1 >= len(data) {
				d.pos = len(data)
				return 0, 0, false, d.syntaxError("escape sequence")
			}
			switch data[i+1] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i += 2
			case 'u':
				for k := i + 2; k < i+6; k++ {
					if k >= len(data) || !isHex(data[k]) {
						d.pos = k
						return 0, 0, false, d.syntaxError("hex digit in \\u escape")
					}
				}
				i += 6
			default:
				d.pos = i + 1
				return 0, 0, false, d.syntaxError("escape sequence")
			}
		case c < ' ':
			d.pos = i
			return 0, 0, false, d.syntaxError("string character")
		default:
			if c >= utf8.RuneSelf {
				plain = false
			}
			i++
		}
	}
	d.pos = len(data)
	return 0, 0, false, d.syntaxError("closing quote")
}

func isHex(c byte) bool {
	return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
}

// unquote appends the value of the validated string content s to dst,
// as encoding/json unescapes it: invalid UTF-8 bytes and unpaired
// surrogate escapes become U+FFFD.
func unquote(dst, s []byte) []byte {
	for i := 0; i < len(s); {
		c := s[i]
		switch {
		case c == '\\':
			switch s[i+1] {
			case 'b':
				dst = append(dst, '\b')
			case 'f':
				dst = append(dst, '\f')
			case 'n':
				dst = append(dst, '\n')
			case 'r':
				dst = append(dst, '\r')
			case 't':
				dst = append(dst, '\t')
			case 'u':
				r := hex4(s[i+2:])
				i += 6
				if utf16.IsSurrogate(r) {
					if i+6 <= len(s) && s[i] == '\\' && s[i+1] == 'u' {
						if dec := utf16.DecodeRune(r, hex4(s[i+2:])); dec != utf8.RuneError {
							dst = utf8.AppendRune(dst, dec)
							i += 6
							continue
						}
					}
					r = utf8.RuneError
				}
				dst = utf8.AppendRune(dst, r)
				continue
			default: // " \ /
				dst = append(dst, s[i+1])
			}
			i += 2
		case c < utf8.RuneSelf:
			dst = append(dst, c)
			i++
		default:
			r, size := utf8.DecodeRune(s[i:])
			dst = utf8.AppendRune(dst, r)
			i += size
		}
	}
	return dst
}

// hex4 decodes the four validated hex digits at the start of s.
func hex4(s []byte) rune {
	r, _ := strconv.ParseUint(string(s[:4]), 16, 16)
	return rune(r)
}

// build checks the decoded tasks and edges in document order and lays
// the graph out in bulk: one backing array each for the successor and
// the predecessor lists, cut into capacity-limited per-task slices so
// a later AddEdge copies instead of writing into a neighbour's list.
func (d *graphDecoder) build() (*Graph, error) {
	n := len(d.tasks)
	names := string(d.names)
	g := &Graph{
		names:   make([]string, n),
		weights: make([]float64, n),
		succ:    make([][]int, n),
		pred:    make([][]int, n),
		succSet: make([]map[int]struct{}, n),
		edges:   len(d.edges),
		version: uint64(n + len(d.edges)),
	}
	for i, t := range d.tasks {
		g.names[i] = names[t.nameStart:t.nameEnd]
		if err := checkWeight(t.weight); err != nil {
			return nil, fmt.Errorf("dag: bad task %q: %w", g.names[i], err)
		}
		g.weights[i] = t.weight
	}
	for _, e := range d.edges {
		if e[0] < 0 || e[0] >= n || e[1] < 0 || e[1] >= n || e[0] == e[1] {
			return nil, edgeError(n, d.edges)
		}
	}
	if !g.link(d.edges) {
		return nil, edgeError(n, d.edges)
	}
	return g, nil
}

// link fills succ and pred from in-range, loop-free edges, keeping
// insertion order, and reports false on a duplicate edge.
func (g *Graph) link(edges [][2]int) bool {
	n := len(g.succ)
	succEnd := make([]int, n+1) // after counting: start of task u's list at u+1
	predEnd := make([]int, n+1)
	for _, e := range edges {
		succEnd[e[0]+1]++
		predEnd[e[1]+1]++
	}
	for u := 0; u < n; u++ {
		succEnd[u+1] += succEnd[u]
		predEnd[u+1] += predEnd[u]
	}
	succAll := make([]int, len(edges))
	predAll := make([]int, len(edges))
	for _, e := range edges {
		u, v := e[0], e[1]
		succAll[succEnd[u]] = v
		succEnd[u]++
		predAll[predEnd[v]] = u
		predEnd[v]++
	}
	// succEnd[u] and predEnd[u] now hold the end of u's list.
	lo, plo := 0, 0
	for u := 0; u < n; u++ {
		if hi := succEnd[u]; hi > lo {
			g.succ[u] = succAll[lo:hi:hi]
			lo = hi
		}
		if hi := predEnd[u]; hi > plo {
			g.pred[u] = predAll[plo:hi:hi]
			plo = hi
		}
	}
	stamp := succEnd[:n] // reused: stamp[v] == u+1 once u -> v is seen
	clear(stamp)
	for u, succ := range g.succ {
		for _, v := range succ {
			if stamp[v] == u+1 {
				return false
			}
			stamp[v] = u + 1
		}
	}
	return true
}

// edgeError replays edges through AddEdge on a bare n-task graph so a
// rejected edge list reports the first offending edge in AddEdge's
// words.
func edgeError(n int, edges [][2]int) error {
	g := New(n)
	for i := 0; i < n; i++ {
		g.MustAddTask("", 0)
	}
	for _, e := range edges {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			return fmt.Errorf("dag: bad edge %v: %w", e, err)
		}
	}
	panic("dag: edgeError called on a valid edge list")
}
