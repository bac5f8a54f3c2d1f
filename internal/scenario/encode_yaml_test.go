package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
)

// EncodeYAML renders the normalized spec canonically: fields in
// declaration order under their JSON tags, two-space indentation, zero
// values omitted. Parse(EncodeYAML(s)) yields a spec that encodes to the
// same bytes — the round-trip fixed point FuzzScenarioSpec enforces.
//
// The emitter names no field: it is json.Marshal — by the same tags Parse
// decodes by — printed by the inverse of yamlToJSON, so a field added to
// Spec, client.TopologySpec, Phase, Grid or outcome.Expect is emitted
// without touching this file.
//
// The encoder is test code: its consumers are the fixed-point tests and
// FuzzScenarioSpec. A scenario generator (ROADMAP item 6) would move it
// back beside Parse.
func (s *Spec) EncodeYAML() []byte {
	data, err := json.Marshal(s)
	if err != nil {
		panic(fmt.Sprintf("scenario: marshaling a Spec cannot fail: %v", err))
	}
	e := yamlEmitter{dec: json.NewDecoder(bytes.NewReader(data))}
	e.dec.UseNumber()
	e.next() // the document's opening brace
	e.mapping("", "", "", "")
	return e.out.Bytes()
}

// yamlEmitter prints one marshaled Spec, token by token in document
// order, as the block YAML yamlToJSON reads: nested mappings indented two
// spaces, lists of mappings as block sequences, lists of scalars as flow
// sequences.
type yamlEmitter struct {
	dec *json.Decoder
	out bytes.Buffer
}

func (e *yamlEmitter) next() json.Token {
	tok, err := e.dec.Token()
	if err != nil {
		panic(fmt.Sprintf("scenario: re-reading marshaled JSON: %v", err))
	}
	return tok
}

// mapping prints the entries of the object whose opening brace was just
// consumed: the first behind the prefix first (a sequence item's "- ", or
// plain indentation), the rest behind indent. pre and post are the JSON
// text around this object in a document that holds nothing else — the
// path from the root that scalar asks the decoder about.
func (e *yamlEmitter) mapping(first, indent, pre, post string) {
	for prefix := first; e.dec.More(); prefix = indent {
		key := e.next().(string)
		e.out.WriteString(prefix + key + ":")
		pre, post := pre+"{"+strconv.Quote(key)+":", "}"+post
		switch tok := e.next(); tok {
		case json.Delim('{'):
			e.out.WriteString("\n")
			e.mapping(indent+"  ", indent+"  ", pre, post)
		case json.Delim('['):
			e.sequence(indent+"  ", pre+"[", "]"+post)
		default:
			e.out.WriteString(" " + scalar(tok, pre, post) + "\n")
		}
	}
	e.next() // the closing brace
}

// sequence prints the elements of the array whose opening bracket was
// just consumed, after its key: mappings as a block sequence on the lines
// below, scalars as one flow sequence on the key's line.
func (e *yamlEmitter) sequence(indent, pre, post string) {
	var flow []string
	block := false
	for e.dec.More() {
		if tok := e.next(); tok != json.Delim('{') {
			flow = append(flow, scalar(tok, pre, post))
		} else {
			if !block {
				e.out.WriteString("\n")
				block = true
			}
			e.mapping(indent+"- ", indent+"  ", pre, post)
		}
	}
	e.next() // the closing bracket
	if !block {
		e.out.WriteString(" [" + strings.Join(flow, ", ") + "]\n")
	}
}

// scalar renders one JSON scalar token. JSON text does not say whether a
// number is a float — encoding/json prints the float 2.5e6 as 2500000,
// like the integer — but the canonical form does (2.5e+06: yamlFloat), so
// scalar asks the decoder: a field is a float field exactly when 0.5
// decodes into its place in an otherwise empty Spec.
func scalar(tok json.Token, pre, post string) string {
	switch v := tok.(type) {
	case string:
		return yamlString(v)
	case bool:
		return strconv.FormatBool(v)
	case json.Number:
		if json.Unmarshal([]byte(pre+"0.5"+post), new(Spec)) != nil {
			return v.String()
		}
		f, _ := v.Float64()
		return yamlFloat(f)
	}
	panic(fmt.Sprintf("scenario: no YAML form for JSON token %v", tok))
}

// yamlString renders a string scalar, quoting when a bare rendering
// would re-parse as something else (or not at all).
func yamlString(s string) string {
	if s == "" {
		return `""`
	}
	plain := true
	for _, r := range s {
		if r < 0x20 || r == 0x7f || strings.ContainsRune(`"'#:[]{},&*|>%@`+"`", r) {
			plain = false
			break
		}
	}
	if plain && !strings.HasPrefix(s, "-") && !strings.HasPrefix(s, " ") &&
		!strings.HasSuffix(s, " ") && s != "null" && s != "~" && s != "true" && s != "false" {
		if _, err := strconv.ParseFloat(s, 64); err != nil {
			return s
		}
	}
	out, _ := json.Marshal(s)
	return string(out)
}

// yamlFloat renders a float scalar in the shortest form that re-parses
// to the same value and is also a valid JSON number.
func yamlFloat(f float64) string {
	s := strconv.FormatFloat(f, 'g', -1, 64)
	if !json.Valid([]byte(s)) {
		// "g" may produce exponents like 1e+05, which JSON rejects;
		// normalize through the JSON encoder.
		out, _ := json.Marshal(f)
		s = string(out)
	}
	return s
}
