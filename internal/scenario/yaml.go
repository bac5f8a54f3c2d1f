package scenario

// A YAML-subset reader. The module deliberately has no dependencies, so
// scenario files are parsed by this translator: it turns the block-style
// YAML subset the spec format uses (nested mappings, block sequences,
// flow sequences of scalars, comments, quoted and bare scalars) into
// JSON bytes, and spec.go strict-decodes those with encoding/json. The
// subset is exactly what EncodeYAML (encode_yaml_test.go) emits — anchors,
// aliases, multi-line scalars, flow mappings and tag directives are
// rejected with the line number, not silently misread.

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
)

// yamlToJSON translates one YAML document into its JSON encoding.
// Input that already starts with '{' is passed through as JSON.
func yamlToJSON(data []byte) ([]byte, error) {
	if trimmed := strings.TrimLeft(string(data), " \t\r\n"); strings.HasPrefix(trimmed, "{") {
		return []byte(trimmed), nil
	}
	p := &yamlParser{}
	if err := p.split(string(data)); err != nil {
		return nil, err
	}
	if len(p.lines) == 0 {
		return nil, fmt.Errorf("empty document")
	}
	if t := p.lines[0].text; t == "-" || strings.HasPrefix(t, "- ") {
		return nil, fmt.Errorf("line %d: the document must be a mapping, not a sequence", p.lines[0].num)
	}
	node, err := p.parseValue(p.lines[0].indent)
	if err != nil {
		return nil, err
	}
	if p.i < len(p.lines) {
		return nil, fmt.Errorf("line %d: content outside the document structure", p.lines[p.i].num)
	}
	var buf []byte
	return appendNode(buf, node), nil
}

// yamlLine is one non-blank logical line.
type yamlLine struct {
	indent int
	text   string // content after the indent, comments stripped
	num    int    // 1-based source line
}

type yamlParser struct {
	lines []yamlLine
	i     int
}

// split scans the source into logical lines, stripping comments and
// rejecting the constructs outside the subset.
func (p *yamlParser) split(src string) error {
	for num, raw := range strings.Split(src, "\n") {
		line := strings.TrimSuffix(raw, "\r")
		indent := 0
		for indent < len(line) && line[indent] == ' ' {
			indent++
		}
		if indent < len(line) && line[indent] == '\t' {
			return fmt.Errorf("line %d: tab in indentation (YAML requires spaces)", num+1)
		}
		text, err := stripComment(line[indent:])
		if err != nil {
			return fmt.Errorf("line %d: %v", num+1, err)
		}
		text = strings.TrimRight(text, " \t")
		if text == "" {
			continue
		}
		if text == "---" || text == "..." {
			if len(p.lines) > 0 && text == "---" {
				return fmt.Errorf("line %d: multiple documents are not supported", num+1)
			}
			continue
		}
		if strings.HasPrefix(text, "%") {
			return fmt.Errorf("line %d: YAML directives are not supported", num+1)
		}
		for _, bad := range []string{"&", "*", "|", ">"} {
			if strings.HasPrefix(text, bad) {
				return fmt.Errorf("line %d: %q-style YAML (anchors, aliases, block scalars) is not supported", num+1, bad)
			}
		}
		p.lines = append(p.lines, yamlLine{indent: indent, text: text, num: num + 1})
	}
	return nil
}

// stripComment removes a trailing "# ..." comment: a '#' at the start of
// the content or preceded by whitespace, outside quotes.
func stripComment(s string) (string, error) {
	var quote byte
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case quote != 0:
			if c == quote {
				quote = 0
			} else if c == '\\' && quote == '"' {
				i++
			}
		case c == '"' || c == '\'':
			quote = c
		case c == '#' && (i == 0 || s[i-1] == ' ' || s[i-1] == '\t'):
			return s[:i], nil
		}
	}
	if quote != 0 {
		return "", fmt.Errorf("unterminated %c-quoted string", quote)
	}
	return s, nil
}

// node is one parsed value: a json.RawMessage scalar, *mapNode, or
// *seqNode. Mapping keys stay in source order (maps would randomize the
// emitted JSON, and with it every error message).
type node any

type mapNode struct {
	keys []string
	vals []node
}

type seqNode struct{ items []node }

// parseValue parses the block starting at the current line, which must
// sit at exactly the given indent.
func (p *yamlParser) parseValue(indent int) (node, error) {
	line := p.lines[p.i]
	if line.indent != indent {
		return nil, fmt.Errorf("line %d: unexpected indentation (got %d spaces, want %d)", line.num, line.indent, indent)
	}
	if line.text == "-" || strings.HasPrefix(line.text, "- ") {
		return p.parseSequence(indent)
	}
	return p.parseMapping(indent)
}

func (p *yamlParser) parseMapping(indent int) (node, error) {
	m := &mapNode{}
	for p.i < len(p.lines) {
		line := p.lines[p.i]
		if line.indent < indent {
			break
		}
		if line.indent > indent {
			return nil, fmt.Errorf("line %d: unexpected indentation", line.num)
		}
		if line.text == "-" || strings.HasPrefix(line.text, "- ") {
			break
		}
		key, rest, err := splitKey(line.text)
		if err != nil {
			return nil, fmt.Errorf("line %d: %v", line.num, err)
		}
		for _, k := range m.keys {
			if k == key {
				return nil, fmt.Errorf("line %d: duplicate key %q", line.num, key)
			}
		}
		p.i++
		var val node
		if rest == "" {
			// A nested block — or null, when nothing deeper follows. A
			// sequence may sit at the key's own indent (common YAML style).
			switch {
			case p.i < len(p.lines) && p.lines[p.i].indent > indent:
				val, err = p.parseValue(p.lines[p.i].indent)
			case p.i < len(p.lines) && p.lines[p.i].indent == indent &&
				(p.lines[p.i].text == "-" || strings.HasPrefix(p.lines[p.i].text, "- ")):
				val, err = p.parseSequence(indent)
			default:
				val = json.RawMessage("null")
			}
		} else {
			val, err = parseScalar(rest, line.num)
		}
		if err != nil {
			return nil, err
		}
		m.keys = append(m.keys, key)
		m.vals = append(m.vals, val)
	}
	return m, nil
}

func (p *yamlParser) parseSequence(indent int) (node, error) {
	seq := &seqNode{}
	for p.i < len(p.lines) {
		line := p.lines[p.i]
		if line.indent != indent || (line.text != "-" && !strings.HasPrefix(line.text, "- ")) {
			if line.indent > indent {
				return nil, fmt.Errorf("line %d: unexpected indentation", line.num)
			}
			break
		}
		rest := strings.TrimPrefix(strings.TrimPrefix(line.text, "-"), " ")
		var item node
		var err error
		switch {
		case rest == "":
			// "-" alone: the item is the deeper-indented block below.
			p.i++
			if p.i >= len(p.lines) || p.lines[p.i].indent <= indent {
				item = json.RawMessage("null")
			} else {
				item, err = p.parseValue(p.lines[p.i].indent)
			}
		case isMappingStart(rest):
			// "- key: value": the item is a mapping whose first entry is
			// inline. Re-enter the mapping parser with the dash replaced
			// by indentation, so the entries below at that column join it.
			p.lines[p.i] = yamlLine{
				indent: indent + (len(line.text) - len(rest)),
				text:   rest,
				num:    line.num,
			}
			item, err = p.parseMapping(p.lines[p.i].indent)
		default:
			p.i++
			item, err = parseScalar(rest, line.num)
		}
		if err != nil {
			return nil, err
		}
		seq.items = append(seq.items, item)
	}
	return seq, nil
}

// splitKey splits "key: rest" (or "key:") on the first colon outside
// quotes that ends the key.
func splitKey(s string) (key, rest string, err error) {
	idx := -1
	for i := 0; i < len(s); i++ {
		if s[i] == ':' && (i+1 == len(s) || s[i+1] == ' ') {
			idx = i
			break
		}
		if s[i] == '"' || s[i] == '\'' {
			return "", "", fmt.Errorf("quoted keys are not supported")
		}
	}
	if idx < 0 {
		return "", "", fmt.Errorf("expected \"key: value\", got %q", s)
	}
	key = strings.TrimSpace(s[:idx])
	if key == "" {
		return "", "", fmt.Errorf("empty key")
	}
	return key, strings.TrimSpace(s[idx+1:]), nil
}

// isMappingStart reports whether a sequence item's inline text opens a
// mapping ("name: arrive") rather than a scalar ("plain value").
func isMappingStart(s string) bool {
	if strings.HasPrefix(s, "\"") || strings.HasPrefix(s, "'") || strings.HasPrefix(s, "[") {
		return false
	}
	_, _, err := splitKey(s)
	return err == nil
}

// parseScalar converts one inline value — a flow sequence or a scalar —
// to its JSON form.
func parseScalar(s string, num int) (node, error) {
	if strings.HasPrefix(s, "[") {
		return parseFlowSeq(s, num)
	}
	if strings.HasPrefix(s, "{") {
		return nil, fmt.Errorf("line %d: flow mappings ({...}) are not supported; use an indented block", num)
	}
	switch s[0] {
	case '&', '*':
		return nil, fmt.Errorf("line %d: YAML anchors and aliases (&, *) are not supported", num)
	case '|', '>':
		return nil, fmt.Errorf("line %d: block scalars (|, >) are not supported; use a quoted string", num)
	}
	raw, err := scalarJSON(s)
	if err != nil {
		return nil, fmt.Errorf("line %d: %v", num, err)
	}
	return raw, nil
}

// parseFlowSeq parses "[a, b, c]" of scalars.
func parseFlowSeq(s string, num int) (node, error) {
	if !strings.HasSuffix(s, "]") {
		return nil, fmt.Errorf("line %d: unterminated flow sequence %q", num, s)
	}
	inner := strings.TrimSpace(s[1 : len(s)-1])
	seq := &seqNode{}
	if inner == "" {
		return seq, nil
	}
	for _, part := range splitFlow(inner) {
		part = strings.TrimSpace(part)
		if strings.HasPrefix(part, "[") || strings.HasPrefix(part, "{") {
			return nil, fmt.Errorf("line %d: nested flow collections are not supported", num)
		}
		raw, err := scalarJSON(part)
		if err != nil {
			return nil, fmt.Errorf("line %d: %v", num, err)
		}
		seq.items = append(seq.items, raw)
	}
	return seq, nil
}

// splitFlow splits on commas outside quotes.
func splitFlow(s string) []string {
	var parts []string
	var quote byte
	start := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case quote != 0:
			if c == quote {
				quote = 0
			} else if c == '\\' && quote == '"' {
				i++
			}
		case c == '"' || c == '\'':
			quote = c
		case c == ',':
			parts = append(parts, s[start:i])
			start = i + 1
		}
	}
	return append(parts, s[start:])
}

// scalarJSON resolves one scalar token to its JSON encoding: null,
// booleans, numbers, quoted strings, bare strings.
func scalarJSON(s string) (json.RawMessage, error) {
	switch s {
	case "", "null", "~":
		return json.RawMessage("null"), nil
	case "true", "false":
		return json.RawMessage(s), nil
	}
	if strings.HasPrefix(s, "\"") {
		if !json.Valid([]byte(s)) {
			return nil, fmt.Errorf("invalid double-quoted string %s", s)
		}
		var str string
		if err := json.Unmarshal([]byte(s), &str); err != nil {
			return nil, fmt.Errorf("invalid double-quoted string %s: %v", s, err)
		}
		return json.RawMessage(s), nil
	}
	if strings.HasPrefix(s, "'") {
		if len(s) < 2 || !strings.HasSuffix(s, "'") {
			return nil, fmt.Errorf("unterminated single-quoted string %s", s)
		}
		body := strings.ReplaceAll(s[1:len(s)-1], "''", "'")
		out, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		return json.RawMessage(out), nil
	}
	if _, err := strconv.ParseInt(s, 10, 64); err == nil {
		return json.RawMessage(s), nil
	}
	if _, err := strconv.ParseUint(s, 10, 64); err == nil {
		return json.RawMessage(s), nil
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil && json.Valid([]byte(s)) {
		_ = f
		return json.RawMessage(s), nil
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		// Valid as a float but not as JSON (e.g. ".5", "1e5" is fine,
		// "+1" is not): re-marshal the value.
		out, _ := json.Marshal(f)
		return json.RawMessage(out), nil
	}
	out, err := json.Marshal(s)
	if err != nil {
		return nil, err
	}
	return json.RawMessage(out), nil
}

// appendNode serializes the parsed tree as JSON.
func appendNode(buf []byte, n node) []byte {
	switch v := n.(type) {
	case json.RawMessage:
		return append(buf, v...)
	case *mapNode:
		buf = append(buf, '{')
		for i, k := range v.keys {
			if i > 0 {
				buf = append(buf, ',')
			}
			kb, _ := json.Marshal(k)
			buf = append(buf, kb...)
			buf = append(buf, ':')
			buf = appendNode(buf, v.vals[i])
		}
		return append(buf, '}')
	case *seqNode:
		buf = append(buf, '[')
		for i, item := range v.items {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = appendNode(buf, item)
		}
		return append(buf, ']')
	}
	panic("scenario: unknown yaml node")
}
