package yaml

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

// SyntaxError describes a parse failure with its 1-based source position.
type SyntaxError struct {
	Line int
	Col  int
	Msg  string
}

// Error implements the error interface.
func (e *SyntaxError) Error() string {
	return fmt.Sprintf("yaml: line %d, column %d: %s", e.Line, e.Col, e.Msg)
}

// Parse parses a source holding exactly one YAML document and returns its
// root node. An empty (or comment-only) source yields a null scalar root.
func Parse(src string) (*Node, error) {
	docs, err := ParseAll(src)
	if err != nil {
		return nil, err
	}
	switch len(docs) {
	case 0:
		return NullScalar(), nil
	case 1:
		return docs[0], nil
	default:
		return nil, &SyntaxError{Line: docs[1].Line, Col: docs[1].Col, Msg: fmt.Sprintf("expected one document, found %d", len(docs))}
	}
}

// ParseAll parses a multi-document YAML stream and returns one root node per
// document. Documents are separated by "---"; an optional trailing "..."
// terminates a document.
func ParseAll(src string) ([]*Node, error) {
	p := &parser{anchors: make(map[string]*Node)}
	p.split(src)
	var docs []*Node
	for !p.eof() {
		// Skip blank lines, comments and document markers between docs.
		ln := p.peek()
		switch {
		case ln.text == "---" || ln.text == "...":
			p.next()
			continue
		case strings.HasPrefix(ln.text, "--- "):
			// "--- value" puts the root value on the marker line.
			p.lines[p.pos].text = ln.text[4:]
			p.lines[p.pos].indent = ln.indent + 4
		}
		node, err := p.parseValue()
		if err != nil {
			return nil, err
		}
		docs = append(docs, node)
	}
	return docs, nil
}

// line is one physical source line with its indentation precomputed.
type line struct {
	num    int
	indent int
	text   string // content after the indent, trailing newline removed
}

// col returns the 1-based column of byte off of the line's text.
func (l line) col(off int) int { return l.indent + off + 1 }

type parser struct {
	raw     []string // every physical line, for block-scalar bodies
	lines   []line   // structural lines only
	pos     int
	anchors map[string]*Node
}

// split breaks the source into structural lines, dropping blank and
// comment-only lines (their positions never affect block structure for the
// subset we accept: block scalars re-read raw lines, see parseBlockScalar).
// The final line break ends the last line rather than starting an empty
// one, so a keep-chomped block scalar at the end of the document gains no
// extra newline.
func (p *parser) split(src string) {
	p.raw = strings.Split(strings.TrimSuffix(src, "\n"), "\n")
	for i, r := range p.raw {
		r = strings.TrimRight(r, "\r")
		trimmed := strings.TrimLeft(r, " ")
		if trimmed == "" || strings.HasPrefix(trimmed, "#") {
			continue
		}
		p.lines = append(p.lines, line{num: i + 1, indent: len(r) - len(trimmed), text: trimmed})
	}
}

func (p *parser) eof() bool  { return p.pos >= len(p.lines) }
func (p *parser) peek() line { return p.lines[p.pos] }
func (p *parser) next() line { l := p.lines[p.pos]; p.pos++; return l }

// errAt returns a SyntaxError at line ln, 1-based column col.
func errAt(ln line, col int, format string, args ...any) error {
	return &SyntaxError{Line: ln.num, Col: col, Msg: fmt.Sprintf(format, args...)}
}

// lineScan is what scanLine finds in one line. Every offset is a byte offset
// into the scanned text.
type lineScan struct {
	key     int  // the ':' ending a block-mapping key, -1 when there is none
	value   int  // first byte of the value after that ':' (0 when key < 0)
	comment int  // the '#' opening a comment, len(text) when there is none
	depth   int  // flow collections ('[', '{') still open at the end of the line
	open    byte // the quote of a quoted scalar still open at the end of the line, 0 if none
}

// scanLine scans one structural line or, given the depth and open quote that
// the previous line's scan ended with, a line that continues a flow
// collection. It follows YAML's rule that a quote opens a quoted scalar only
// where a scalar starts: at the start of the text (a sequence item's "- " is
// stripped before its line is scanned), after a key's ": ", after an anchor,
// and after '[', '{', ',' or ':' inside a flow collection. Anywhere else ' and
// " belong to a plain scalar, so "it's: fine" is a mapping entry. Together
// with quoteEnd it is the parser's only quote tracker. It allocates nothing.
func scanLine(text string, depth int, open byte) lineScan {
	sc := lineScan{key: -1, comment: len(text)}
	start, quoted := true, false // a scalar may start here; a quoted one just closed
	i := 0
	if open != 0 {
		j := quoteEnd(text, 0, open)
		if j < 0 {
			sc.depth, sc.open = depth, open
			return sc
		}
		i, start, quoted = j+1, false, true
	}
	for ; i < len(text); i++ {
		c := text[i]
		switch {
		case c == ' ' || c == '\t':
			continue
		case c == '#' && (i == 0 || text[i-1] == ' ' || text[i-1] == '\t'):
			sc.comment = i
			sc.depth = depth
			return sc
		case start && (c == '\'' || c == '"'):
			j := quoteEnd(text, i+1, c)
			if j < 0 {
				sc.depth, sc.open = depth, c // the quoted scalar runs past the line
				return sc
			}
			i, start, quoted = j, false, true
			continue
		case start && c == '&':
			j := i + 1
			for j < len(text) && isAnchorByte(text[j]) {
				j++
			}
			if j > i+1 && (j == len(text) || text[j] == ' ') {
				i = j - 1 // the anchored node starts after the name
				continue
			}
		case c == '[' || c == '{':
			if start || depth > 0 {
				depth++
				start, quoted = true, false
				continue
			}
		case depth > 0 && (c == ']' || c == '}'):
			depth--
		case depth > 0 && c == ',':
			start, quoted = true, false
			continue
		case c == ':' && (i+1 == len(text) || text[i+1] == ' ' ||
			depth > 0 && (quoted || text[i+1] == ',' || text[i+1] == '}')):
			if depth == 0 {
				if sc.key >= 0 {
					break // a later ": " is text of the plain value
				}
				sc.key, sc.value = i, i+1
				for sc.value < len(text) && (text[sc.value] == ' ' || text[sc.value] == '\t') {
					sc.value++
				}
			}
			start, quoted = true, false
			continue
		}
		start, quoted = false, false
	}
	sc.depth = depth
	return sc
}

// quoteEnd returns the offset of the quote q that closes a quoted scalar
// whose body resumes at text[i:], or -1 when the scalar runs past the text.
// A doubled quote inside a single-quoted scalar and a backslash-escaped one
// inside a double-quoted scalar do not close it.
func quoteEnd(text string, i int, q byte) int {
	for ; i < len(text); i++ {
		switch {
		case q == '"' && text[i] == '\\':
			i++ // the escaped byte cannot close the scalar
		case text[i] != q:
		case q == '\'' && i+1 < len(text) && text[i+1] == '\'':
			i++ // '' is an escaped quote
		default:
			return i
		}
	}
	return -1
}

// parseValue parses the block node that starts at the current line.
func (p *parser) parseValue() (*Node, error) {
	ln := p.peek()
	if isSeqItem(ln.text) {
		return p.parseBlockSeq(ln.indent)
	}
	sc := scanLine(ln.text, 0, 0)
	if sc.key >= 0 && strings.TrimSpace(ln.text[:sc.key]) != "" {
		return p.parseBlockMap(ln.indent)
	}
	// Scalar or flow collection on its own line.
	p.next()
	return p.parseInline(ln, sc)
}

// isSeqItem reports whether a structural line is a block-sequence entry.
func isSeqItem(text string) bool { return text == "-" || strings.HasPrefix(text, "- ") }

// parseBlockSeq parses consecutive "- ..." items at exactly the given indent.
func (p *parser) parseBlockSeq(indent int) (*Node, error) {
	seq := &Node{Kind: SequenceNode, Line: p.peek().num, Col: indent + 1}
	for !p.eof() {
		ln := p.peek()
		if ln.indent != indent || !isSeqItem(ln.text) {
			if ln.indent > indent {
				return nil, errAt(ln, ln.col(0), "unexpected indentation inside sequence")
			}
			break
		}
		if ln.text == "-" {
			// Item body on following more-indented lines (or null).
			p.next()
			item, err := p.parseChild(ln, ln.col(1))
			if err != nil {
				return nil, err
			}
			seq.Items = append(seq.Items, item)
			continue
		}
		// "- content": re-enter the parser with the dash stripped, so that
		// "- key: v" parses as a mapping whose first line sits at the dash
		// column + 2. Nested "- - x" recurses naturally.
		rest := ln.text[1:]
		trimmed := strings.TrimLeft(rest, " ")
		p.lines[p.pos].text = trimmed
		p.lines[p.pos].indent = ln.indent + 1 + (len(rest) - len(trimmed))
		item, err := p.parseValue()
		if err != nil {
			return nil, err
		}
		seq.Items = append(seq.Items, item)
	}
	return seq, nil
}

// parseChild parses the node nested under a construct on line ln; a child
// must be indented strictly deeper, otherwise the value is a null placed at
// column col of ln.
func (p *parser) parseChild(ln line, col int) (*Node, error) {
	if p.eof() || p.peek().indent <= ln.indent {
		return &Node{Kind: ScalarNode, Tag: NullTag, Line: ln.num, Col: col}, nil
	}
	return p.parseValue()
}

// parseBlockMap parses consecutive "key: value" entries at the given indent.
func (p *parser) parseBlockMap(indent int) (*Node, error) {
	m := &Node{Kind: MappingNode, Line: p.peek().num, Col: indent + 1}
	startLine := p.peek()
	var merges []*Node
	for !p.eof() {
		ln := p.peek()
		if ln.indent != indent {
			if ln.indent > indent {
				return nil, errAt(ln, ln.col(0), "unexpected indentation inside mapping")
			}
			break
		}
		if isSeqItem(ln.text) {
			break
		}
		sc := scanLine(ln.text, 0, 0)
		if sc.key < 0 {
			break
		}
		p.next()
		if c := ln.text[0]; c == '[' || c == '{' {
			return nil, errAt(ln, ln.col(0), "non-scalar mapping key")
		}
		keyNode, err := parseScalarToken(ln.text[:sc.key], ln, ln.col(0))
		if err != nil {
			return nil, err
		}
		if keyNode.Value != mergeKey {
			for _, k := range m.Keys {
				if k.Value == keyNode.Value {
					return nil, errAt(ln, ln.col(0), "duplicate mapping key %q", keyNode.Value)
				}
			}
		}
		var val *Node
		if strings.TrimSpace(ln.text[sc.value:sc.comment]) == "" {
			// Value nested on following lines; a sequence may sit at the
			// same indent as its key (common Ansible style) or deeper.
			if !p.eof() && p.peek().indent == indent && isSeqItem(p.peek().text) {
				val, err = p.parseBlockSeq(indent)
			} else {
				val, err = p.parseChild(ln, ln.col(sc.value))
			}
		} else {
			val, err = p.parseInline(ln, sc)
		}
		if err != nil {
			return nil, err
		}
		if keyNode.Value == mergeKey {
			merges = append(merges, val)
			continue
		}
		m.Keys = append(m.Keys, keyNode)
		m.Values = append(m.Values, val)
	}
	if err := applyMerges(m, merges, startLine); err != nil {
		return nil, err
	}
	return m, nil
}

// mergeKey is the YAML merge-key indicator ("<<: *defaults").
const mergeKey = "<<"

// applyMerges folds merge-key values into the mapping: entries from the
// merged mapping(s) are appended unless an explicit key overrides them, per
// the YAML merge-key specification.
func applyMerges(m *Node, merges []*Node, ln line) error {
	for _, merge := range merges {
		var sources []*Node
		switch {
		case merge == nil:
			continue
		case merge.Kind == MappingNode:
			sources = []*Node{merge}
		case merge.Kind == SequenceNode:
			sources = merge.Items
		default:
			return errAt(ln, ln.col(0), "merge key value must be a mapping or list of mappings")
		}
		for _, src := range sources {
			if src == nil || src.Kind != MappingNode {
				return errAt(ln, ln.col(0), "merge key value must be a mapping or list of mappings")
			}
			for i, k := range src.Keys {
				if k.Kind == ScalarNode && m.Has(k.Value) {
					continue // explicit keys win
				}
				m.Keys = append(m.Keys, k.Clone())
				m.Values = append(m.Values, src.Values[i].Clone())
			}
		}
	}
	return nil
}

// anchorToken splits "&name rest"; rest is the offset just past the name,
// and ok is false when text is not an anchor.
func anchorToken(text string) (name string, rest int, ok bool) {
	if len(text) < 2 || text[0] != '&' {
		return "", 0, false
	}
	end := 1
	for end < len(text) && text[end] != ' ' {
		end++
	}
	name = text[1:end]
	if !isAnchorName(name) {
		return "", 0, false
	}
	return name, end, true
}

// isAnchorName accepts the identifier-like anchor names YAML uses.
func isAnchorName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		if !isAnchorByte(s[i]) {
			return false
		}
	}
	return true
}

func isAnchorByte(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_' || c == '-'
}

// parseInline parses the value that begins at byte sc.value of the
// already-consumed line ln and ends at its comment: a flow collection, a
// block-scalar header, an anchored or aliased node, or a single-line scalar.
func (p *parser) parseInline(ln line, sc lineScan) (*Node, error) {
	raw := ln.text[sc.value:sc.comment]
	sc.value += len(raw) - len(strings.TrimLeftFunc(raw, unicode.IsSpace))
	text := strings.TrimSpace(raw)
	col := ln.col(sc.value)
	if text == "" {
		return &Node{Kind: ScalarNode, Tag: NullTag, Line: ln.num, Col: col}, nil
	}
	// Anchor: "&name value" anchors the value; "&name" alone anchors the
	// nested block that follows on deeper-indented lines.
	if name, rest, ok := anchorToken(text); ok {
		var n *Node
		var err error
		if rest == len(text) {
			n, err = p.parseChild(ln, col)
		} else {
			sc.value += rest
			n, err = p.parseInline(ln, sc)
		}
		if err != nil {
			return nil, err
		}
		p.anchors[name] = n
		return n, nil
	}
	// Alias: "*name" resolves to a copy of the anchored node.
	if len(text) > 1 && text[0] == '*' && isAnchorName(text[1:]) {
		n, ok := p.anchors[text[1:]]
		if !ok {
			return nil, errAt(ln, col, "unknown alias *%s", text[1:])
		}
		return n.Clone(), nil
	}
	switch text[0] {
	case '|', '>':
		return p.parseBlockScalar(ln, text, col)
	case '{', '[':
		// A flow collection may span lines: join them, comments cut, until
		// its brackets balance. Columns then count through the joined text.
		joined := text
		if sc.depth > 0 {
			b := []byte(text)
			for sc.depth > 0 {
				if p.eof() {
					return nil, errAt(ln, col, "unterminated flow collection")
				}
				next := p.next()
				sc = scanLine(next.text, sc.depth, sc.open)
				b = append(append(b, ' '), next.text[:sc.comment]...)
			}
			joined = string(b)
		}
		end := col + len(joined)
		n, rest, err := p.parseFlow(joined, ln, end)
		if err != nil {
			return nil, err
		}
		if trailing := strings.TrimSpace(rest); trailing != "" {
			return nil, errAt(ln, end-len(rest), "trailing content %q after flow collection", trailing)
		}
		return n, nil
	}
	return parseScalarToken(text, ln, col)
}

// parseBlockScalar parses a literal (|) or folded (>) block scalar whose
// header is on line ln at column col. Blank interior lines matter, so it
// re-reads the raw source lines between the header and the next structural
// line.
func (p *parser) parseBlockScalar(ln line, header string, col int) (*Node, error) {
	style := Literal
	if header[0] == '>' {
		style = Folded
	}
	chomp := byte(0) // 0 = clip, '-' = strip, '+' = keep
	explicitIndent := 0
	for i := 1; i < len(header) && header[i] != ' '; i++ {
		switch c := header[i]; {
		case c == '-' || c == '+':
			chomp = c
		case c >= '1' && c <= '9':
			explicitIndent = int(c - '0')
		}
	}

	// The body is every following raw line that is blank or indented
	// strictly deeper than the header line. Raw lines are used because the
	// structural pass cannot see inside a block scalar (its lines may look
	// like mappings or comments) and because interior blank lines matter.
	end := ln.num // 0-based index of first candidate body line
	for end < len(p.raw) {
		r := strings.TrimRight(p.raw[end], "\r")
		t := strings.TrimLeft(r, " ")
		if t == "" {
			end++
			continue
		}
		if len(r)-len(t) <= ln.indent {
			break
		}
		end++
	}
	var body []string
	for i := ln.num; i < end; i++ {
		body = append(body, strings.TrimRight(p.raw[i], "\r"))
	}
	// Fix the block indent from the first non-blank body line (or the
	// explicit indicator relative to the header's indent).
	blockIndent := -1
	if explicitIndent > 0 {
		blockIndent = ln.indent + explicitIndent
	} else {
		for _, b := range body {
			if strings.TrimSpace(b) == "" {
				continue
			}
			blockIndent = len(b) - len(strings.TrimLeft(b, " "))
			break
		}
	}
	var content []string
	for _, b := range body {
		if strings.TrimSpace(b) == "" {
			content = append(content, "")
			continue
		}
		if blockIndent >= 0 && len(b) >= blockIndent {
			content = append(content, b[blockIndent:])
		} else {
			content = append(content, strings.TrimLeft(b, " "))
		}
	}
	// Advance past the structural lines that fell inside the body window.
	for !p.eof() && p.peek().num <= end {
		p.next()
	}

	text := assembleBlockScalar(content, style, chomp)
	return &Node{Kind: ScalarNode, Value: text, Style: style, Tag: StrTag, Line: ln.num, Col: col}, nil
}

// assembleBlockScalar joins block-scalar content lines per the style and
// chomping indicator.
func assembleBlockScalar(lines []string, style Style, chomp byte) string {
	// Drop trailing blank lines but remember how many for keep-chomping.
	trailing := 0
	for len(lines) > 0 && lines[len(lines)-1] == "" {
		lines = lines[:len(lines)-1]
		trailing++
	}
	var sb strings.Builder
	if style == Literal {
		for i, l := range lines {
			if i > 0 {
				sb.WriteByte('\n')
			}
			sb.WriteString(l)
		}
	} else {
		prevBlank := false
		for i, l := range lines {
			if l == "" {
				sb.WriteByte('\n')
				prevBlank = true
				continue
			}
			if i > 0 && !prevBlank {
				sb.WriteByte(' ')
			}
			sb.WriteString(l)
			prevBlank = false
		}
	}
	switch {
	case chomp == '+' && len(lines) == 0:
		return strings.Repeat("\n", trailing) // only the kept blank lines
	case chomp == '-' || len(lines) == 0:
		return sb.String()
	case chomp == '+':
		return sb.String() + strings.Repeat("\n", trailing+1)
	default:
		return sb.String() + "\n"
	}
}

// parseScalarToken decodes a single scalar token, quoted or plain, that
// starts at column col of line ln.
func parseScalarToken(tok string, ln line, col int) (*Node, error) {
	tok = strings.TrimSpace(tok)
	if tok == "" {
		return &Node{Kind: ScalarNode, Tag: NullTag, Line: ln.num, Col: col}, nil
	}
	if tok[0] != '\'' && tok[0] != '"' {
		return &Node{Kind: ScalarNode, Value: tok, Tag: resolveTag(tok, Plain), Line: ln.num, Col: col}, nil
	}
	n, end, err := quotedScalar(tok, ln, col)
	if rest := strings.TrimLeft(tok[end:], " \t"); err == nil && rest != "" {
		err = errAt(ln, col+len(tok)-len(rest), "unexpected %q after quoted scalar", rest)
	}
	return n, err
}

// quotedScalar decodes the quoted scalar that opens text at column col of
// line ln and returns it with the offset just past its closing quote.
func quotedScalar(text string, ln line, col int) (*Node, int, error) {
	style, name := SingleQuoted, "single-quoted"
	if text[0] == '"' {
		style, name = DoubleQuoted, "double-quoted"
	}
	end := quoteEnd(text, 1, text[0])
	if end < 0 {
		return nil, 0, errAt(ln, col, "unterminated %s scalar", name)
	}
	v := text[1:end]
	if style == SingleQuoted {
		v = strings.ReplaceAll(v, "''", "'")
	} else {
		var err error
		if v, err = unescapeDouble(v); err != nil {
			return nil, 0, errAt(ln, col, "%v", err)
		}
	}
	return &Node{Kind: ScalarNode, Value: v, Style: style, Tag: StrTag, Line: ln.num, Col: col}, end + 1, nil
}

// unescapeDouble resolves the escape sequences permitted in double-quoted
// scalars.
func unescapeDouble(s string) (string, error) {
	if !strings.ContainsRune(s, '\\') {
		return s, nil
	}
	var sb strings.Builder
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c != '\\' {
			sb.WriteByte(c)
			continue
		}
		i++
		if i >= len(s) {
			return "", fmt.Errorf("dangling escape in double-quoted scalar")
		}
		switch s[i] {
		case 'n':
			sb.WriteByte('\n')
		case 't':
			sb.WriteByte('\t')
		case 'r':
			sb.WriteByte('\r')
		case '0':
			sb.WriteByte(0)
		case '\\':
			sb.WriteByte('\\')
		case '"':
			sb.WriteByte('"')
		case 'x':
			if i+2 >= len(s) {
				return "", fmt.Errorf("truncated \\x escape")
			}
			v, err := strconv.ParseUint(s[i+1:i+3], 16, 8)
			if err != nil {
				return "", fmt.Errorf("invalid \\x escape: %v", err)
			}
			sb.WriteByte(byte(v))
			i += 2
		case 'u':
			if i+4 >= len(s) {
				return "", fmt.Errorf("truncated \\u escape")
			}
			v, err := strconv.ParseUint(s[i+1:i+5], 16, 32)
			if err != nil {
				return "", fmt.Errorf("invalid \\u escape: %v", err)
			}
			sb.WriteRune(rune(v))
			i += 4
		default:
			return "", fmt.Errorf("unknown escape \\%c", s[i])
		}
	}
	return sb.String(), nil
}

// parseFlow parses a flow value ({...}, [...], or a flow scalar) from the
// start of text, returning the node and the unconsumed remainder. text is a
// suffix of the flow text read from line ln, whose last byte ends just before
// column end, so a suffix rest starts at column end-len(rest).
func (p *parser) parseFlow(text string, ln line, end int) (*Node, string, error) {
	text = strings.TrimLeft(text, " ")
	col := end - len(text)
	if text == "" {
		return &Node{Kind: ScalarNode, Tag: NullTag, Line: ln.num, Col: col}, "", nil
	}
	switch text[0] {
	case '{':
		return p.parseFlowCollection(text[1:], ln, end, '}')
	case '[':
		return p.parseFlowCollection(text[1:], ln, end, ']')
	case '\'', '"':
		n, end, err := quotedScalar(text, ln, col)
		return n, text[end:], err
	}
	// Plain flow scalar: up to , } ] or ": ".
	for i := 0; i < len(text); i++ {
		c := text[i]
		if c == ',' || c == '}' || c == ']' {
			n, err := p.flowScalar(text[:i], ln, col)
			return n, text[i:], err
		}
		if c == ':' && (i+1 == len(text) || text[i+1] == ' ' || text[i+1] == ',' || text[i+1] == '}') {
			n, err := p.flowScalar(text[:i], ln, col)
			return n, text[i:], err
		}
	}
	n, err := p.flowScalar(text, ln, col)
	return n, "", err
}

// flowScalar decodes a plain flow token, resolving aliases.
func (p *parser) flowScalar(tok string, ln line, col int) (*Node, error) {
	trimmed := strings.TrimSpace(tok)
	if len(trimmed) > 1 && trimmed[0] == '*' && isAnchorName(trimmed[1:]) {
		n, ok := p.anchors[trimmed[1:]]
		if !ok {
			return nil, errAt(ln, col, "unknown alias %s", trimmed)
		}
		return n.Clone(), nil
	}
	return parseScalarToken(tok, ln, col)
}

// parseFlowCollection parses the entries of a flow mapping (close '}') or
// sequence (close ']'); text follows the opening bracket and, like the other
// flow parsers' text, is a suffix of the flow text that ends before column
// end.
func (p *parser) parseFlowCollection(text string, ln line, end int, close byte) (*Node, string, error) {
	col := end - len(text) - 1 // the opening bracket
	c := &Node{Kind: SequenceNode, Line: ln.num, Col: col}
	if close == '}' {
		c.Kind = MappingNode
	}
	rest := strings.TrimLeft(text, " ")
	for {
		if rest == "" {
			return nil, "", errAt(ln, col, "unterminated flow %v", c.Kind)
		}
		if rest[0] == close {
			return c, rest[1:], nil
		}
		at := end - len(rest)
		item, r2, err := p.parseFlow(rest, ln, end)
		if err != nil {
			return nil, "", err
		}
		rest = strings.TrimLeft(r2, " ")
		// A mapping entry, or a single-pair mapping inside a sequence:
		// [a: b, c: d].
		if c.Kind == MappingNode || strings.HasPrefix(rest, ":") {
			// Ansible never uses collection keys, and the encoder could
			// not write one back as a block mapping key.
			if item.Kind != ScalarNode {
				return nil, "", errAt(ln, at, "non-scalar mapping key")
			}
			val := &Node{Kind: ScalarNode, Tag: NullTag, Line: ln.num, Col: end - len(rest)}
			if strings.HasPrefix(rest, ":") {
				if val, r2, err = p.parseFlow(rest[1:], ln, end); err != nil {
					return nil, "", err
				}
				rest = strings.TrimLeft(r2, " ")
			}
			if c.Kind == SequenceNode {
				item = &Node{Kind: MappingNode, Line: item.Line, Col: item.Col, Keys: []*Node{item}, Values: []*Node{val}}
			} else {
				// Same duplicate-key rule as block mappings; without it a
				// flow document like {a, a} parses but re-encodes to an
				// invalid block mapping.
				for _, k := range c.Keys {
					if k.Value == item.Value && item.Value != mergeKey {
						return nil, "", errAt(ln, at, "duplicate mapping key %q", item.Value)
					}
				}
				c.Keys = append(c.Keys, item)
				c.Values = append(c.Values, val)
			}
		}
		if c.Kind == SequenceNode {
			c.Items = append(c.Items, item)
		}
		switch {
		case strings.HasPrefix(rest, ","):
			rest = strings.TrimLeft(rest[1:], " ")
		case rest != "" && rest[0] == close:
			return c, rest[1:], nil
		default:
			return nil, "", errAt(ln, end-len(rest), "expected ',' or '%c' in flow %v, found %q", close, c.Kind, rest)
		}
	}
}
