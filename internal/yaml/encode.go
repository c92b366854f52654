package yaml

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Marshal serializes a node tree to YAML text in the Ansible style the paper
// standardises on: two-space indentation, block collections, sequences
// indented under their key, and minimal quoting that preserves each scalar's
// resolved tag.
func Marshal(n *Node) string {
	var sb strings.Builder
	writeNode(&sb, n, 0, false)
	out := sb.String()
	if out != "" && !strings.HasSuffix(out, "\n") {
		out += "\n"
	}
	return out
}

// MarshalDocument serializes a node tree as a full document with the leading
// "---" directives-end marker used by Ansible playbooks.
func MarshalDocument(n *Node) string {
	return "---\n" + Marshal(n)
}

const indentStep = 2

func writeNode(sb *strings.Builder, n *Node, indent int, inline bool) {
	if n == nil {
		n = NullScalar()
	}
	switch n.Kind {
	case ScalarNode:
		sb.WriteString(encodeScalar(n, indent))
		sb.WriteByte('\n')
	case MappingNode:
		if len(n.Keys) == 0 {
			sb.WriteString("{}\n")
			return
		}
		for i, k := range n.Keys {
			if i > 0 || !inline {
				sb.WriteString(strings.Repeat(" ", indent))
			}
			sb.WriteString(encodeKey(k))
			sb.WriteString(":")
			writeChild(sb, n.Values[i], indent)
		}
	case SequenceNode:
		if len(n.Items) == 0 {
			sb.WriteString("[]\n")
			return
		}
		for i, item := range n.Items {
			if i > 0 || !inline {
				sb.WriteString(strings.Repeat(" ", indent))
			}
			sb.WriteString("- ")
			writeItem(sb, item, indent+indentStep)
		}
	}
}

// writeChild writes a mapping value: scalars stay on the key's line, nested
// collections move to following indented lines.
func writeChild(sb *strings.Builder, v *Node, indent int) {
	if v == nil {
		v = NullScalar()
	}
	switch {
	case v.Kind == ScalarNode && v.Tag == NullTag && v.Value == "":
		sb.WriteByte('\n')
	case v.Kind == ScalarNode && isBlockText(v):
		sb.WriteByte(' ')
		writeBlockScalar(sb, v, indent+indentStep)
	case v.Kind == ScalarNode:
		sb.WriteByte(' ')
		sb.WriteString(encodeScalar(v, indent+indentStep))
		sb.WriteByte('\n')
	case v.Kind == MappingNode && len(v.Keys) == 0:
		sb.WriteString(" {}\n")
	case v.Kind == SequenceNode && len(v.Items) == 0:
		sb.WriteString(" []\n")
	default:
		sb.WriteByte('\n')
		writeNode(sb, v, indent+indentStep, false)
	}
}

// writeItem writes a sequence item whose content begins right after "- ".
func writeItem(sb *strings.Builder, item *Node, indent int) {
	if item == nil {
		item = NullScalar()
	}
	switch {
	case item.Kind == ScalarNode && isBlockText(item):
		// The header sits virtually at this item's content column, so the
		// body must be indented one step deeper to parse back.
		writeBlockScalar(sb, item, indent+indentStep)
	case item.Kind == ScalarNode:
		sb.WriteString(encodeScalar(item, indent))
		sb.WriteByte('\n')
	case item.Kind == MappingNode && len(item.Keys) == 0:
		sb.WriteString("{}\n")
	case item.Kind == SequenceNode && len(item.Items) == 0:
		sb.WriteString("[]\n")
	default:
		writeNode(sb, item, indent, true)
	}
}

// writeBlockScalar emits a multi-line scalar in literal (|) form, choosing
// the chomping indicator that round-trips the exact value. Values without any
// newline fall back to a quoted scalar.
func writeBlockScalar(sb *strings.Builder, n *Node, indent int) {
	text := n.Value
	if !strings.Contains(text, "\n") {
		sb.WriteString(encodeQuoted(text))
		sb.WriteByte('\n')
		return
	}
	body := strings.TrimRight(text, "\n")
	trailing := len(text) - len(body) // newlines after the last content line
	var chomp string
	switch trailing {
	case 0:
		chomp = "-"
	case 1:
		chomp = ""
	default:
		chomp = "+"
	}
	sb.WriteString("|" + chomp + "\n")
	for _, l := range strings.Split(body, "\n") {
		if l == "" {
			sb.WriteByte('\n')
			continue
		}
		sb.WriteString(strings.Repeat(" ", indent))
		sb.WriteString(l)
		sb.WriteByte('\n')
	}
	// Keep-chomping re-adds the blank lines beyond the first newline.
	for i := 1; i < trailing; i++ {
		sb.WriteByte('\n')
	}
}

// isBlockText reports whether a scalar should be emitted as a block scalar:
// either it was one in the source, or it is a multi-line string.
func isBlockText(n *Node) bool {
	if n.Style == Literal || n.Style == Folded {
		return true
	}
	return n.Tag == StrTag && strings.Contains(n.Value, "\n")
}

// encodeKey renders a mapping key, quoting when required.
func encodeKey(k *Node) string {
	if k == nil || k.Kind != ScalarNode {
		return encodeQuoted(fmt.Sprintf("%v", k))
	}
	return encodeScalar(k, 0)
}

// encodeScalar renders a single-line scalar, preserving the resolved tag:
// a *string* that looks like a bool/number/null is quoted so it stays a
// string, while genuinely typed scalars stay plain.
func encodeScalar(n *Node, indent int) string {
	v := n.Value
	switch n.Tag {
	case NullTag:
		if v == "" {
			return "null"
		}
		return v
	case BoolTag, IntTag, FloatTag:
		return v
	}
	if strings.Contains(v, "\n") {
		// Reached only for positions that cannot hold a block scalar
		// (e.g. mapping keys); escape instead.
		return encodeQuoted(v)
	}
	if n.Style == SingleQuoted {
		return "'" + strings.ReplaceAll(v, "'", "''") + "'"
	}
	if n.Style == DoubleQuoted || needsQuoting(v) {
		return encodeQuoted(v)
	}
	return v
}

// needsQuoting reports whether a plain rendering of v would fail to parse
// back as the same string.
func needsQuoting(v string) bool {
	if v == "" {
		return true
	}
	if resolveTag(v, Plain) != StrTag {
		return true
	}
	switch v[0] {
	case '-', '?', ':', ',', '[', ']', '{', '}', '#', '&', '*', '!', '|', '>', '\'', '"', '%', '@', '`':
		return true
	}
	// The parser trims plain scalars with strings.TrimSpace, which knows the
	// Unicode spaces (U+0085, U+2003, U+200A, ...) as well as the ASCII one.
	if strings.TrimSpace(v) != v || strings.HasSuffix(v, ":") {
		return true
	}
	if strings.Contains(v, ": ") || strings.Contains(v, " #") {
		return true
	}
	for i := 0; i < len(v); i++ {
		if v[i] < 0x20 {
			return true
		}
	}
	return false
}

// encodeQuoted renders v as a quoted scalar, preferring single quotes and
// falling back to double quotes when control characters require escapes.
func encodeQuoted(v string) string {
	if !strings.ContainsAny(v, "\n\t\r") && isPrintable(v) {
		return "'" + strings.ReplaceAll(v, "'", "''") + "'"
	}
	var sb strings.Builder
	sb.WriteByte('"')
	for _, r := range v {
		switch r {
		case '\n':
			sb.WriteString(`\n`)
		case '\t':
			sb.WriteString(`\t`)
		case '\r':
			sb.WriteString(`\r`)
		case '\\':
			sb.WriteString(`\\`)
		case '"':
			sb.WriteString(`\"`)
		default:
			if r < 0x20 {
				sb.WriteString(fmt.Sprintf(`\x%02x`, r))
			} else {
				sb.WriteRune(r)
			}
		}
	}
	sb.WriteByte('"')
	return sb.String()
}

func isPrintable(v string) bool {
	for _, r := range v {
		if r < 0x20 {
			return false
		}
	}
	return true
}

// FromGo converts a Go value into a node tree. Maps are emitted with sorted
// keys so output is deterministic; use *Node directly (or OrderedMap) when
// key order matters. Supported inputs: nil, bool, int/int64, float64, string,
// []any, map[string]any and *Node (passed through).
func FromGo(v any) *Node {
	switch x := v.(type) {
	case nil:
		return NullScalar()
	case *Node:
		return x
	case bool:
		return BoolScalar(x)
	case int:
		return IntScalar(x)
	case int64:
		return &Node{Kind: ScalarNode, Value: strconv.FormatInt(x, 10), Tag: IntTag}
	case float64:
		return &Node{Kind: ScalarNode, Value: strconv.FormatFloat(x, 'g', -1, 64), Tag: FloatTag}
	case string:
		return &Node{Kind: ScalarNode, Value: x, Tag: StrTag}
	case []any:
		s := Sequence()
		for _, item := range x {
			s.Items = append(s.Items, FromGo(item))
		}
		return s
	case map[string]any:
		keys := make([]string, 0, len(x))
		for k := range x {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		m := Mapping()
		for _, k := range keys {
			m.Set(k, FromGo(x[k]))
		}
		return m
	default:
		return Scalar(fmt.Sprintf("%v", v))
	}
}

// ToGo converts a node tree into plain Go values: nil, bool, int64, float64,
// string, []any and map[string]any (losing key order).
func ToGo(n *Node) any {
	if n == nil {
		return nil
	}
	switch n.Kind {
	case ScalarNode:
		switch n.Tag {
		case NullTag:
			return nil
		case BoolTag:
			b, _ := n.Bool()
			return b
		case IntTag:
			if v, ok := n.Int(); ok {
				return v
			}
			return n.Value
		case FloatTag:
			if v, ok := n.Float(); ok {
				return v
			}
			return n.Value
		default:
			return n.Value
		}
	case SequenceNode:
		out := make([]any, len(n.Items))
		for i, item := range n.Items {
			out[i] = ToGo(item)
		}
		return out
	case MappingNode:
		out := make(map[string]any, len(n.Keys))
		for i, k := range n.Keys {
			out[keyString(k)] = ToGo(n.Values[i])
		}
		return out
	}
	return nil
}

func keyString(k *Node) string {
	if k == nil {
		return ""
	}
	return k.Value
}
