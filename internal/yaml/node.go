// Package yaml implements a YAML subset parser and serializer sufficient for
// Ansible playbooks, role task files and the generic YAML documents used by
// the Wisdom corpus (Kubernetes-, CI- and compose-style files).
//
// The package is self-contained (stdlib only) and exposes an ordered node
// tree: unlike map-based YAML bindings, key order, scalar styles and resolved
// scalar tags are preserved, because the Ansible Aware metric and the Ansible
// schema validator are defined over exactly that information.
//
// Supported constructs: block mappings and sequences, flow mappings and
// sequences (including multi-line flow), plain/single-/double-quoted scalars,
// literal (|) and folded (>) block scalars with strip/keep chomping, comments,
// multi-document streams ("---" / "..."), core-schema scalar resolution
// (null, bool, int, float, str), anchors and aliases (resolved to copies at
// parse time; the encoder emits expanded documents), and "<<" merge keys.
// Custom tags are not supported; Ansible content does not use them.
package yaml

import (
	"fmt"
	"strconv"
	"strings"
)

// Kind discriminates the three structural node kinds.
type Kind int

const (
	// ScalarNode is a leaf: a string, number, boolean or null.
	ScalarNode Kind = iota
	// MappingNode is an ordered list of key/value node pairs.
	MappingNode
	// SequenceNode is an ordered list of item nodes.
	SequenceNode
)

// String returns the lower-case kind name.
func (k Kind) String() string {
	switch k {
	case ScalarNode:
		return "scalar"
	case MappingNode:
		return "mapping"
	case SequenceNode:
		return "sequence"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Style records how a scalar was written in the source, which the encoder
// reuses so round-tripped documents keep their quoting.
type Style int

const (
	// Plain is an unquoted scalar.
	Plain Style = iota
	// SingleQuoted is a scalar written inside single quotes.
	SingleQuoted
	// DoubleQuoted is a scalar written inside double quotes.
	DoubleQuoted
	// Literal is a block scalar introduced by '|'.
	Literal
	// Folded is a block scalar introduced by '>'.
	Folded
)

// Tag is the resolved core-schema type of a scalar.
type Tag int

const (
	// StrTag marks a textual scalar.
	StrTag Tag = iota
	// IntTag marks an integer scalar.
	IntTag
	// FloatTag marks a floating-point scalar.
	FloatTag
	// BoolTag marks a boolean scalar.
	BoolTag
	// NullTag marks a null scalar (including the empty value).
	NullTag
)

// String returns the short tag name as used in error messages.
func (t Tag) String() string {
	switch t {
	case StrTag:
		return "str"
	case IntTag:
		return "int"
	case FloatTag:
		return "float"
	case BoolTag:
		return "bool"
	case NullTag:
		return "null"
	}
	return fmt.Sprintf("tag(%d)", int(t))
}

// Node is one vertex of the parsed document tree.
//
// For ScalarNode, Value holds the decoded text (quotes removed, escapes
// resolved) and Tag/Style describe its resolved type and source style. For
// MappingNode, Keys[i] maps to Values[i] in document order. For SequenceNode,
// Items holds the elements in order.
type Node struct {
	Kind  Kind
	Value string
	Style Style
	Tag   Tag

	Keys   []*Node
	Values []*Node
	Items  []*Node

	// Line and Col are the 1-based source position of the node, when the
	// node came from the parser. Synthesised nodes carry zeros.
	Line, Col int
}

// Scalar returns a plain string scalar node.
func Scalar(v string) *Node { return &Node{Kind: ScalarNode, Value: v, Tag: resolveTag(v, Plain)} }

// ScalarTyped returns a scalar node with an explicit tag and style.
func ScalarTyped(v string, tag Tag, style Style) *Node {
	return &Node{Kind: ScalarNode, Value: v, Tag: tag, Style: style}
}

// IntScalar returns an integer scalar node.
func IntScalar(v int) *Node {
	return &Node{Kind: ScalarNode, Value: strconv.Itoa(v), Tag: IntTag}
}

// BoolScalar returns a boolean scalar node rendered as "true"/"false".
func BoolScalar(v bool) *Node {
	return &Node{Kind: ScalarNode, Value: strconv.FormatBool(v), Tag: BoolTag}
}

// NullScalar returns a null scalar node (rendered as an empty value).
func NullScalar() *Node { return &Node{Kind: ScalarNode, Value: "", Tag: NullTag} }

// Mapping returns an empty mapping node.
func Mapping() *Node { return &Node{Kind: MappingNode} }

// Sequence returns a sequence node holding the given items.
func Sequence(items ...*Node) *Node { return &Node{Kind: SequenceNode, Items: items} }

// Set appends (or replaces, if the key already exists) the entry for key in a
// mapping node and returns the node to allow chaining. It panics when called
// on a non-mapping, which is always a programming error.
func (n *Node) Set(key string, value *Node) *Node {
	if n.Kind != MappingNode {
		panic("yaml: Set on " + n.Kind.String() + " node")
	}
	for i, k := range n.Keys {
		if k.Kind == ScalarNode && k.Value == key {
			n.Values[i] = value
			return n
		}
	}
	n.Keys = append(n.Keys, Scalar(key))
	n.Values = append(n.Values, value)
	return n
}

// Get returns the value for key in a mapping node, or nil when absent or when
// the node is not a mapping.
func (n *Node) Get(key string) *Node {
	if n == nil || n.Kind != MappingNode {
		return nil
	}
	for i, k := range n.Keys {
		if k.Kind == ScalarNode && k.Value == key {
			return n.Values[i]
		}
	}
	return nil
}

// Has reports whether a mapping node contains key.
func (n *Node) Has(key string) bool { return n.Get(key) != nil }

// Len returns the number of entries (mapping), items (sequence) or bytes
// (scalar value) of the node.
func (n *Node) Len() int {
	if n == nil {
		return 0
	}
	switch n.Kind {
	case MappingNode:
		return len(n.Keys)
	case SequenceNode:
		return len(n.Items)
	default:
		return len(n.Value)
	}
}

// IsNull reports whether the node is a null scalar.
func (n *Node) IsNull() bool { return n == nil || (n.Kind == ScalarNode && n.Tag == NullTag) }

// Bool returns the boolean value of a bool-tagged scalar; ok is false
// otherwise. YAML 1.1 forms accepted by Ansible (yes/no/on/off) resolve true.
func (n *Node) Bool() (v, ok bool) {
	if n == nil || n.Kind != ScalarNode || n.Tag != BoolTag {
		return false, false
	}
	switch strings.ToLower(n.Value) {
	case "true", "yes", "on":
		return true, true
	default:
		return false, true
	}
}

// Int returns the integer value of an int-tagged scalar; ok is false
// otherwise.
func (n *Node) Int() (int64, bool) {
	if n == nil || n.Kind != ScalarNode || n.Tag != IntTag {
		return 0, false
	}
	v, err := strconv.ParseInt(strings.ReplaceAll(n.Value, "_", ""), 0, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// Float returns the floating-point value of an int- or float-tagged scalar;
// ok is false otherwise.
func (n *Node) Float() (float64, bool) {
	if n == nil || n.Kind != ScalarNode {
		return 0, false
	}
	if n.Tag != FloatTag && n.Tag != IntTag {
		return 0, false
	}
	v, err := strconv.ParseFloat(strings.ReplaceAll(n.Value, "_", ""), 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// Clone returns a deep copy of the node tree.
func (n *Node) Clone() *Node {
	if n == nil {
		return nil
	}
	c := &Node{Kind: n.Kind, Value: n.Value, Style: n.Style, Tag: n.Tag, Line: n.Line, Col: n.Col}
	if len(n.Keys) > 0 {
		c.Keys = make([]*Node, len(n.Keys))
		c.Values = make([]*Node, len(n.Values))
		for i := range n.Keys {
			c.Keys[i] = n.Keys[i].Clone()
			c.Values[i] = n.Values[i].Clone()
		}
	}
	if len(n.Items) > 0 {
		c.Items = make([]*Node, len(n.Items))
		for i := range n.Items {
			c.Items[i] = n.Items[i].Clone()
		}
	}
	return c
}

// Equal reports deep structural equality of two node trees, comparing kinds,
// resolved tags and values but ignoring styles and source positions.
func (n *Node) Equal(o *Node) bool {
	if n == nil || o == nil {
		return n.IsNull() && o.IsNull()
	}
	if n.Kind != o.Kind {
		return false
	}
	switch n.Kind {
	case ScalarNode:
		if n.Tag != o.Tag {
			return false
		}
		// Null spellings ("", "~", "null") are the same value.
		return n.Tag == NullTag || n.Value == o.Value
	case MappingNode:
		if len(n.Keys) != len(o.Keys) {
			return false
		}
		for i := range n.Keys {
			if !n.Keys[i].Equal(o.Keys[i]) || !n.Values[i].Equal(o.Values[i]) {
				return false
			}
		}
		return true
	case SequenceNode:
		if len(n.Items) != len(o.Items) {
			return false
		}
		for i := range n.Items {
			if !n.Items[i].Equal(o.Items[i]) {
				return false
			}
		}
		return true
	}
	return false
}

// resolveTag implements core-schema scalar resolution for plain scalars.
// Quoted and block scalars are always strings.
func resolveTag(v string, style Style) Tag {
	if style != Plain {
		return StrTag
	}
	switch v {
	case "", "~", "null", "Null", "NULL":
		return NullTag
	case "true", "True", "TRUE", "false", "False", "FALSE",
		"yes", "Yes", "YES", "no", "No", "NO",
		"on", "On", "ON", "off", "Off", "OFF":
		return BoolTag
	}
	if isInt(v) {
		return IntTag
	}
	if isFloat(v) {
		return FloatTag
	}
	return StrTag
}

func isInt(s string) bool {
	t := strings.TrimPrefix(strings.TrimPrefix(s, "-"), "+")
	if t == "" {
		return false
	}
	if strings.HasPrefix(t, "0x") || strings.HasPrefix(t, "0X") {
		_, err := strconv.ParseInt(t[2:], 16, 64)
		return err == nil
	}
	if strings.HasPrefix(t, "0o") || strings.HasPrefix(t, "0O") {
		_, err := strconv.ParseInt(t[2:], 8, 64)
		return err == nil
	}
	digits := 0
	for i, r := range t {
		if r == '_' && i > 0 && i < len(t)-1 {
			continue // interior underscores group digits (YAML 1.1 style)
		}
		if r < '0' || r > '9' {
			return false
		}
		digits++
	}
	return digits > 0
}

func isFloat(s string) bool {
	t := strings.TrimPrefix(strings.TrimPrefix(s, "-"), "+")
	switch t {
	case ".inf", ".Inf", ".INF", ".nan", ".NaN", ".NAN":
		return true
	}
	if !strings.ContainsAny(t, ".eE") {
		return false
	}
	// Reject version-like strings ("1.2.3") and lone dots.
	if strings.Count(t, ".") > 1 || t == "." {
		return false
	}
	_, err := strconv.ParseFloat(t, 64)
	return err == nil
}
