package yaml

import (
	"strings"
	"testing"
)

func TestKindTagStrings(t *testing.T) {
	if ScalarNode.String() != "scalar" || MappingNode.String() != "mapping" || SequenceNode.String() != "sequence" {
		t.Error("Kind.String wrong")
	}
	if Kind(99).String() == "" {
		t.Error("unknown kind empty")
	}
	for tag, want := range map[Tag]string{
		StrTag: "str", IntTag: "int", FloatTag: "float", BoolTag: "bool", NullTag: "null",
	} {
		if tag.String() != want {
			t.Errorf("Tag %v = %q, want %q", tag, tag.String(), want)
		}
	}
	if Tag(42).String() == "" {
		t.Error("unknown tag empty")
	}
}

func TestScalarAccessors(t *testing.T) {
	// Bool on YAML 1.1 forms.
	for _, form := range []string{"yes", "on", "True", "TRUE"} {
		n := mustParse(t, "v: "+form+"\n").Get("v")
		if v, ok := n.Bool(); !ok || !v {
			t.Errorf("Bool(%q) = %v, %v", form, v, ok)
		}
	}
	for _, form := range []string{"no", "off", "False"} {
		n := mustParse(t, "v: "+form+"\n").Get("v")
		if v, ok := n.Bool(); !ok || v {
			t.Errorf("Bool(%q) = %v, %v", form, v, ok)
		}
	}
	// Bool on non-bool: not ok.
	if _, ok := mustParse(t, "v: hello\n").Get("v").Bool(); ok {
		t.Error("Bool on string ok")
	}
	// Int with underscores and hex.
	if v, ok := mustParse(t, "v: 1_000\n").Get("v").Int(); !ok || v != 1000 {
		t.Errorf("Int(1_000) = %v, %v", v, ok)
	}
	if v, ok := mustParse(t, "v: 0x1F\n").Get("v").Int(); !ok || v != 31 {
		t.Errorf("Int(0x1F) = %v, %v", v, ok)
	}
	// Float from int scalar.
	if v, ok := mustParse(t, "v: 3\n").Get("v").Float(); !ok || v != 3 {
		t.Errorf("Float(3) = %v, %v", v, ok)
	}
	if v, ok := mustParse(t, "v: 2.5\n").Get("v").Float(); !ok || v != 2.5 {
		t.Errorf("Float(2.5) = %v, %v", v, ok)
	}
	if _, ok := mustParse(t, "v: text\n").Get("v").Float(); ok {
		t.Error("Float on string ok")
	}
	// Len on scalar counts bytes; on nil 0.
	if mustParse(t, "v: abc\n").Get("v").Len() != 3 {
		t.Error("scalar Len wrong")
	}
	var nilNode *Node
	if nilNode.Len() != 0 {
		t.Error("nil Len wrong")
	}
}

func TestEqualKindMismatch(t *testing.T) {
	a := mustParse(t, "v: 1\n")
	b := mustParse(t, "- 1\n")
	if a.Equal(b) {
		t.Error("mapping equal to sequence")
	}
	// nil vs non-null.
	var n *Node
	if n.Equal(Scalar("x")) {
		t.Error("nil equal to scalar")
	}
	if !n.Equal(NullScalar()) {
		t.Error("nil not equal to null scalar")
	}
	// Different mapping lengths.
	c := mustParse(t, "a: 1\nb: 2\n")
	d := mustParse(t, "a: 1\n")
	if c.Equal(d) {
		t.Error("different-size mappings equal")
	}
	// Different sequence lengths.
	e := mustParse(t, "- 1\n- 2\n")
	f := mustParse(t, "- 1\n")
	if e.Equal(f) {
		t.Error("different-size sequences equal")
	}
}

func TestDoubleQuotedEscapes(t *testing.T) {
	tests := map[string]string{
		`v: "tab\there"`:     "tab\there",
		`v: "nl\nline"`:      "nl\nline",
		`v: "cr\rret"`:       "cr\rret",
		`v: "back\\slash"`:   `back\slash`,
		`v: "quote\"inside"`: `quote"inside`,
		`v: "hex\x41char"`:   "hexAchar",
		`v: "uniécode"`:      "uniécode",
		`v: "nul\0byte"`:     "nul\x00byte",
	}
	for src, want := range tests {
		n := mustParse(t, src+"\n")
		if got := n.Get("v").Value; got != want {
			t.Errorf("%s = %q, want %q", src, got, want)
		}
	}
	for _, bad := range []string{
		`v: "dangling\"` + "\n",
		`v: "badesc\q"` + "\n",
		`v: "shorthex\x4"` + "\n",
		`v: "shortuni\u00"` + "\n",
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted invalid escape", bad)
		}
	}
}

func TestFlowQuotedStrings(t *testing.T) {
	n := mustParse(t, `v: {a: 'single q', b: "double q", c: [x, 'y, z']}`+"\n")
	c := n.Get("v")
	if c.Get("a").Value != "single q" || c.Get("b").Value != "double q" {
		t.Errorf("flow quoted = %v / %v", c.Get("a"), c.Get("b"))
	}
	list := c.Get("c")
	if len(list.Items) != 2 || list.Items[1].Value != "y, z" {
		t.Errorf("quoted comma in flow list = %+v", list)
	}
}

func TestFlowSinglePairMappings(t *testing.T) {
	n := mustParse(t, "pairs: [a: 1, b: 2]\n")
	pairs := n.Get("pairs")
	if pairs.Kind != SequenceNode || len(pairs.Items) != 2 {
		t.Fatalf("pairs = %+v", pairs)
	}
	if v, _ := pairs.Items[0].Get("a").Int(); v != 1 {
		t.Errorf("first pair = %v", pairs.Items[0])
	}
}

func TestFlowErrors(t *testing.T) {
	bad := []string{
		"v: {a: 1 b: 2}\n",    // missing comma
		"v: {a: 'unclosed}\n", // unterminated quote in flow
		"v: [\"unclosed]\n",   // unterminated double quote in flow
		"v: {}} \n",           // trailing content: brace depth mismatch is caught as trailing
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded", src)
		}
	}
}

func TestMarshalSequenceItems(t *testing.T) {
	// Sequence items of every shape: nested seq, empty map, empty seq,
	// block text, null.
	seq := Sequence(
		Sequence(Scalar("x")),
		Mapping(),
		Sequence(),
		ScalarTyped("line1\nline2\n", StrTag, Literal),
		NullScalar(),
	)
	out := Marshal(seq)
	back, err := Parse(out)
	if err != nil {
		t.Fatalf("re-parse: %v\n%s", err, out)
	}
	if !seq.Equal(back) {
		t.Errorf("round trip changed:\n%s", out)
	}
}

func TestMarshalNonScalarKey(t *testing.T) {
	// Degenerate mapping keys must not panic.
	m := Mapping()
	m.Keys = append(m.Keys, Sequence(Scalar("k")))
	m.Values = append(m.Values, Scalar("v"))
	out := Marshal(m)
	if !strings.Contains(out, ":") {
		t.Errorf("weird key output: %q", out)
	}
}

func TestEncodeQuotedControlChars(t *testing.T) {
	n := Mapping().Set("k", ScalarTyped("bell\x07beep", StrTag, Plain))
	out := Marshal(n)
	back, err := Parse(out)
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if back.Get("k").Value != "bell\x07beep" {
		t.Errorf("control char lost: %q", back.Get("k").Value)
	}
}

func TestScanLineFlowDepthQuotes(t *testing.T) {
	for text, want := range map[string]int{
		`{a: "}未closed"`: 1, // quoted brace not counted
		`[1, 2]`:         0,
		`{'}': [`:        2, // single-quoted brace not counted
		`[it's, b]`:      0, // mid-scalar quote opens nothing
		`[a, 'b, # c'`:   1, // '#' inside quotes is no comment
		`[a, # ]`:        1, // '#' after a space is a comment
		`{"a":"]",`:      1, // JSON-style value after a quoted key
	} {
		if got := scanLine(text, 0, 0).depth; got != want {
			t.Errorf("scanLine(%q).depth = %d, want %d", text, got, want)
		}
	}
}

func TestMultilineFlowMapping(t *testing.T) {
	src := "cfg: {a: 1,\n  b: 2,\n  c: [3,\n   4]}\n"
	n := mustParse(t, src)
	cfg := n.Get("cfg")
	if cfg.Len() != 3 {
		t.Fatalf("cfg = %+v", cfg)
	}
	if items := cfg.Get("c").Items; len(items) != 2 {
		t.Errorf("c = %+v", items)
	}
}

func TestSetPanicsOnNonMapping(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Set on sequence did not panic")
		}
	}()
	Sequence().Set("k", Scalar("v"))
}
