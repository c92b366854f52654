package yaml

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"time"
)

func mustParse(t *testing.T, src string) *Node {
	t.Helper()
	n, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return n
}

func TestParseScalarTags(t *testing.T) {
	tests := []struct {
		src string
		tag Tag
		val string
	}{
		{"hello", StrTag, "hello"},
		{"42", IntTag, "42"},
		{"-17", IntTag, "-17"},
		{"0x1F", IntTag, "0x1F"},
		{"3.14", FloatTag, "3.14"},
		{"-2.5e3", FloatTag, "-2.5e3"},
		{".inf", FloatTag, ".inf"},
		{"true", BoolTag, "true"},
		{"no", BoolTag, "no"},
		{"null", NullTag, "null"},
		{"~", NullTag, "~"},
		{"1.2.3", StrTag, "1.2.3"},
		{"hello world", StrTag, "hello world"},
		{"'quoted'", StrTag, "quoted"},
		{`"esc\nape"`, StrTag, "esc\nape"},
		{"'it''s'", StrTag, "it's"},
	}
	for _, tt := range tests {
		n := mustParse(t, tt.src)
		if n.Kind != ScalarNode {
			t.Errorf("Parse(%q): kind = %v, want scalar", tt.src, n.Kind)
			continue
		}
		if n.Tag != tt.tag || n.Value != tt.val {
			t.Errorf("Parse(%q) = (%v, %q), want (%v, %q)", tt.src, n.Tag, n.Value, tt.tag, tt.val)
		}
	}
}

func TestParseBlockMapping(t *testing.T) {
	n := mustParse(t, "name: install nginx\nstate: present\ncount: 3\n")
	if n.Kind != MappingNode || n.Len() != 3 {
		t.Fatalf("got %v with %d entries, want mapping of 3", n.Kind, n.Len())
	}
	if got := n.Get("name").Value; got != "install nginx" {
		t.Errorf("name = %q", got)
	}
	if v, ok := n.Get("count").Int(); !ok || v != 3 {
		t.Errorf("count = %d, %v", v, ok)
	}
}

func TestParseNestedMapping(t *testing.T) {
	src := `apt:
  name: nginx
  state: present
notify: restart
`
	n := mustParse(t, src)
	apt := n.Get("apt")
	if apt == nil || apt.Kind != MappingNode {
		t.Fatalf("apt = %v", apt)
	}
	if got := apt.Get("state").Value; got != "present" {
		t.Errorf("apt.state = %q", got)
	}
	if got := n.Get("notify").Value; got != "restart" {
		t.Errorf("notify = %q", got)
	}
}

func TestParseBlockSequence(t *testing.T) {
	n := mustParse(t, "- one\n- two\n- three\n")
	if n.Kind != SequenceNode || len(n.Items) != 3 {
		t.Fatalf("got %v/%d", n.Kind, len(n.Items))
	}
	if n.Items[1].Value != "two" {
		t.Errorf("item[1] = %q", n.Items[1].Value)
	}
}

func TestParseSequenceOfMappings(t *testing.T) {
	src := `- name: Install SSH server
  ansible.builtin.apt:
    name: openssh-server
    state: present
- name: Start SSH server
  ansible.builtin.service:
    name: ssh
    state: started
`
	n := mustParse(t, src)
	if n.Kind != SequenceNode || len(n.Items) != 2 {
		t.Fatalf("got %v with %d items", n.Kind, len(n.Items))
	}
	first := n.Items[0]
	if first.Kind != MappingNode {
		t.Fatalf("first item kind = %v", first.Kind)
	}
	if got := first.Get("name").Value; got != "Install SSH server" {
		t.Errorf("name = %q", got)
	}
	apt := first.Get("ansible.builtin.apt")
	if apt == nil || apt.Get("state").Value != "present" {
		t.Errorf("apt = %v", apt)
	}
}

func TestParseAnsiblePlaybook(t *testing.T) {
	// The exact playbook from Fig. 1 of the paper.
	src := `---
- hosts: servers
  tasks:
    - name: Install SSH server
      ansible.builtin.apt:
        name: openssh-server
        state: present
    - name: Start SSH server
      ansible.builtin.service:
        name: ssh
        state: started
`
	n := mustParse(t, src)
	if n.Kind != SequenceNode || len(n.Items) != 1 {
		t.Fatalf("playbook root = %v/%d", n.Kind, n.Len())
	}
	play := n.Items[0]
	if play.Get("hosts").Value != "servers" {
		t.Errorf("hosts = %q", play.Get("hosts").Value)
	}
	tasks := play.Get("tasks")
	if tasks == nil || tasks.Kind != SequenceNode || len(tasks.Items) != 2 {
		t.Fatalf("tasks = %v", tasks)
	}
	if tasks.Items[1].Get("ansible.builtin.service").Get("name").Value != "ssh" {
		t.Error("second task service name mismatch")
	}
}

func TestParseSequenceAtKeyIndent(t *testing.T) {
	// Ansible style commonly puts the sequence at the same indent as its key.
	src := `tasks:
- name: a
- name: b
`
	n := mustParse(t, src)
	tasks := n.Get("tasks")
	if tasks == nil || tasks.Kind != SequenceNode || len(tasks.Items) != 2 {
		t.Fatalf("tasks = %+v", tasks)
	}
}

func TestParseFlowCollections(t *testing.T) {
	n := mustParse(t, `config: {a: 1, b: [x, y], c: {d: true}}`)
	c := n.Get("config")
	if c.Kind != MappingNode || c.Len() != 3 {
		t.Fatalf("config = %v/%d", c.Kind, c.Len())
	}
	if v, _ := c.Get("a").Int(); v != 1 {
		t.Errorf("a = %v", c.Get("a"))
	}
	b := c.Get("b")
	if b.Kind != SequenceNode || len(b.Items) != 2 || b.Items[0].Value != "x" {
		t.Errorf("b = %v", b)
	}
	if v, _ := c.Get("c").Get("d").Bool(); !v {
		t.Errorf("c.d = %v", c.Get("c").Get("d"))
	}
}

func TestParseMultilineFlow(t *testing.T) {
	src := `with_items: [one,
  two,
  three]
`
	n := mustParse(t, src)
	items := n.Get("with_items")
	if items == nil || items.Kind != SequenceNode || len(items.Items) != 3 {
		t.Fatalf("with_items = %v", items)
	}
}

func TestParseEmptyFlow(t *testing.T) {
	n := mustParse(t, "a: {}\nb: []\n")
	if n.Get("a").Kind != MappingNode || n.Get("a").Len() != 0 {
		t.Errorf("a = %v", n.Get("a"))
	}
	if n.Get("b").Kind != SequenceNode || n.Get("b").Len() != 0 {
		t.Errorf("b = %v", n.Get("b"))
	}
}

func TestParseLiteralBlockScalar(t *testing.T) {
	src := `script: |
  line one
  line two
next: value
`
	n := mustParse(t, src)
	if got := n.Get("script").Value; got != "line one\nline two\n" {
		t.Errorf("script = %q", got)
	}
	if got := n.Get("next").Value; got != "value" {
		t.Errorf("next = %q", got)
	}
}

func TestParseLiteralStripChomp(t *testing.T) {
	src := "cmd: |-\n  echo hi\n"
	n := mustParse(t, src)
	if got := n.Get("cmd").Value; got != "echo hi" {
		t.Errorf("cmd = %q", got)
	}
}

func TestParseLiteralInteriorStructure(t *testing.T) {
	// Lines inside a literal block must not be parsed as structure.
	src := `content: |
  key: value
  - item
after: done
`
	n := mustParse(t, src)
	if got := n.Get("content").Value; got != "key: value\n- item\n" {
		t.Errorf("content = %q", got)
	}
	if n.Get("after").Value != "done" {
		t.Errorf("after = %q", n.Get("after").Value)
	}
}

func TestParseFoldedScalar(t *testing.T) {
	src := `desc: >
  folded text
  joins lines
`
	n := mustParse(t, src)
	if got := n.Get("desc").Value; got != "folded text joins lines\n" {
		t.Errorf("desc = %q", got)
	}
}

func TestParseComments(t *testing.T) {
	src := `# leading comment
name: value # trailing comment
# interior
state: present
`
	n := mustParse(t, src)
	if got := n.Get("name").Value; got != "value" {
		t.Errorf("name = %q", got)
	}
	if got := n.Get("state").Value; got != "present" {
		t.Errorf("state = %q", got)
	}
}

func TestParseHashInsideQuotes(t *testing.T) {
	n := mustParse(t, `msg: 'color: #fff is not a comment'`)
	if got := n.Get("msg").Value; got != "color: #fff is not a comment" {
		t.Errorf("msg = %q", got)
	}
}

func TestParseColonInValue(t *testing.T) {
	n := mustParse(t, "url: http://example.com:8080/path\n")
	if got := n.Get("url").Value; got != "http://example.com:8080/path" {
		t.Errorf("url = %q", got)
	}
}

func TestParseMultiDocument(t *testing.T) {
	src := "---\na: 1\n---\nb: 2\n...\n---\nc: 3\n"
	docs, err := ParseAll(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 3 {
		t.Fatalf("got %d docs", len(docs))
	}
	if v, _ := docs[2].Get("c").Int(); v != 3 {
		t.Errorf("third doc c = %v", docs[2].Get("c"))
	}
}

func TestParseEmptyDocument(t *testing.T) {
	n := mustParse(t, "")
	if !n.IsNull() {
		t.Errorf("empty doc = %+v, want null", n)
	}
	n = mustParse(t, "# only a comment\n")
	if !n.IsNull() {
		t.Errorf("comment-only doc = %+v, want null", n)
	}
}

func TestParseNullValues(t *testing.T) {
	n := mustParse(t, "a:\nb: ~\nc: null\n")
	for _, k := range []string{"a", "b", "c"} {
		if !n.Get(k).IsNull() {
			t.Errorf("%s = %+v, want null", k, n.Get(k))
		}
	}
}

func TestParseNestedSequences(t *testing.T) {
	src := `- - inner1
  - inner2
- flat
`
	n := mustParse(t, src)
	if n.Kind != SequenceNode || len(n.Items) != 2 {
		t.Fatalf("root = %v/%d", n.Kind, n.Len())
	}
	inner := n.Items[0]
	if inner.Kind != SequenceNode || len(inner.Items) != 2 || inner.Items[1].Value != "inner2" {
		t.Errorf("inner = %+v", inner)
	}
}

func TestParseSequenceItemOnOwnLine(t *testing.T) {
	src := `-
  name: task
- second
`
	n := mustParse(t, src)
	if len(n.Items) != 2 {
		t.Fatalf("items = %d", len(n.Items))
	}
	if n.Items[0].Get("name").Value != "task" {
		t.Errorf("first = %+v", n.Items[0])
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"a: 'unterminated\n",
		"a: \"unterminated\n",
		"a: [1, 2\n", // never closed, EOF
		"key: value\n    stray: deep\n  other: wrong\n", // inconsistent indent under scalar value
		"a: 1\na: 2\n", // duplicate key
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestParseErrorPosition(t *testing.T) {
	tests := []struct {
		src       string
		line, col int
	}{
		{"ok: 1\nbad: 'x\n", 2, 6},               // scalar: the open quote
		{"a:\n  b: 1\n    c: 2\n", 3, 5},         // block: the over-indented line
		{"a: [1, 2}\n", 1, 9},                    // flow: the stray brace
		{"a: {b: 1, [c]: 2}\n", 1, 11},           // flow: a collection as key
		{"- x\n- {k: it's, k: 2}\n", 2, 13},      // flow: the duplicate key
		{"a: 1\n---\nb: 2\n", 3, 1},              // the second document
		{"a: [1,\n  2\n", 1, 4},                  // unterminated: where it opened
		{"- name: x\n  shell: 'a' b\n", 2, 14},   // junk after a quoted scalar
		{"- name: x\n  shell: \"\\q\"\n", 2, 10}, // bad escape
		{"a: *nope\n", 1, 4},                     // unknown alias
	}
	for _, tt := range tests {
		_, err := Parse(tt.src)
		se, ok := err.(*SyntaxError)
		if !ok {
			t.Errorf("Parse(%q) err = %T %v, want *SyntaxError", tt.src, err, err)
			continue
		}
		if se.Line != tt.line || se.Col != tt.col {
			t.Errorf("Parse(%q) at %d:%d, want %d:%d (%v)", tt.src, se.Line, se.Col, tt.line, tt.col, se)
		}
		if want := fmt.Sprintf("line %d, column %d:", tt.line, tt.col); !strings.Contains(se.Error(), want) {
			t.Errorf("message %q lacks %q", se.Error(), want)
		}
	}
}

// TestParseScannerCases pins what the one line scanner decides: a quote opens
// a quoted scalar only where a scalar starts, '#' opens a comment only after
// white space and outside quotes, and block scalars chomp the same at the
// end of the document as before another key.
func TestParseScannerCases(t *testing.T) {
	tests := []struct {
		src  string
		want any
	}{
		// Apostrophes and a '"' inside plain keys and values.
		{"it's: fine\n", map[string]any{"it's": "fine"}},
		{"msg: it's done # note\n", map[string]any{"msg": "it's done"}},
		{"- name: don't restart\n  debug: {msg: it's}\n", []any{map[string]any{"name": "don't restart", "debug": map[string]any{"msg": "it's"}}}},
		{"a\"b: 1\nc: 2\n", map[string]any{`a"b`: int64(1), "c": int64(2)}},
		{"say: 6\" pipe\n", map[string]any{"say": `6" pipe`}},
		{"a: [it's, b]\n", map[string]any{"a": []any{"it's", "b"}}},
		{"a: [it's,\n  b]\n", map[string]any{"a": []any{"it's", "b"}}},
		// A quoted scalar that continues a flow collection's line.
		{"a: ['x,\n  y # z']\n", map[string]any{"a": []any{"x, y # z"}}},
		{"a: ['x,\n  [y']\nb: 1\n", map[string]any{"a": []any{"x, [y"}, "b": int64(1)}},
		{"a: [\"x,\n  ]\"]\n", map[string]any{"a": []any{"x, ]"}}},
		// '#' inside and after quotes, and without white space before it.
		{"k: 'a # b' # c\n", map[string]any{"k": "a # b"}},
		{"k: \"a # b\" # c\n", map[string]any{"k": "a # b"}},
		{"k: it's # c\n", map[string]any{"k": "it's"}},
		{"k: x#y\n", map[string]any{"k": "x#y"}},
		{"k: 'it''s' # c\n", map[string]any{"k": "it's"}},
		{"k: \"say \\\"hi\\\"\" # c\n", map[string]any{"k": `say "hi"`}},
		{"k: [a, 'b # c', d] # e\n", map[string]any{"k": []any{"a", "b # c", "d"}}},
		{"k: [a, # c\n  b]\n", map[string]any{"k": []any{"a", "b"}}},
		{"k: #c\n", map[string]any{"k": nil}},
		{"'k: v': 1\n", map[string]any{"k: v": int64(1)}},
		{"k: &x 'a # b'\nj: *x\n", map[string]any{"k": "a # b", "j": "a # b"}},
		// Chomping at the end of the document and before another key.
		{"a: |\n  x\n", map[string]any{"a": "x\n"}},
		{"a: |-\n  x\n", map[string]any{"a": "x"}},
		{"a: |+\n  x\n", map[string]any{"a": "x\n"}},
		{"a: |+\n  x\n\n", map[string]any{"a": "x\n\n"}},
		{"a: |\n  x\n\nb: 1\n", map[string]any{"a": "x\n", "b": int64(1)}},
		{"a: |-\n  x\n\nb: 1\n", map[string]any{"a": "x", "b": int64(1)}},
		{"a: |+\n  x\n\nb: 1\n", map[string]any{"a": "x\n\n", "b": int64(1)}},
		{"a: |+ # keep\n  x\n", map[string]any{"a": "x\n"}},
	}
	for _, tt := range tests {
		n, err := Parse(tt.src)
		if err != nil {
			t.Errorf("Parse(%q): %v", tt.src, err)
			continue
		}
		if got := ToGo(n); !reflect.DeepEqual(got, tt.want) {
			t.Errorf("Parse(%q) = %#v, want %#v", tt.src, got, tt.want)
		}
	}
	for _, src := range []string{"{[a]: 1}\n", "{{a: b}: c}\n", "[a]: 1\n", "k: 'it''\n"} {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

// TestParseAllocs guards the parser's cost on Predict's schema-check path:
// the line scanner allocates nothing, and a typical task stays within the
// allocations it took before the scanner replaced three quote scans.
func TestParseAllocs(t *testing.T) {
	task := "- name: install nginx\n  ansible.builtin.apt:\n    name: nginx\n    state: present\n  when: ansible_os_family == 'Debian' # only debian\n"
	line := "when: ansible_os_family == 'Debian' # only debian"
	if n := testing.AllocsPerRun(100, func() { scanLine(line, 0, 0) }); n != 0 {
		t.Errorf("scanLine allocates %v times per call, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { _, _ = Parse(task) }); n > 42 {
		t.Errorf("Parse allocates %v times per task, want at most 42", n)
	}
}

// TestParseFlowLinear catches a flow parse whose cost grows faster than its
// input: each quoted item and each continuation line must be read once, not
// rescanned or recopied to the end of the collection. Two checks, one per
// fault: the bytes allocated per item stay under a fixed bound at both sizes
// (recopying the joined text per line allocates kilobytes per item), and
// sixteen times the items must not take four times as long per item (a
// quadratic parse takes sixteen). The timings run with the collector off, so
// a GC cycle that other packages' tests trigger on a shared host cannot
// land in one of them.
func TestParseFlowLinear(t *testing.T) {
	const maxBytesPerItem = 1024
	for _, item := range []string{"'a', ", "'a',\n  "} {
		src := func(items int) string { return "- name: [" + strings.Repeat(item, items) + "'a']\n" }
		bytesPerItem := func(items int) float64 {
			s := src(items)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := Parse(s); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			return float64(after.TotalAlloc-before.TotalAlloc) / float64(items)
		}
		// The byte check runs first and with the collector on, so a copy
		// that allocates quadratically fails here instead of growing the
		// heap unchecked during the timings.
		quadratic := false
		for _, items := range []int{2000, 32000} {
			if b := bytesPerItem(items); b > maxBytesPerItem {
				t.Errorf("parsing %d flow items %q allocated %.0f bytes per item, want at most %d", items, item, b, maxBytesPerItem)
				quadratic = true
			}
		}
		if quadratic {
			continue
		}
		fastest := func(items int) time.Duration {
			s := src(items)
			runtime.GC()
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			best := time.Duration(math.MaxInt64)
			for i := 0; i < 5; i++ {
				start := time.Now()
				if _, err := Parse(s); err != nil {
					t.Fatal(err)
				}
				best = min(best, time.Since(start))
			}
			return best
		}
		small, large := fastest(2000), fastest(32000)
		if large > 64*small {
			t.Errorf("parsing 32000 flow items %q took %v, 2000 took %v: more than linear", item, large, small)
		}
	}
}

func TestParseDashValueDocument(t *testing.T) {
	// "--- value" on the marker line.
	docs, err := ParseAll("--- 42\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 1 {
		t.Fatalf("docs = %d", len(docs))
	}
	if v, ok := docs[0].Int(); !ok || v != 42 {
		t.Errorf("doc = %+v", docs[0])
	}
}

func TestToGoRoundTrip(t *testing.T) {
	src := `name: web
replicas: 3
enabled: true
ratio: 0.5
tags:
  - a
  - b
meta:
  owner: ops
`
	n := mustParse(t, src)
	got := ToGo(n)
	want := map[string]any{
		"name":     "web",
		"replicas": int64(3),
		"enabled":  true,
		"ratio":    0.5,
		"tags":     []any{"a", "b"},
		"meta":     map[string]any{"owner": "ops"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("ToGo = %#v, want %#v", got, want)
	}
}

func TestNodeHelpers(t *testing.T) {
	m := Mapping().Set("a", IntScalar(1)).Set("b", Scalar("x"))
	if m.Len() != 2 || !m.Has("a") || m.Has("zz") {
		t.Error("Set/Has/Len broken")
	}
	m.Set("a", IntScalar(9))
	if v, _ := m.Get("a").Int(); v != 9 || m.Len() != 2 {
		t.Error("Set replace broken")
	}
	c := m.Clone()
	c.Set("b", Scalar("changed"))
	if m.Get("b").Value != "x" {
		t.Error("Clone is shallow")
	}
}

func TestNodeEqual(t *testing.T) {
	a := mustParse(t, "x: 1\ny: [a, b]\n")
	b := mustParse(t, "x: 1\ny:\n  - a\n  - b\n")
	if !a.Equal(b) {
		t.Error("structurally equal trees reported unequal")
	}
	c := mustParse(t, "x: 2\ny: [a, b]\n")
	if a.Equal(c) {
		t.Error("different trees reported equal")
	}
	// Tag-sensitive: string "1" != int 1.
	d := mustParse(t, "x: '1'\ny: [a, b]\n")
	if a.Equal(d) {
		t.Error("int 1 equal to string '1'")
	}
}

func TestParseAnchorAlias(t *testing.T) {
	src := `defaults: &defaults
  owner: root
  mode: '0644'
copy1: *defaults
copy2: *defaults
`
	n := mustParse(t, src)
	for _, k := range []string{"defaults", "copy1", "copy2"} {
		v := n.Get(k)
		if v == nil || v.Kind != MappingNode || v.Get("owner").Value != "root" {
			t.Fatalf("%s = %+v", k, v)
		}
	}
	// Aliases are copies: mutating one must not affect the others.
	n.Get("copy1").Set("owner", Scalar("app"))
	if n.Get("copy2").Get("owner").Value != "root" {
		t.Error("alias nodes share storage")
	}
}

func TestParseInlineAnchor(t *testing.T) {
	src := "a: &x hello\nb: *x\n"
	n := mustParse(t, src)
	if n.Get("a").Value != "hello" || n.Get("b").Value != "hello" {
		t.Errorf("a=%q b=%q", n.Get("a").Value, n.Get("b").Value)
	}
}

func TestParseSequenceAlias(t *testing.T) {
	src := `common: &pkgs
  - curl
  - git
install: *pkgs
`
	n := mustParse(t, src)
	inst := n.Get("install")
	if inst == nil || inst.Kind != SequenceNode || len(inst.Items) != 2 || inst.Items[1].Value != "git" {
		t.Fatalf("install = %+v", inst)
	}
}

func TestParseMergeKey(t *testing.T) {
	src := `base: &base
  owner: root
  group: root
  mode: '0644'
special:
  <<: *base
  mode: '0600'
  path: /etc/secret
`
	n := mustParse(t, src)
	sp := n.Get("special")
	if sp == nil {
		t.Fatal("special missing")
	}
	if got := sp.Get("mode").Value; got != "0600" {
		t.Errorf("explicit key did not override merge: mode = %q", got)
	}
	if got := sp.Get("owner").Value; got != "root" {
		t.Errorf("merged key missing: owner = %q", got)
	}
	if sp.Has("<<") {
		t.Error("merge key leaked into the mapping")
	}
	if sp.Len() != 4 { // mode, path, owner, group
		t.Errorf("special has %d keys: %v", sp.Len(), keysOfNode(sp))
	}
}

func TestParseMergeKeyList(t *testing.T) {
	src := `a: &a
  x: 1
b: &b
  y: 2
merged:
  <<: [*a, *b]
  z: 3
`
	n := mustParse(t, src)
	m := n.Get("merged")
	if v, _ := m.Get("x").Int(); v != 1 {
		t.Errorf("x = %v", m.Get("x"))
	}
	if v, _ := m.Get("y").Int(); v != 2 {
		t.Errorf("y = %v", m.Get("y"))
	}
	if v, _ := m.Get("z").Int(); v != 3 {
		t.Errorf("z = %v", m.Get("z"))
	}
}

func TestParseUnknownAlias(t *testing.T) {
	if _, err := Parse("a: *nope\n"); err == nil {
		t.Error("unknown alias accepted")
	}
}

func TestParseMergeNonMapping(t *testing.T) {
	if _, err := Parse("a: &a 5\nb:\n  <<: *a\n"); err == nil {
		t.Error("scalar merge accepted")
	}
}

func TestAnchorAcrossDocuments(t *testing.T) {
	// Anchors persist across the stream (our parser scopes them to the
	// stream, which is a superset of the spec's per-document scope and
	// harmless for the corpora involved).
	docs, err := ParseAll("---\na: &v 42\n---\nb: *v\n")
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := docs[1].Get("b").Int(); v != 42 {
		t.Errorf("b = %v", docs[1].Get("b"))
	}
}

func TestGlobPatternNotAnchor(t *testing.T) {
	// A value starting with '*' that is not a valid anchor name must stay
	// a plain scalar (e.g. glob patterns).
	n := mustParse(t, "pattern: '*.yml'\n")
	if n.Get("pattern").Value != "*.yml" {
		t.Errorf("pattern = %q", n.Get("pattern").Value)
	}
	// And an unquoted glob with a dot is not an anchor name either.
	n = mustParse(t, "files: *invalid-ë\n")
	_ = n // any parse result is fine as long as it does not panic
}

func keysOfNode(n *Node) []string {
	var out []string
	for _, k := range n.Keys {
		out = append(out, k.Value)
	}
	return out
}
