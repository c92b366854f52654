package yaml

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestMarshalScalarQuoting(t *testing.T) {
	tests := []struct {
		node *Node
		want string
	}{
		{Scalar("plain"), "plain\n"},
		{ScalarTyped("true", StrTag, Plain), "'true'\n"}, // string that looks like bool
		{ScalarTyped("123", StrTag, Plain), "'123'\n"},   // string that looks like int
		{ScalarTyped("", StrTag, Plain), "''\n"},         // empty string
		{BoolScalar(true), "true\n"},
		{IntScalar(42), "42\n"},
		{NullScalar(), "null\n"},
		{Scalar("has: colon"), "'has: colon'\n"},
		{Scalar("- leading dash"), "'- leading dash'\n"},
		{Scalar("#comment-like"), "'#comment-like'\n"},
	}
	for _, tt := range tests {
		if got := Marshal(tt.node); got != tt.want {
			t.Errorf("Marshal(%+v) = %q, want %q", tt.node, got, tt.want)
		}
	}
}

func TestMarshalMapping(t *testing.T) {
	m := Mapping().
		Set("name", Scalar("install nginx")).
		Set("state", Scalar("present")).
		Set("update_cache", BoolScalar(true))
	want := "name: install nginx\nstate: present\nupdate_cache: true\n"
	if got := Marshal(m); got != want {
		t.Errorf("Marshal = %q, want %q", got, want)
	}
}

func TestMarshalNested(t *testing.T) {
	task := Mapping().
		Set("name", Scalar("Install SSH server")).
		Set("ansible.builtin.apt", Mapping().
			Set("name", Scalar("openssh-server")).
			Set("state", Scalar("present")))
	pb := Sequence(Mapping().
		Set("hosts", Scalar("servers")).
		Set("tasks", Sequence(task)))
	got := MarshalDocument(pb)
	want := `---
- hosts: servers
  tasks:
    - name: Install SSH server
      ansible.builtin.apt:
        name: openssh-server
        state: present
`
	if got != want {
		t.Errorf("Marshal playbook:\n%s\nwant:\n%s", got, want)
	}
}

func TestMarshalParseRoundTripFixed(t *testing.T) {
	srcs := []string{
		"a: 1\n",
		"- x\n- y\n",
		"m:\n  n:\n    - 1\n    - 2\n",
		"script: |\n  line1\n  line2\n",
		"empty: {}\nlist: []\n",
		"quoted: 'a: b'\n",
		"multi: |-\n  a\n  b\n",
	}
	for _, src := range srcs {
		n1, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		out := Marshal(n1)
		n2, err := Parse(out)
		if err != nil {
			t.Fatalf("re-Parse of %q (from %q): %v", out, src, err)
		}
		if !n1.Equal(n2) {
			t.Errorf("round-trip changed value: %q -> %q", src, out)
		}
	}
}

// genNode builds a random node tree for property testing.
func genNode(r *rand.Rand, depth int) *Node {
	if depth <= 0 || r.Intn(3) == 0 {
		switch r.Intn(6) {
		case 0:
			return IntScalar(r.Intn(2000) - 1000)
		case 1:
			return BoolScalar(r.Intn(2) == 0)
		case 2:
			return NullScalar()
		case 3:
			// Tricky strings.
			tricky := []string{
				"true", "123", "3.14", "null", "", "a: b", "#x", "- y",
				"it's", `quote"inside`, "trailing ", " leading",
				"http://host:80", "a\nb\nc\n", "multi\nline", "x\n\ny\n",
				// Unicode spaces at the ends: the parser trims plain scalars
				// with strings.TrimSpace, so these must come out quoted.
				"x\u200a", "\u2003x", "x\u0085",
			}
			return ScalarTyped(tricky[r.Intn(len(tricky))], StrTag, Plain)
		default:
			letters := "abcdefghij_-. "
			n := r.Intn(12) + 1
			var sb strings.Builder
			for i := 0; i < n; i++ {
				sb.WriteByte(letters[r.Intn(len(letters))])
			}
			v := strings.TrimSpace(sb.String())
			if v == "" {
				v = "x"
			}
			return ScalarTyped(v, StrTag, Plain)
		}
	}
	if r.Intn(2) == 0 {
		m := Mapping()
		for i := 0; i < r.Intn(4)+1; i++ {
			m.Set("key"+string(rune('a'+i)), genNode(r, depth-1))
		}
		return m
	}
	s := Sequence()
	for i := 0; i < r.Intn(4)+1; i++ {
		s.Items = append(s.Items, genNode(r, depth-1))
	}
	return s
}

func TestMarshalParseRoundTripProperty(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		n1 := genNode(r, 4)
		out := Marshal(n1)
		n2, err := Parse(out)
		if err != nil {
			t.Fatalf("iteration %d: re-parse of\n%s\nfailed: %v", i, out, err)
		}
		if !n1.Equal(n2) {
			t.Fatalf("iteration %d: round trip changed tree.\nmarshalled:\n%s\noriginal: %+v\nreparsed: %+v",
				i, out, n1, n2)
		}
	}
}

func TestQuickScalarStringRoundTrip(t *testing.T) {
	f := func(s string) bool {
		// Arbitrary strings, as long as they are valid UTF-8 without
		// carriage returns (the parser normalises \r\n), must round-trip.
		if strings.ContainsRune(s, '\r') {
			return true
		}
		n := ScalarTyped(s, StrTag, Plain)
		out := Marshal(Mapping().Set("k", n))
		parsed, err := Parse(out)
		if err != nil {
			return false
		}
		got := parsed.Get("k")
		return got != nil && got.Value == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestMarshalDeterministic(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	n := genNode(r, 4)
	a, b := Marshal(n), Marshal(n)
	if a != b {
		t.Error("Marshal is not deterministic")
	}
}

func TestFromGoSortedKeys(t *testing.T) {
	n := FromGo(map[string]any{"z": 1, "a": 2, "m": 3})
	if n.Keys[0].Value != "a" || n.Keys[1].Value != "m" || n.Keys[2].Value != "z" {
		t.Errorf("keys not sorted: %v %v %v", n.Keys[0].Value, n.Keys[1].Value, n.Keys[2].Value)
	}
}

func TestFromGoToGo(t *testing.T) {
	in := map[string]any{
		"s":    "str",
		"i":    int64(5),
		"f":    1.5,
		"b":    true,
		"null": nil,
		"list": []any{"x", int64(1)},
	}
	out := ToGo(FromGo(in))
	m, ok := out.(map[string]any)
	if !ok {
		t.Fatalf("out = %T", out)
	}
	if m["s"] != "str" || m["i"] != int64(5) || m["f"] != 1.5 || m["b"] != true || m["null"] != nil {
		t.Errorf("round trip = %#v", m)
	}
}
