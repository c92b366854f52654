package yaml

import (
	"testing"
	"unicode/utf8"
)

// FuzzParseYAML drives the parser with arbitrary input: it must never
// panic, and any document it accepts must come back as the same tree after
// an encode/re-parse round trip — the serving layer marshals parsed
// suggestions back to text, so a node that encodes to a different value
// would corrupt output downstream.
func FuzzParseYAML(f *testing.F) {
	f.Add("- name: install nginx\n  ansible.builtin.apt:\n    name: nginx\n    state: present\n")
	f.Add("key: value\nlist:\n  - 1\n  - 2\n")
	f.Add("a: {b: [1, 2], c: \"d\"}\n")
	f.Add("---\ndoc: 1\n---\ndoc: 2\n")
	f.Add("text: |\n  line one\n  line two\n")
	f.Add("empty:\n")
	f.Add(": novalue\n")
	f.Add("\t tab indent\n")
	f.Add("a: 'unclosed\n")
	f.Fuzz(func(t *testing.T, src string) {
		_, _ = ParseAll(src) // multi-document path must not panic either
		n, err := Parse(src)
		if err != nil || n == nil {
			return
		}
		out := Marshal(n)
		if !utf8.ValidString(src) {
			// Encoding only promises round-trippable text for valid UTF-8
			// input; raw bytes may be quoted lossily.
			return
		}
		back, err := Parse(out)
		if err != nil {
			t.Fatalf("re-parse of encoded output failed: %v\ninput: %q\nencoded: %q", err, src, out)
		}
		if !n.Equal(back) {
			t.Fatalf("round trip changed the tree\ninput: %q\nencoded: %q", src, out)
		}
	})
}
