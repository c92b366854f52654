package ansible

import (
	"strings"
	"testing"
)

func TestRegistryLookup(t *testing.T) {
	r := DefaultRegistry()
	m, ok := r.Lookup("ansible.builtin.apt")
	if !ok || m.ShortName() != "apt" {
		t.Fatalf("FQCN lookup failed: %v %v", m, ok)
	}
	m, ok = r.Lookup("apt")
	if !ok || m.FQCN != "ansible.builtin.apt" {
		t.Fatalf("short lookup failed: %v %v", m, ok)
	}
	if _, ok := r.Lookup("no_such_module"); ok {
		t.Error("lookup of unknown module succeeded")
	}
}

func TestCanonical(t *testing.T) {
	r := DefaultRegistry()
	tests := map[string]string{
		"copy":                 "ansible.builtin.copy",
		"ansible.builtin.copy": "ansible.builtin.copy",
		"firewalld":            "ansible.posix.firewalld",
		"docker_container":     "community.docker.docker_container",
		"vyos_config":          "vyos.vyos.vyos_config",
		"custom.coll.module":   "custom.coll.module", // unknown passes through
	}
	for in, want := range tests {
		if got := r.Canonical(in); got != want {
			t.Errorf("Canonical(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestEquivalent(t *testing.T) {
	r := DefaultRegistry()
	equiv := [][2]string{
		{"command", "shell"},
		{"copy", "template"},
		{"package", "apt"},
		{"apt", "yum"},
		{"yum", "dnf"},
		{"service", "systemd"},
	}
	for _, pair := range equiv {
		if !r.Equivalent(pair[0], pair[1]) {
			t.Errorf("Equivalent(%s, %s) = false, want true", pair[0], pair[1])
		}
		if !r.Equivalent(pair[1], pair[0]) {
			t.Errorf("Equivalent(%s, %s) not symmetric", pair[1], pair[0])
		}
	}
	notEquiv := [][2]string{
		{"apt", "apt"},     // same module is not "equivalent"
		{"apt", "service"}, // different groups
		{"copy", "user"},   // no group on user
		{"apt", "nonexistent"},
	}
	for _, pair := range notEquiv {
		if r.Equivalent(pair[0], pair[1]) {
			t.Errorf("Equivalent(%s, %s) = true, want false", pair[0], pair[1])
		}
	}
}

func TestModuleParamAliases(t *testing.T) {
	r := DefaultRegistry()
	m, _ := r.Lookup("apt")
	if m.Param("state") == nil {
		t.Error("apt.state not found")
	}
	if m.Param("bogus") != nil {
		t.Error("apt.bogus found")
	}
}

func TestCatalogueWellFormed(t *testing.T) {
	for _, m := range DefaultRegistry().Modules() {
		if strings.Count(m.FQCN, ".") < 2 {
			t.Errorf("module %q is not fully qualified", m.FQCN)
		}
		if m.Description == "" {
			t.Errorf("module %q has no description", m.FQCN)
		}
		seen := map[string]bool{}
		for _, p := range m.Params {
			if seen[p.Name] {
				t.Errorf("module %q has duplicate param %q", m.FQCN, p.Name)
			}
			seen[p.Name] = true
		}
	}
}

func TestBuiltinWinsShortNames(t *testing.T) {
	// "service" must resolve to ansible.builtin.service, not win_service.
	r := DefaultRegistry()
	m, ok := r.Lookup("service")
	if !ok || m.FQCN != "ansible.builtin.service" {
		t.Errorf("service resolved to %v", m)
	}
}

func TestKeywords(t *testing.T) {
	for _, kw := range []string{"when", "loop", "become", "register", "notify", "tags", "ignore_errors"} {
		if !IsTaskKeyword(kw) {
			t.Errorf("IsTaskKeyword(%q) = false", kw)
		}
	}
	for _, kw := range []string{"hosts", "tasks", "vars", "gather_facts", "serial", "roles"} {
		if !IsPlayKeyword(kw) {
			t.Errorf("IsPlayKeyword(%q) = false", kw)
		}
	}
	for _, kw := range []string{"block", "rescue", "always"} {
		if !IsBlockKeyword(kw) {
			t.Errorf("IsBlockKeyword(%q) = false", kw)
		}
	}
	if IsTaskKeyword("apt") || IsPlayKeyword("shell") || IsBlockKeyword("when") {
		t.Error("module/keyword confusion")
	}
}
