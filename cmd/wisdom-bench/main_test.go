package main

import "testing"

func TestSelectTables(t *testing.T) {
	if run, err := selectTables("all"); err != nil || len(run) != len(tables) {
		t.Errorf("selectTables(all) = %v, %v; want every table", run, err)
	}
	for _, tb := range tables {
		if run, err := selectTables(tb); err != nil || len(run) != 1 || !run[tb] {
			t.Errorf("selectTables(%q) = %v, %v; want just it", tb, run, err)
		}
	}
	for _, bad := range []string{"engine", "", "ALL", "1,2"} {
		if run, err := selectTables(bad); err == nil {
			t.Errorf("selectTables(%q) = %v; want a usage error", bad, run)
		}
	}
}
