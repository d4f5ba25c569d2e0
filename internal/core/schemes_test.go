package core

import (
	"strings"
	"testing"
)

func TestNewByNameFixedSchemes(t *testing.T) {
	cases := map[string]string{
		"Dir1NB":  "Dir1NB",
		"dir0b":   "Dir0B",
		"DIRNNB":  "DirNNB",
		"wti":     "WTI",
		"Dragon":  "Dragon",
		" dir0b ": "Dir0B",
	}
	for in, want := range cases {
		p, err := NewByName(in, 4)
		if err != nil {
			t.Errorf("NewByName(%q): %v", in, err)
			continue
		}
		if p.Name() != want {
			t.Errorf("NewByName(%q).Name() = %q, want %q", in, p.Name(), want)
		}
		if p.CPUs() != 4 {
			t.Errorf("NewByName(%q).CPUs() = %d", in, p.CPUs())
		}
	}
}

func TestNewByNameParameterized(t *testing.T) {
	cases := map[string]string{
		"Dir2NB": "Dir2NB",
		"dir4nb": "Dir4NB",
		"Dir1B":  "Dir1B",
		"dir8b":  "Dir8B",
		// Dir1NB resolves to the dedicated single-copy engine, not
		// DiriNB with one pointer.
		"dir1nb": "Dir1NB",
	}
	for in, want := range cases {
		p, err := NewByName(in, 16)
		if err != nil {
			t.Errorf("NewByName(%q): %v", in, err)
			continue
		}
		if p.Name() != want {
			t.Errorf("NewByName(%q) = %q, want %q", in, p.Name(), want)
		}
	}
}

func TestNewByNameErrors(t *testing.T) {
	for _, in := range []string{"", "MOESI", "dirXb", "dir0nb", "dir-1b", "dirb"} {
		if _, err := NewByName(in, 4); err == nil {
			t.Errorf("NewByName(%q) should fail", in)
		} else if !strings.Contains(err.Error(), "unknown scheme") {
			t.Errorf("NewByName(%q) error %q", in, err)
		}
	}
	// A machine size outside [1, MaxCPUs] is an error, not a panic: the
	// service and the fleet pass sizes from their requests straight in.
	for _, ncpu := range []int{0, -4, MaxCPUs + 1} {
		if _, err := NewByName("Dir0B", ncpu); err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Errorf("NewByName(Dir0B, %d) error = %v", ncpu, err)
		}
	}
}

func TestSchemesSorted(t *testing.T) {
	s := Schemes()
	if len(s) < 5 {
		t.Fatalf("Schemes() = %v", s)
	}
	for i := 1; i < len(s); i++ {
		if s[i-1] >= s[i] {
			t.Errorf("Schemes not sorted: %v", s)
		}
	}
	// Every listed scheme must construct.
	for _, name := range s {
		if _, err := NewByName(name, 2); err != nil {
			t.Errorf("listed scheme %q does not construct: %v", name, err)
		}
	}
}

func TestAttach(t *testing.T) {
	for _, name := range []string{"Dir1NB", "Dir0B", "DirNNB", "Dir2B", "Dir2NB", "WTI", "Dragon"} {
		p, err := NewByName(name, 4)
		if err != nil {
			t.Fatal(err)
		}
		if !Attach(p, NewChecker()) {
			t.Errorf("%s does not accept a checker", name)
		}
	}
}
