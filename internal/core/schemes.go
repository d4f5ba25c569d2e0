package core

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// CheckerSetter is implemented by engines that can report data movement to
// a value-coherence Checker. All engines in this package implement it.
type CheckerSetter interface {
	SetChecker(*Checker)
}

// Attach connects a checker to p if the engine supports it, reporting
// whether it did.
func Attach(p Protocol, c *Checker) bool {
	s, ok := p.(CheckerSetter)
	if ok {
		s.SetChecker(c)
	}
	return ok
}

// Factory builds a protocol engine for a processor count.
type Factory func(ncpu int) Protocol

// factories maps lower-case scheme names to constructors. Parameterized
// names (dir<i>b, dir<i>nb, finitedirnnb:...) are handled by NewByName.
var factories = map[string]Factory{
	"dir1nb":   NewDir1NB,
	"dir0b":    NewDir0B,
	"dirnnb":   NewDirNNB,
	"dircv":    NewCoarseVector,
	"yenfu":    NewYenFu,
	"wti":      NewWTI,
	"dragon":   NewDragon,
	"berkeley": NewBerkeley,
	"mesi":     NewMESI,
	"illinois": NewMESI,
	"firefly":  NewFirefly,
}

// Schemes returns the fixed (non-parameterized) scheme names available to
// NewByName, sorted.
func Schemes() []string {
	names := make([]string, 0, len(factories))
	for n := range factories {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// NewByName builds an engine from a scheme name in the paper's notation,
// case-insensitively: "Dir1NB", "Dir0B", "DirNNB", "DirCV", "WTI",
// "Dragon", the parameterized families "Dir<i>B" and "Dir<i>NB" (e.g.
// "Dir2NB", "Dir4B"), and finite caches, "FiniteDirNNB:64k2w" (its Name
// is the canonical spelling; see newFiniteByName).
func NewByName(name string, ncpu int) (Protocol, error) {
	if ncpu < 1 || ncpu > MaxCPUs {
		return nil, fmt.Errorf("core: cpu count %d out of range [1,%d]", ncpu, MaxCPUs)
	}
	key := strings.ToLower(strings.TrimSpace(name))
	if f, ok := factories[key]; ok {
		return f(ncpu), nil
	}
	if strings.HasPrefix(key, finitePrefix) {
		return newFiniteByName(key, ncpu)
	}
	if strings.HasPrefix(key, "dir") {
		rest := strings.TrimPrefix(key, "dir")
		switch {
		case strings.HasSuffix(rest, "nb"):
			i, err := strconv.Atoi(strings.TrimSuffix(rest, "nb"))
			if err == nil && i >= 1 {
				if i == 1 {
					return NewDir1NB(ncpu), nil
				}
				return NewDiriNB(ncpu, i), nil
			}
		case strings.HasSuffix(rest, "b"):
			i, err := strconv.Atoi(strings.TrimSuffix(rest, "b"))
			if err == nil && i >= 1 {
				return NewDiriB(ncpu, i), nil
			}
		}
	}
	return nil, fmt.Errorf("core: unknown scheme %q (try %s, Dir<i>B, Dir<i>NB, or FiniteDirNNB:<size><b|k|m><ways>w)",
		name, strings.Join(Schemes(), ", "))
}
