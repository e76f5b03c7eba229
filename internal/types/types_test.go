package types

import (
	"testing"
	"testing/quick"
)

func TestValueString(t *testing.T) {
	tests := []struct {
		v    Value
		want string
	}{
		{Zero, "0"},
		{One, "1"},
		{Unset, "⊥"},
		{Value(-2), "⊥"},
		{Value(2), "2"},
		{Value(12), "12"},
	}
	for _, tt := range tests {
		if got := tt.v.String(); got != tt.want {
			t.Errorf("Value(%d).String() = %q, want %q", tt.v, got, tt.want)
		}
	}
}

func TestValueValidOpposite(t *testing.T) {
	if !Zero.Valid() || !One.Valid() || Unset.Valid() {
		t.Fatal("Valid misclassifies values")
	}
	if Zero.Opposite() != One || One.Opposite() != Zero {
		t.Fatal("Opposite wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Opposite(Unset) did not panic")
		}
	}()
	_ = Unset.Opposite()
}

func TestFullSet(t *testing.T) {
	tests := []struct {
		n       int
		wantLen int
	}{
		{0, 0},
		{1, 1},
		{5, 5},
		{64, 64},
	}
	for _, tt := range tests {
		s := FullSet(tt.n)
		if s.Len() != tt.wantLen {
			t.Errorf("FullSet(%d).Len() = %d, want %d", tt.n, s.Len(), tt.wantLen)
		}
		for i := 0; i < tt.n; i++ {
			if !s.Contains(ProcID(i)) {
				t.Errorf("FullSet(%d) missing %d", tt.n, i)
			}
		}
		if s.Contains(ProcID(tt.n)) && tt.n < 64 {
			t.Errorf("FullSet(%d) contains %d", tt.n, tt.n)
		}
	}
}

func TestFullSetPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FullSet(65) did not panic")
		}
	}()
	FullSet(65)
}

func TestProcSetOps(t *testing.T) {
	s := SetOf(1, 3, 5)
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
	if !s.Contains(3) || s.Contains(2) {
		t.Fatal("Contains wrong")
	}
	s2 := s.Add(2).Remove(3)
	want := SetOf(1, 2, 5)
	if s2 != want {
		t.Fatalf("Add/Remove: got %v, want %v", s2, want)
	}
	if got := s.Union(s2); got != SetOf(1, 2, 3, 5) {
		t.Fatalf("Union: got %v", got)
	}
	if got := s.Intersect(s2); got != SetOf(1, 5) {
		t.Fatalf("Intersect: got %v", got)
	}
	if got := s.Minus(s2); got != SetOf(3) {
		t.Fatalf("Minus: got %v", got)
	}
	if !SetOf(1, 5).SubsetOf(s) || s.SubsetOf(SetOf(1, 5)) {
		t.Fatal("SubsetOf wrong")
	}
	if !EmptySet.Empty() || s.Empty() {
		t.Fatal("Empty wrong")
	}
	if s.Contains(-1) || s.Contains(64) {
		t.Fatal("Contains out of range should be false")
	}
	if s.Remove(-1) != s || s.Remove(64) != s {
		t.Fatal("Remove out of range should be identity")
	}
}

func TestProcSetMembersString(t *testing.T) {
	s := SetOf(0, 2, 63)
	ms := s.Members()
	if len(ms) != 3 || ms[0] != 0 || ms[1] != 2 || ms[2] != 63 {
		t.Fatalf("Members = %v", ms)
	}
	if got := SetOf(0, 2).String(); got != "{0,2}" {
		t.Fatalf("String = %q", got)
	}
	if got := EmptySet.String(); got != "{}" {
		t.Fatalf("String = %q", got)
	}
}

func TestProcSetForEachEarlyStop(t *testing.T) {
	s := SetOf(1, 2, 3)
	count := 0
	s.ForEach(func(ProcID) bool {
		count++
		return count < 2
	})
	if count != 2 {
		t.Fatalf("ForEach visited %d, want 2", count)
	}
}

// Property: Union/Intersect/Minus agree with member-wise definitions.
func TestProcSetAlgebraQuick(t *testing.T) {
	f := func(a, b uint64, p uint8) bool {
		sa, sb := ProcSet(a), ProcSet(b)
		id := ProcID(p % 64)
		inU := sa.Union(sb).Contains(id) == (sa.Contains(id) || sb.Contains(id))
		inI := sa.Intersect(sb).Contains(id) == (sa.Contains(id) && sb.Contains(id))
		inM := sa.Minus(sb).Contains(id) == (sa.Contains(id) && !sb.Contains(id))
		return inU && inI && inM
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNewConfig(t *testing.T) {
	if _, err := NewConfig(Zero); err == nil {
		t.Fatal("n=1 accepted")
	}
	if _, err := NewConfig(Zero, Unset); err == nil {
		t.Fatal("Unset accepted")
	}
	c, err := NewConfig(Zero, One, One)
	if err != nil {
		t.Fatal(err)
	}
	if c.N() != 3 || c.String() != "011" {
		t.Fatalf("config = %v", c)
	}
}

func TestConfigBitsRoundTrip(t *testing.T) {
	f := func(mask uint8) bool {
		c := ConfigFromBits(6, uint64(mask)&63)
		return c.Bits() == uint64(mask)&63
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestConfigPredicates(t *testing.T) {
	tests := []struct {
		name     string
		c        Config
		allEqual bool
		eqVal    Value
		has0     bool
		has1     bool
	}{
		{"all zero", ConfigFromBits(4, 0), true, Zero, true, false},
		{"all one", ConfigFromBits(4, 15), true, One, false, true},
		{"mixed", ConfigFromBits(4, 5), false, Unset, true, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			v, ok := tt.c.AllEqual()
			if ok != tt.allEqual || (ok && v != tt.eqVal) {
				t.Errorf("AllEqual = (%v,%v)", v, ok)
			}
			if tt.c.HasValue(Zero) != tt.has0 || tt.c.HasValue(One) != tt.has1 {
				t.Errorf("HasValue wrong")
			}
		})
	}
	var empty Config
	if _, ok := empty.AllEqual(); ok {
		t.Error("empty config AllEqual should be false")
	}
}

func TestParamsValidate(t *testing.T) {
	tests := []struct {
		p  Params
		ok bool
	}{
		{Params{N: 2, T: 0}, true},
		{Params{N: 4, T: 3}, true},
		{Params{N: 1, T: 0}, false},
		{Params{N: 4, T: 4}, false},
		{Params{N: 4, T: -1}, false},
		{Params{N: 65, T: 1}, false},
	}
	for _, tt := range tests {
		if err := tt.p.Validate(); (err == nil) != tt.ok {
			t.Errorf("Validate(%+v) err=%v, want ok=%v", tt.p, err, tt.ok)
		}
	}
}

func TestDecisionString(t *testing.T) {
	d := Decision{Proc: 2, Value: One, Time: 3}
	if got := d.String(); got != "proc 2 decides 1 at time 3" {
		t.Fatalf("String = %q", got)
	}
}
