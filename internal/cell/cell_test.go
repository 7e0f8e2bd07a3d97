package cell

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEvalBasicGates(t *testing.T) {
	cases := []struct {
		kind Kind
		in   uint32
		want bool
	}{
		{TIE0, 0, false},
		{TIE1, 0, true},
		{BUF, 0, false},
		{BUF, 1, true},
		{INV, 0, true},
		{INV, 1, false},
		{AND2, 0b11, true},
		{AND2, 0b01, false},
		{AND2, 0b10, false},
		{AND2, 0b00, false},
		{NAND2, 0b11, false},
		{NAND2, 0b00, true},
		{OR2, 0b00, false},
		{OR2, 0b10, true},
		{NOR2, 0b00, true},
		{NOR2, 0b01, false},
		{XOR2, 0b01, true},
		{XOR2, 0b11, false},
		{XNOR2, 0b11, true},
		{XNOR2, 0b10, false},
		{AND4, 0b1111, true},
		{AND4, 0b0111, false},
		{OR4, 0b0000, false},
		{OR4, 0b1000, true},
		{NOR4, 0b0000, true},
		{NAND4, 0b1111, false},
	}
	for _, c := range cases {
		got := Lookup(c.kind).Eval(c.in)
		if got != c.want {
			t.Errorf("%s(%04b) = %v, want %v", Lookup(c.kind).Name, c.in, got, c.want)
		}
	}
}

func TestEvalMux2(t *testing.T) {
	m := Lookup(MUX2)
	// pins (A, B, S): S=0 -> A, S=1 -> B
	for a := uint32(0); a < 2; a++ {
		for b := uint32(0); b < 2; b++ {
			in := a | b<<1 // S=0
			if got := m.Eval(in); got != (a == 1) {
				t.Errorf("MUX2 S=0 A=%d B=%d = %v", a, b, got)
			}
			in |= 1 << 2 // S=1
			if got := m.Eval(in); got != (b == 1) {
				t.Errorf("MUX2 S=1 A=%d B=%d = %v", a, b, got)
			}
		}
	}
}

func TestEvalComplexGates(t *testing.T) {
	aoi21 := Lookup(AOI21)
	for v := uint32(0); v < 8; v++ {
		a, b, c := v&1 == 1, v>>1&1 == 1, v>>2&1 == 1
		want := !(a && b || c)
		if got := aoi21.Eval(v); got != want {
			t.Errorf("AOI21(%03b) = %v, want %v", v, got, want)
		}
	}
	oai22 := Lookup(OAI22)
	for v := uint32(0); v < 16; v++ {
		a, b, c, d := v&1 == 1, v>>1&1 == 1, v>>2&1 == 1, v>>3&1 == 1
		want := !((a || b) && (c || d))
		if got := oai22.Eval(v); got != want {
			t.Errorf("OAI22(%04b) = %v, want %v", v, got, want)
		}
	}
	maj := Lookup(MAJ3)
	for v := uint32(0); v < 8; v++ {
		n := 0
		for i := 0; i < 3; i++ {
			n += int(v >> i & 1)
		}
		if got := maj.Eval(v); got != (n >= 2) {
			t.Errorf("MAJ3(%03b) = %v", v, got)
		}
	}
}

func TestAllCellsRegistered(t *testing.T) {
	for _, c := range All() {
		if c == nil {
			t.Fatal("library has unregistered cell slot")
		}
		if c.NumInputs() != len(c.Pins) {
			t.Errorf("%s: NumInputs %d != len(Pins) %d", c.Name, c.NumInputs(), len(c.Pins))
		}
		if c.NumInputs() > MaxInputs {
			t.Errorf("%s: too many inputs", c.Name)
		}
	}
}

// TestMaskingMuxSelect reproduces the paper's worked example: for
// MUX(x, a, b) with faulty select x, GM = {(¬a∧¬b), (a∧b)}.
func TestMaskingMuxSelect(t *testing.T) {
	m := Lookup(MUX2)
	terms := MaskingTerms(m, 1<<2) // pin 2 = S faulty
	if len(terms) != 2 {
		t.Fatalf("MUX2{S}: got %d terms (%v), want 2", len(terms), terms)
	}
	want := map[GMTerm]bool{
		{Mask: 0b011, Value: 0b000}: true, // A=0 B=0
		{Mask: 0b011, Value: 0b011}: true, // A=1 B=1
	}
	for _, tm := range terms {
		if !want[tm] {
			t.Errorf("unexpected term %s", tm.String(m))
		}
	}
}

func TestMaskingAndOr(t *testing.T) {
	and2 := Lookup(AND2)
	// faulty A: B=0 masks
	terms := MaskingTerms(and2, 0b01)
	if len(terms) != 1 || terms[0].Mask != 0b10 || terms[0].Value != 0 {
		t.Errorf("AND2{A}: got %v", terms)
	}
	or2 := Lookup(OR2)
	// faulty A: B=1 masks
	terms = MaskingTerms(or2, 0b01)
	if len(terms) != 1 || terms[0].Mask != 0b10 || terms[0].Value != 0b10 {
		t.Errorf("OR2{A}: got %v", terms)
	}
	// AND4 faulty {A}: any other pin = 0 masks; three minimal terms.
	terms = MaskingTerms(Lookup(AND4), 0b0001)
	if len(terms) != 3 {
		t.Errorf("AND4{A}: got %d terms, want 3", len(terms))
	}
	for _, tm := range terms {
		if tm.NumLiterals() != 1 || tm.Value != 0 {
			t.Errorf("AND4{A}: non-minimal or wrong-polarity term %v", tm)
		}
	}
}

func TestMaskingXorHasNone(t *testing.T) {
	for _, k := range []Kind{XOR2, XNOR2, BUF, INV} {
		c := Lookup(k)
		for f := uint32(1); f < 1<<c.NumInputs(); f++ {
			if len(MaskingTerms(c, f)) != 0 {
				t.Errorf("%s faulty=%b: unexpected masking capability", c.Name, f)
			}
		}
	}
}

func TestMaskingAllPinsFaulty(t *testing.T) {
	// When every pin is faulty, nothing healthy remains to constrain; only
	// cells whose output is constant anyway could be masked. For AND2 the
	// output does depend on the inputs, so there must be no term.
	if terms := MaskingTerms(Lookup(AND2), 0b11); len(terms) != 0 {
		t.Errorf("AND2 all faulty: got %v", terms)
	}
}

func TestMaskingAOI21(t *testing.T) {
	// AOI21 out = !((A&B)|C). Faulty A: masked if B=0 (AND kills it) — C free.
	terms := MaskingTerms(Lookup(AOI21), 0b001)
	found := false
	for _, tm := range terms {
		if tm.Mask == 0b010 && tm.Value == 0 {
			found = true
		}
	}
	if !found {
		t.Errorf("AOI21{A}: expected B=0 term, got %v", terms)
	}
	// C=1 also masks (OR dominates): !((A&B)|1) = 0 regardless.
	found = false
	for _, tm := range terms {
		if tm.Mask == 0b100 && tm.Value == 0b100 {
			found = true
		}
	}
	if !found {
		t.Errorf("AOI21{A}: expected C=1 term, got %v", terms)
	}
}

// TestMaskingSoundness: property test — every derived term, under every
// completion of unconstrained pins, really makes the output independent of
// the faulty pins.
func TestMaskingSoundness(t *testing.T) {
	for _, c := range All() {
		n := c.NumInputs()
		for f := uint32(1); f < 1<<n; f++ {
			for _, tm := range MaskingTerms(c, f) {
				all := uint32(1<<n) - 1
				free := all &^ f &^ tm.Mask
				for comp := free; ; comp = (comp - 1) & free {
					base := tm.Value | comp
					ref := c.Eval(base)
					for fp := f; fp != 0; fp = (fp - 1) & f {
						if c.Eval(base|fp) != ref {
							t.Fatalf("%s faulty=%b term=%s: output depends on faulty pins", c.Name, f, tm.String(c))
						}
					}
					if comp == 0 {
						break
					}
				}
			}
		}
	}
}

// TestMaskingMinimality: no returned term may contain a strictly smaller
// returned term.
func TestMaskingMinimality(t *testing.T) {
	for _, c := range All() {
		for f := uint32(1); f < 1<<c.NumInputs(); f++ {
			terms := MaskingTerms(c, f)
			for i, a := range terms {
				for j, b := range terms {
					if i == j {
						continue
					}
					if b.Mask&a.Mask == b.Mask && b.Mask != a.Mask && b.Value == a.Value&b.Mask {
						t.Errorf("%s faulty=%b: term %s subsumes %s", c.Name, f, b.String(c), a.String(c))
					}
				}
			}
		}
	}
}

func TestMaskingCacheStable(t *testing.T) {
	a := MaskingTerms(Lookup(MUX2), 0b100)
	b := MaskingTerms(Lookup(MUX2), 0b100)
	if len(a) != len(b) {
		t.Fatal("cache returned different result")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("cache returned different terms")
		}
	}
}

// quick-check that Eval agrees with an independent reimplementation for the
// N-ary AND/OR families.
func TestEvalQuick(t *testing.T) {
	f := func(v uint32) bool {
		v &= 0b1111
		ok := true
		ok = ok && Lookup(AND4).Eval(v) == (v == 0b1111)
		ok = ok && Lookup(OR4).Eval(v) == (v != 0)
		ok = ok && Lookup(NAND4).Eval(v) == (v != 0b1111)
		ok = ok && Lookup(NOR4).Eval(v) == (v == 0)
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGMTermLiteralAccessors(t *testing.T) {
	tm := GMTerm{Mask: 0b101, Value: 0b100}
	pls := tm.Pins()
	if len(pls) != 2 {
		t.Fatalf("got %d literals", len(pls))
	}
	if pls[0] != (PinLiteral{Pin: 0, Value: false}) || pls[1] != (PinLiteral{Pin: 2, Value: true}) {
		t.Errorf("unexpected literals %v", pls)
	}
	if tm.NumLiterals() != 2 {
		t.Errorf("NumLiterals = %d", tm.NumLiterals())
	}
}

// TestEvalWordsMatchesEval: every library cell's word formula gives, bit for
// bit, the truth-table output of the vector that bit carries, and a kind
// outside the library has none.
func TestEvalWordsMatchesEval(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, c := range All() {
		for trial := 0; trial < 8; trial++ {
			var in [4]uint64
			for p := range in {
				in[p] = rng.Uint64()
			}
			out, ok := c.Kind.EvalWords(&in)
			if !ok {
				t.Fatalf("%s: no word formula", c)
			}
			for b := 0; b < 64; b++ {
				var v uint32
				for p := 0; p < c.NumInputs(); p++ {
					v |= uint32(in[p]>>uint(b)&1) << uint(p)
				}
				if got := out>>uint(b)&1 == 1; got != c.Eval(v) {
					t.Fatalf("%s: bit %d (inputs %04b) = %v, Eval says %v", c, b, v, got, c.Eval(v))
				}
			}
		}
	}
	if _, ok := numKinds.EvalWords(&[4]uint64{}); ok {
		t.Error("a kind outside the library has a word formula")
	}
}
