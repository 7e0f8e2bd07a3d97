package sim

import (
	"testing"
	"testing/quick"

	"repro/internal/cell"
	"repro/internal/netlist"
)

// buildCounter creates a 4-bit counter with an enable input and a `wrap`
// output that pulses when the counter is 15.
func buildCounter(t testing.TB) (*netlist.Netlist, []netlist.WireID, netlist.WireID, netlist.WireID) {
	t.Helper()
	b := netlist.NewBuilder("counter")
	en := b.Input("en")
	q := make([]netlist.WireID, 4)
	for i := range q {
		q[i] = b.FFPlaceholder("q"+string(rune('0'+i)), false, "cnt")
	}
	// increment: ripple through XOR/AND chain
	carry := b.Const(true)
	for i := range q {
		sum := b.Gate(cell.XOR2, q[i], carry)
		carry = b.Gate(cell.AND2, q[i], carry)
		next := b.Gate(cell.MUX2, q[i], sum, en)
		b.SetFFD(q[i], next)
	}
	wrap := b.Gate(cell.AND4, q[0], q[1], q[2], q[3])
	b.MarkOutput(wrap)
	nl, err := b.Netlist()
	if err != nil {
		t.Fatal(err)
	}
	return nl, q, en, wrap
}

func value(m *Machine, q []netlist.WireID) uint64 { return m.ReadBus(q) }

func TestCounterCounts(t *testing.T) {
	nl, q, en, wrap := buildCounter(t)
	m := New(nl)
	m.SetValue(en, true)
	for i := 0; i < 20; i++ {
		m.Settle(NopEnv)
		if got := value(m, q); got != uint64(i%16) {
			t.Fatalf("cycle %d: counter = %d", i, got)
		}
		if m.Value(wrap) != (i%16 == 15) {
			t.Fatalf("cycle %d: wrap = %v", i, m.Value(wrap))
		}
		m.CommitFFs()
	}
	if m.Cycle != 20 {
		t.Errorf("cycle counter = %d", m.Cycle)
	}
}

func TestCounterHoldsWhenDisabled(t *testing.T) {
	nl, q, en, _ := buildCounter(t)
	m := New(nl)
	m.SetValue(en, true)
	m.Run(5, NopEnv)
	if got := value(m, q); got != 5 {
		t.Fatalf("after 5 cycles: %d", got)
	}
	m.SetValue(en, false)
	m.Run(7, NopEnv)
	if got := value(m, q); got != 5 {
		t.Fatalf("hold failed: %d", got)
	}
}

func TestReset(t *testing.T) {
	nl, q, en, _ := buildCounter(t)
	m := New(nl)
	m.SetValue(en, true)
	m.Run(9, NopEnv)
	m.Reset()
	if got := value(m, q); got != 0 {
		t.Fatalf("after reset: %d", got)
	}
	if m.Cycle != 0 {
		t.Fatalf("cycle not reset: %d", m.Cycle)
	}
}

func TestFFInitValues(t *testing.T) {
	b := netlist.NewBuilder("init")
	d := b.Input("d")
	q1 := b.FF("q1", d, true, "")
	q0 := b.FF("q0", d, false, "")
	b.MarkOutput(q1)
	b.MarkOutput(q0)
	m := New(b.MustNetlist())
	if !m.Value(q1) || m.Value(q0) {
		t.Error("initial FF values wrong")
	}
}

func TestFlipFF(t *testing.T) {
	nl, q, en, _ := buildCounter(t)
	m := New(nl)
	m.SetValue(en, true)
	m.Run(3, NopEnv)
	if got := value(m, q); got != 3 {
		t.Fatalf("precondition: %d", got)
	}
	m.FlipFF(2) // bit 2: 3 -> 7
	if got := value(m, q); got != 7 {
		t.Fatalf("after flip: %d", got)
	}
	m.Step(NopEnv)
	if got := value(m, q); got != 8 {
		t.Fatalf("fault propagated wrong: %d", got)
	}
}

func TestSnapshotRestore(t *testing.T) {
	nl, q, en, _ := buildCounter(t)
	m := New(nl)
	m.SetValue(en, true)
	m.Run(6, NopEnv)
	snap := m.FFState()
	ins := m.InputState()
	m.Run(4, NopEnv)
	if got := value(m, q); got != 10 {
		t.Fatalf("pre-restore: %d", got)
	}
	m.SetFFState(snap)
	m.SetInputState(ins)
	if got := value(m, q); got != 6 {
		t.Fatalf("post-restore: %d", got)
	}
	m.Run(4, NopEnv)
	if got := value(m, q); got != 10 {
		t.Fatalf("replay after restore: %d", got)
	}
}

func TestSetFFStateWrongSizePanics(t *testing.T) {
	nl, _, _, _ := buildCounter(t)
	m := New(nl)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	m.SetFFState(make([]bool, 1))
}

func TestEnvTwoPass(t *testing.T) {
	// A "memory": input echoes the counter value + 1, computed by the env
	// from the settled counter output in the same cycle.
	b := netlist.NewBuilder("env")
	data := b.Input("data")
	q := b.FFPlaceholder("q", false, "")
	// q toggles; out = q
	inv := b.Gate(cell.INV, q)
	b.SetFFD(q, inv)
	b.MarkOutput(q)
	captured := b.FF("cap", data, false, "")
	b.MarkOutput(captured)
	m := New(b.MustNetlist())

	env := EnvFunc(func(m *Machine) {
		// read the settled q and feed it back inverted
		m.SetValue(data, !m.Value(q))
	})
	m.Step(env)
	// cycle 0: q=0, env sets data=1, captured<-1
	if !m.Value(captured) {
		t.Error("env input not captured")
	}
	m.Step(env)
	// cycle 1: q=1, env sets data=0
	if m.Value(captured) {
		t.Error("env second cycle wrong")
	}
}

func TestTraceRecord(t *testing.T) {
	nl, q, en, wrap := buildCounter(t)
	m := New(nl)
	m.SetValue(en, true)
	tr := Record(m, NopEnv, 32)
	if tr.NumCycles() != 32 {
		t.Fatalf("cycles = %d", tr.NumCycles())
	}
	for cyc := 0; cyc < 32; cyc++ {
		var v uint64
		for i, w := range q {
			if tr.Get(cyc, w) {
				v |= 1 << i
			}
		}
		if v != uint64(cyc%16) {
			t.Fatalf("trace cycle %d: counter = %d", cyc, v)
		}
		if tr.Get(cyc, wrap) != (cyc%16 == 15) {
			t.Fatalf("trace cycle %d: wrap wrong", cyc)
		}
	}
}

func TestTraceRowRoundTrip(t *testing.T) {
	nl, _, en, _ := buildCounter(t)
	m := New(nl)
	m.SetValue(en, true)
	tr := Record(m, NopEnv, 10)
	for cyc := 0; cyc < 10; cyc++ {
		vals := tr.RowValues(cyc)
		for w := 0; w < tr.NumWires; w++ {
			if vals[w] != tr.Get(cyc, netlist.WireID(w)) {
				t.Fatalf("cycle %d wire %d mismatch", cyc, w)
			}
		}
	}
}

func TestTraceSetAndAppendEmpty(t *testing.T) {
	tr := NewTrace(70) // spans two words
	tr.AppendEmpty()
	tr.Set(0, 69, true)
	if !tr.Get(0, 69) || tr.Get(0, 68) {
		t.Error("Set/Get wrong")
	}
	tr.Set(0, 69, false)
	if tr.Get(0, 69) {
		t.Error("clear failed")
	}
}

func TestTraceAppendWrongWidthPanics(t *testing.T) {
	tr := NewTrace(8)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	tr.Append(make([]bool, 5))
}

// TestBusRoundTripQuick property-tests ReadBus/WriteBus against each other.
func TestBusRoundTripQuick(t *testing.T) {
	b := netlist.NewBuilder("bus")
	bus := make([]netlist.WireID, 16)
	for i := range bus {
		bus[i] = b.Input("")
	}
	out := b.Gate(cell.OR2, bus[0], bus[1])
	b.MarkOutput(out)
	m := New(b.MustNetlist())
	f := func(v uint16) bool {
		m.WriteBus(bus, uint64(v))
		return uint16(m.ReadBus(bus)) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestEvalCombForced: forcing a wire mid-circuit keeps it pinned while
// everything downstream follows.
func TestEvalCombForced(t *testing.T) {
	b := netlist.NewBuilder("forced")
	a := b.Input("a")
	n1 := b.GateNamed("n1", cell.INV, a)
	n2 := b.GateNamed("n2", cell.INV, n1)
	b.MarkOutput(n2)
	m := New(b.MustNetlist())
	m.SetValue(a, true)
	m.EvalCombForced(n1, true) // would be false normally
	if !m.Value(n1) || m.Value(n2) {
		t.Fatalf("forced eval wrong: n1=%v n2=%v", m.Value(n1), m.Value(n2))
	}
	m.EvalComb()
	if m.Value(n1) || !m.Value(n2) {
		t.Fatal("normal eval did not recover")
	}
}
