package sim

// The kernels below are evalProgram4 (machinew.go) at fewer active groups:
// narrower devices, and a 256-lane device the campaign scheduler has
// compacted (MachineW.CompactLanes) down to the last hang candidates of a
// drained plan. All four read the same resolved program through the same
// four-word views and touch only the words below their group count; they
// stay distinct machine code because running the four-group kernel at three
// groups measured +4 % on avr-fib-seu, and a W=2 or W=3 machine has no
// fourth word to run it on.
//
// Each has a case for the nine kinds of kernelKinds and nothing else — the
// cells internal/synth builds the AVR and MSP430 cores from — and hands
// every other span to evalProgramN, which knows the whole library.
// A new op form is therefore four cases of a few lines, in lockstep with
// evalProgram4; TestWidth1GenericFallback checks every body against the
// cell truth tables, TestResolvedKernelsMatchGeneric against evalProgramN.

import "repro/internal/cell"

// evalProgram is the one-group (64-lane) kernel: what a 64-lane machine
// runs every step, a wider one once compaction has left it a single group.
func evalProgram(p *program) {
	for _, r := range p.runs {
		seg := p.rops[r.start:r.end]
		switch r.kind {
		case cell.TIE0:
			for i := range seg {
				d := seg[i].out
				d[0] = 0
			}
		case cell.TIE1:
			for i := range seg {
				d := seg[i].out
				d[0] = ^uint64(0)
			}
		case cell.INV:
			for i := range seg {
				o := &seg[i]
				a, d := o.in[0], o.out
				d[0] = ^a[0]
			}
		case cell.AND2:
			for i := range seg {
				o := &seg[i]
				a, b, d := o.in[0], o.in[1], o.out
				d[0] = a[0] & b[0]
			}
		case cell.OR2:
			for i := range seg {
				o := &seg[i]
				a, b, d := o.in[0], o.in[1], o.out
				d[0] = a[0] | b[0]
			}
		case cell.XOR2:
			for i := range seg {
				o := &seg[i]
				a, b, d := o.in[0], o.in[1], o.out
				d[0] = a[0] ^ b[0]
			}
		case cell.XNOR2:
			for i := range seg {
				o := &seg[i]
				a, b, d := o.in[0], o.in[1], o.out
				d[0] = ^(a[0] ^ b[0])
			}
		case cell.MUX2:
			for i := range seg {
				o := &seg[i]
				a, b, s, d := o.in[0], o.in[1], o.in[2], o.out
				d[0] = a[0] ^ (s[0] & (a[0] ^ b[0]))
			}
		case cell.MAJ3:
			for i := range seg {
				o := &seg[i]
				a, b, c, d := o.in[0], o.in[1], o.in[2], o.out
				d[0] = (a[0] & b[0]) | (a[0] & c[0]) | (b[0] & c[0])
			}
		default:
			evalProgramN(p.ops[r.start:r.end], p.values, 1)
		}
	}
}

// evalProgram2 is the two-group (128-lane) kernel.
func evalProgram2(p *program) {
	for _, r := range p.runs {
		seg := p.rops[r.start:r.end]
		switch r.kind {
		case cell.TIE0:
			for i := range seg {
				d := seg[i].out
				d[0], d[1] = 0, 0
			}
		case cell.TIE1:
			for i := range seg {
				d := seg[i].out
				d[0], d[1] = ^uint64(0), ^uint64(0)
			}
		case cell.INV:
			for i := range seg {
				o := &seg[i]
				a, d := o.in[0], o.out
				d[0], d[1] = ^a[0], ^a[1]
			}
		case cell.AND2:
			for i := range seg {
				o := &seg[i]
				a, b, d := o.in[0], o.in[1], o.out
				d[0], d[1] = a[0]&b[0], a[1]&b[1]
			}
		case cell.OR2:
			for i := range seg {
				o := &seg[i]
				a, b, d := o.in[0], o.in[1], o.out
				d[0], d[1] = a[0]|b[0], a[1]|b[1]
			}
		case cell.XOR2:
			for i := range seg {
				o := &seg[i]
				a, b, d := o.in[0], o.in[1], o.out
				d[0], d[1] = a[0]^b[0], a[1]^b[1]
			}
		case cell.XNOR2:
			for i := range seg {
				o := &seg[i]
				a, b, d := o.in[0], o.in[1], o.out
				d[0], d[1] = ^(a[0] ^ b[0]), ^(a[1] ^ b[1])
			}
		case cell.MUX2:
			for i := range seg {
				o := &seg[i]
				a, b, s, d := o.in[0], o.in[1], o.in[2], o.out
				d[0] = a[0] ^ (s[0] & (a[0] ^ b[0]))
				d[1] = a[1] ^ (s[1] & (a[1] ^ b[1]))
			}
		case cell.MAJ3:
			for i := range seg {
				o := &seg[i]
				a, b, c, d := o.in[0], o.in[1], o.in[2], o.out
				d[0] = (a[0] & b[0]) | (a[0] & c[0]) | (b[0] & c[0])
				d[1] = (a[1] & b[1]) | (a[1] & c[1]) | (b[1] & c[1])
			}
		default:
			evalProgramN(p.ops[r.start:r.end], p.values, 2)
		}
	}
}

// evalProgram3 is the three-group (192-lane) kernel.
func evalProgram3(p *program) {
	for _, r := range p.runs {
		seg := p.rops[r.start:r.end]
		switch r.kind {
		case cell.TIE0:
			for i := range seg {
				d := seg[i].out
				d[0], d[1], d[2] = 0, 0, 0
			}
		case cell.TIE1:
			for i := range seg {
				d := seg[i].out
				d[0], d[1], d[2] = ^uint64(0), ^uint64(0), ^uint64(0)
			}
		case cell.INV:
			for i := range seg {
				o := &seg[i]
				a, d := o.in[0], o.out
				d[0], d[1], d[2] = ^a[0], ^a[1], ^a[2]
			}
		case cell.AND2:
			for i := range seg {
				o := &seg[i]
				a, b, d := o.in[0], o.in[1], o.out
				d[0], d[1], d[2] = a[0]&b[0], a[1]&b[1], a[2]&b[2]
			}
		case cell.OR2:
			for i := range seg {
				o := &seg[i]
				a, b, d := o.in[0], o.in[1], o.out
				d[0], d[1], d[2] = a[0]|b[0], a[1]|b[1], a[2]|b[2]
			}
		case cell.XOR2:
			for i := range seg {
				o := &seg[i]
				a, b, d := o.in[0], o.in[1], o.out
				d[0], d[1], d[2] = a[0]^b[0], a[1]^b[1], a[2]^b[2]
			}
		case cell.XNOR2:
			for i := range seg {
				o := &seg[i]
				a, b, d := o.in[0], o.in[1], o.out
				d[0], d[1], d[2] = ^(a[0] ^ b[0]), ^(a[1] ^ b[1]), ^(a[2] ^ b[2])
			}
		case cell.MUX2:
			for i := range seg {
				o := &seg[i]
				a, b, s, d := o.in[0], o.in[1], o.in[2], o.out
				d[0] = a[0] ^ (s[0] & (a[0] ^ b[0]))
				d[1] = a[1] ^ (s[1] & (a[1] ^ b[1]))
				d[2] = a[2] ^ (s[2] & (a[2] ^ b[2]))
			}
		case cell.MAJ3:
			for i := range seg {
				o := &seg[i]
				a, b, c, d := o.in[0], o.in[1], o.in[2], o.out
				d[0] = (a[0] & b[0]) | (a[0] & c[0]) | (b[0] & c[0])
				d[1] = (a[1] & b[1]) | (a[1] & c[1]) | (b[1] & c[1])
				d[2] = (a[2] & b[2]) | (a[2] & c[2]) | (b[2] & c[2])
			}
		default:
			evalProgramN(p.ops[r.start:r.end], p.values, 3)
		}
	}
}
