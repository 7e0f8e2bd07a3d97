package sim

// Code in this file mirrors evalProgram4 (machinew.go) at narrower active
// widths: narrower devices, and a 256-lane device the campaign scheduler
// has compacted (MachineW.CompactLanes) down to the last hang candidates
// of a drained plan. evalProgram runs one group over the index program;
// evalProgram2/3 read the same resolved program as evalProgram4 through
// the same four-word views and touch only words below their group count
// (rerunning the 4-wide kernel at three groups instead measured +4 % on
// avr-fib-seu). Edit evalProgram4 first and keep these in lockstep; the
// cross-width property tests (machinew_test.go, resolved_test.go) pin the
// equivalence.

import "repro/internal/cell"

// evalProgram is the one-group (64-lane) dense kernel over the index
// program: one switch dispatch per run, then a tight specialized loop over
// the span. A 64-lane machine runs it every step, a wider one once
// compaction has left it a single active group.
func evalProgram(ops []op64, runs []opRun, v []uint64) {
	for _, r := range runs {
		seg := ops[r.start:r.end]
		switch r.kind {
		case cell.TIE0:
			for i := range seg {
				v[seg[i].out] = 0
			}
		case cell.TIE1:
			for i := range seg {
				v[seg[i].out] = ^uint64(0)
			}
		case cell.BUF:
			for i := range seg {
				o := &seg[i]
				v[o.out] = v[o.in[0]]
			}
		case cell.INV:
			for i := range seg {
				o := &seg[i]
				v[o.out] = ^v[o.in[0]]
			}
		case cell.AND2:
			for i := range seg {
				o := &seg[i]
				v[o.out] = v[o.in[0]] & v[o.in[1]]
			}
		case cell.AND3:
			for i := range seg {
				o := &seg[i]
				v[o.out] = v[o.in[0]] & v[o.in[1]] & v[o.in[2]]
			}
		case cell.AND4:
			for i := range seg {
				o := &seg[i]
				v[o.out] = v[o.in[0]] & v[o.in[1]] & v[o.in[2]] & v[o.in[3]]
			}
		case cell.NAND2:
			for i := range seg {
				o := &seg[i]
				v[o.out] = ^(v[o.in[0]] & v[o.in[1]])
			}
		case cell.NAND3:
			for i := range seg {
				o := &seg[i]
				v[o.out] = ^(v[o.in[0]] & v[o.in[1]] & v[o.in[2]])
			}
		case cell.NAND4:
			for i := range seg {
				o := &seg[i]
				v[o.out] = ^(v[o.in[0]] & v[o.in[1]] & v[o.in[2]] & v[o.in[3]])
			}
		case cell.OR2:
			for i := range seg {
				o := &seg[i]
				v[o.out] = v[o.in[0]] | v[o.in[1]]
			}
		case cell.OR3:
			for i := range seg {
				o := &seg[i]
				v[o.out] = v[o.in[0]] | v[o.in[1]] | v[o.in[2]]
			}
		case cell.OR4:
			for i := range seg {
				o := &seg[i]
				v[o.out] = v[o.in[0]] | v[o.in[1]] | v[o.in[2]] | v[o.in[3]]
			}
		case cell.NOR2:
			for i := range seg {
				o := &seg[i]
				v[o.out] = ^(v[o.in[0]] | v[o.in[1]])
			}
		case cell.NOR3:
			for i := range seg {
				o := &seg[i]
				v[o.out] = ^(v[o.in[0]] | v[o.in[1]] | v[o.in[2]])
			}
		case cell.NOR4:
			for i := range seg {
				o := &seg[i]
				v[o.out] = ^(v[o.in[0]] | v[o.in[1]] | v[o.in[2]] | v[o.in[3]])
			}
		case cell.XOR2:
			for i := range seg {
				o := &seg[i]
				v[o.out] = v[o.in[0]] ^ v[o.in[1]]
			}
		case cell.XNOR2:
			for i := range seg {
				o := &seg[i]
				v[o.out] = ^(v[o.in[0]] ^ v[o.in[1]])
			}
		case cell.MUX2:
			// a ^ (s & (a^b)): one op fewer than (^s&a)|(s&b), and MUX2 is
			// the most common cell on both cores.
			for i := range seg {
				o := &seg[i]
				a := v[o.in[0]]
				v[o.out] = a ^ (v[o.in[2]] & (a ^ v[o.in[1]]))
			}
		case cell.AOI21:
			for i := range seg {
				o := &seg[i]
				v[o.out] = ^((v[o.in[0]] & v[o.in[1]]) | v[o.in[2]])
			}
		case cell.AOI22:
			for i := range seg {
				o := &seg[i]
				v[o.out] = ^((v[o.in[0]] & v[o.in[1]]) | (v[o.in[2]] & v[o.in[3]]))
			}
		case cell.OAI21:
			for i := range seg {
				o := &seg[i]
				v[o.out] = ^((v[o.in[0]] | v[o.in[1]]) & v[o.in[2]])
			}
		case cell.OAI22:
			for i := range seg {
				o := &seg[i]
				v[o.out] = ^((v[o.in[0]] | v[o.in[1]]) & (v[o.in[2]] | v[o.in[3]]))
			}
		case cell.MAJ3:
			for i := range seg {
				o := &seg[i]
				a, b, c := v[o.in[0]], v[o.in[1]], v[o.in[2]]
				v[o.out] = (a & b) | (a & c) | (b & c)
			}
		default:
			// Generic fallback: Shannon expansion over the truth table.
			for i := range seg {
				o := &seg[i]
				v[o.out] = evalOpG(o, v, 0)
			}
		}
	}
}

// evalProgram2 is the two-group (128-lane) dense kernel.
func evalProgram2(ops []op64, rops []opR, runs []opRun, v []uint64) {
	for _, r := range runs {
		seg := rops[r.start:r.end]
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
		case cell.BUF:
			for i := range seg {
				o := &seg[i]
				a, d := o.in[0], o.out
				d[0], d[1] = a[0], a[1]
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
		case cell.AND3:
			for i := range seg {
				o := &seg[i]
				a, b, c, d := o.in[0], o.in[1], o.in[2], o.out
				d[0], d[1] = a[0]&b[0]&c[0], a[1]&b[1]&c[1]
			}
		case cell.AND4:
			for i := range seg {
				o := &seg[i]
				a, b, c, e, d := o.in[0], o.in[1], o.in[2], o.in[3], o.out
				d[0], d[1] = a[0]&b[0]&c[0]&e[0], a[1]&b[1]&c[1]&e[1]
			}
		case cell.NAND2:
			for i := range seg {
				o := &seg[i]
				a, b, d := o.in[0], o.in[1], o.out
				d[0], d[1] = ^(a[0] & b[0]), ^(a[1] & b[1])
			}
		case cell.NAND3:
			for i := range seg {
				o := &seg[i]
				a, b, c, d := o.in[0], o.in[1], o.in[2], o.out
				d[0], d[1] = ^(a[0] & b[0] & c[0]), ^(a[1] & b[1] & c[1])
			}
		case cell.NAND4:
			for i := range seg {
				o := &seg[i]
				a, b, c, e, d := o.in[0], o.in[1], o.in[2], o.in[3], o.out
				d[0], d[1] = ^(a[0] & b[0] & c[0] & e[0]), ^(a[1] & b[1] & c[1] & e[1])
			}
		case cell.OR2:
			for i := range seg {
				o := &seg[i]
				a, b, d := o.in[0], o.in[1], o.out
				d[0], d[1] = a[0]|b[0], a[1]|b[1]
			}
		case cell.OR3:
			for i := range seg {
				o := &seg[i]
				a, b, c, d := o.in[0], o.in[1], o.in[2], o.out
				d[0], d[1] = a[0]|b[0]|c[0], a[1]|b[1]|c[1]
			}
		case cell.OR4:
			for i := range seg {
				o := &seg[i]
				a, b, c, e, d := o.in[0], o.in[1], o.in[2], o.in[3], o.out
				d[0], d[1] = a[0]|b[0]|c[0]|e[0], a[1]|b[1]|c[1]|e[1]
			}
		case cell.NOR2:
			for i := range seg {
				o := &seg[i]
				a, b, d := o.in[0], o.in[1], o.out
				d[0], d[1] = ^(a[0] | b[0]), ^(a[1] | b[1])
			}
		case cell.NOR3:
			for i := range seg {
				o := &seg[i]
				a, b, c, d := o.in[0], o.in[1], o.in[2], o.out
				d[0], d[1] = ^(a[0] | b[0] | c[0]), ^(a[1] | b[1] | c[1])
			}
		case cell.NOR4:
			for i := range seg {
				o := &seg[i]
				a, b, c, e, d := o.in[0], o.in[1], o.in[2], o.in[3], o.out
				d[0], d[1] = ^(a[0] | b[0] | c[0] | e[0]), ^(a[1] | b[1] | c[1] | e[1])
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
		case cell.AOI21:
			for i := range seg {
				o := &seg[i]
				a, b, c, d := o.in[0], o.in[1], o.in[2], o.out
				d[0], d[1] = ^((a[0] & b[0]) | c[0]), ^((a[1] & b[1]) | c[1])
			}
		case cell.AOI22:
			for i := range seg {
				o := &seg[i]
				a, b, c, e, d := o.in[0], o.in[1], o.in[2], o.in[3], o.out
				d[0] = ^((a[0] & b[0]) | (c[0] & e[0]))
				d[1] = ^((a[1] & b[1]) | (c[1] & e[1]))
			}
		case cell.OAI21:
			for i := range seg {
				o := &seg[i]
				a, b, c, d := o.in[0], o.in[1], o.in[2], o.out
				d[0], d[1] = ^((a[0] | b[0]) & c[0]), ^((a[1] | b[1]) & c[1])
			}
		case cell.OAI22:
			for i := range seg {
				o := &seg[i]
				a, b, c, e, d := o.in[0], o.in[1], o.in[2], o.in[3], o.out
				d[0] = ^((a[0] | b[0]) & (c[0] | e[0]))
				d[1] = ^((a[1] | b[1]) & (c[1] | e[1]))
			}
		case cell.MAJ3:
			for i := range seg {
				o := &seg[i]
				a, b, c, d := o.in[0], o.in[1], o.in[2], o.out
				d[0] = (a[0] & b[0]) | (a[0] & c[0]) | (b[0] & c[0])
				d[1] = (a[1] & b[1]) | (a[1] & c[1]) | (b[1] & c[1])
			}
		default:
			for i := r.start; i < r.end; i++ {
				o := &ops[i]
				for g := int32(0); g < 2; g++ {
					v[o.out+g] = evalOpG(o, v, g)
				}
			}
		}
	}
}

// evalProgram3 is the three-group (192-lane) dense kernel.
func evalProgram3(ops []op64, rops []opR, runs []opRun, v []uint64) {
	for _, r := range runs {
		seg := rops[r.start:r.end]
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
		case cell.BUF:
			for i := range seg {
				o := &seg[i]
				a, d := o.in[0], o.out
				d[0], d[1], d[2] = a[0], a[1], a[2]
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
		case cell.AND3:
			for i := range seg {
				o := &seg[i]
				a, b, c, d := o.in[0], o.in[1], o.in[2], o.out
				d[0], d[1], d[2] = a[0]&b[0]&c[0], a[1]&b[1]&c[1], a[2]&b[2]&c[2]
			}
		case cell.AND4:
			for i := range seg {
				o := &seg[i]
				a, b, c, e, d := o.in[0], o.in[1], o.in[2], o.in[3], o.out
				d[0], d[1], d[2] = a[0]&b[0]&c[0]&e[0], a[1]&b[1]&c[1]&e[1], a[2]&b[2]&c[2]&e[2]
			}
		case cell.NAND2:
			for i := range seg {
				o := &seg[i]
				a, b, d := o.in[0], o.in[1], o.out
				d[0], d[1], d[2] = ^(a[0] & b[0]), ^(a[1] & b[1]), ^(a[2] & b[2])
			}
		case cell.NAND3:
			for i := range seg {
				o := &seg[i]
				a, b, c, d := o.in[0], o.in[1], o.in[2], o.out
				d[0], d[1], d[2] = ^(a[0] & b[0] & c[0]), ^(a[1] & b[1] & c[1]), ^(a[2] & b[2] & c[2])
			}
		case cell.NAND4:
			for i := range seg {
				o := &seg[i]
				a, b, c, e, d := o.in[0], o.in[1], o.in[2], o.in[3], o.out
				d[0], d[1], d[2] = ^(a[0] & b[0] & c[0] & e[0]), ^(a[1] & b[1] & c[1] & e[1]), ^(a[2] & b[2] & c[2] & e[2])
			}
		case cell.OR2:
			for i := range seg {
				o := &seg[i]
				a, b, d := o.in[0], o.in[1], o.out
				d[0], d[1], d[2] = a[0]|b[0], a[1]|b[1], a[2]|b[2]
			}
		case cell.OR3:
			for i := range seg {
				o := &seg[i]
				a, b, c, d := o.in[0], o.in[1], o.in[2], o.out
				d[0], d[1], d[2] = a[0]|b[0]|c[0], a[1]|b[1]|c[1], a[2]|b[2]|c[2]
			}
		case cell.OR4:
			for i := range seg {
				o := &seg[i]
				a, b, c, e, d := o.in[0], o.in[1], o.in[2], o.in[3], o.out
				d[0], d[1], d[2] = a[0]|b[0]|c[0]|e[0], a[1]|b[1]|c[1]|e[1], a[2]|b[2]|c[2]|e[2]
			}
		case cell.NOR2:
			for i := range seg {
				o := &seg[i]
				a, b, d := o.in[0], o.in[1], o.out
				d[0], d[1], d[2] = ^(a[0] | b[0]), ^(a[1] | b[1]), ^(a[2] | b[2])
			}
		case cell.NOR3:
			for i := range seg {
				o := &seg[i]
				a, b, c, d := o.in[0], o.in[1], o.in[2], o.out
				d[0], d[1], d[2] = ^(a[0] | b[0] | c[0]), ^(a[1] | b[1] | c[1]), ^(a[2] | b[2] | c[2])
			}
		case cell.NOR4:
			for i := range seg {
				o := &seg[i]
				a, b, c, e, d := o.in[0], o.in[1], o.in[2], o.in[3], o.out
				d[0], d[1], d[2] = ^(a[0] | b[0] | c[0] | e[0]), ^(a[1] | b[1] | c[1] | e[1]), ^(a[2] | b[2] | c[2] | e[2])
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
		case cell.AOI21:
			for i := range seg {
				o := &seg[i]
				a, b, c, d := o.in[0], o.in[1], o.in[2], o.out
				d[0], d[1], d[2] = ^((a[0] & b[0]) | c[0]), ^((a[1] & b[1]) | c[1]), ^((a[2] & b[2]) | c[2])
			}
		case cell.AOI22:
			for i := range seg {
				o := &seg[i]
				a, b, c, e, d := o.in[0], o.in[1], o.in[2], o.in[3], o.out
				d[0] = ^((a[0] & b[0]) | (c[0] & e[0]))
				d[1] = ^((a[1] & b[1]) | (c[1] & e[1]))
				d[2] = ^((a[2] & b[2]) | (c[2] & e[2]))
			}
		case cell.OAI21:
			for i := range seg {
				o := &seg[i]
				a, b, c, d := o.in[0], o.in[1], o.in[2], o.out
				d[0], d[1], d[2] = ^((a[0] | b[0]) & c[0]), ^((a[1] | b[1]) & c[1]), ^((a[2] | b[2]) & c[2])
			}
		case cell.OAI22:
			for i := range seg {
				o := &seg[i]
				a, b, c, e, d := o.in[0], o.in[1], o.in[2], o.in[3], o.out
				d[0] = ^((a[0] | b[0]) & (c[0] | e[0]))
				d[1] = ^((a[1] | b[1]) & (c[1] | e[1]))
				d[2] = ^((a[2] | b[2]) & (c[2] | e[2]))
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
			for i := r.start; i < r.end; i++ {
				o := &ops[i]
				for g := int32(0); g < 3; g++ {
					v[o.out+g] = evalOpG(o, v, g)
				}
			}
		}
	}
}
