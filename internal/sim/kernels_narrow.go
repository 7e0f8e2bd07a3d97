package sim

// Code in this file mirrors evalProgram4 (machinew.go) at narrower active
// widths. The batched campaign engine compacts retired lanes out of a
// batch (MachineW.CompactLanes), so a 256-lane machine spends the tail of
// every batch with only one or two live groups — these kernels keep that
// tail on unrolled straight-line code instead of the generic per-group
// fallback. They read the same resolved program through the same
// four-word views and touch only words below their group count; rerunning
// the 4-wide kernel at three groups instead measured +4 % on avr-fib-seu.
// Edit evalProgram4 first and keep these in lockstep; the cross-width
// property tests (machinew_test.go, resolved_test.go) pin the equivalence.

import "repro/internal/cell"

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
