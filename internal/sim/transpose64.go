package sim

import "repro/internal/netlist"

// Bus transposition between the machine's bit-plane representation (one
// uint64 lane word per wire, bit l = lane 64g+l of group g) and the
// lane-major representation (one bus value per lane) of the dense
// instruction fetch, which LaneMemory runs when LookupBus declines.
//
// Both directions use the carry-free multiply transpose: for a word y
// holding one payload bit per byte (y & 0x0101...), the product
// y * 0x0102040810204080 places byte k's bit at position 56+k, and every
// partial product lands on a distinct bit (8a+7b+7 decomposes uniquely for
// a,b in 0..7), so the multiply never carries. One multiply therefore
// moves eight lanes' worth of one bit — 8x fewer operations than the
// per-lane bit loops they replace, and branch-free.
//
// The plane<->lane kernels below operate on one 64-lane group; MachineW
// applies them per group, which keeps the wide-word paths allocation-free
// and reuses the exact 64-lane transpose the property/fuzz tests pin down.

const (
	xposeMask = 0x0101010101010101
	xposeMul  = 0x0102040810204080
)

// gatherPlanes transposes n bit planes (plane i bit l = wire i, lane l)
// into 64 lane values: out[l] bit i = planes[i] bit l.
func gatherPlanes(planes *[16]uint64, n int, out *[64]uint16) {
	if n <= 8 {
		// Narrow buses (the data-memory address and data paths are 8 bits
		// on both cores) skip the high-byte half of the transpose entirely.
		for g := 0; g < 8; g++ {
			sh := uint(8 * g)
			var zlo uint64
			for i := 0; i < n; i++ {
				zlo |= (planes[i] >> sh & 0xFF) << uint(8*i)
			}
			for k := 0; k < 8; k++ {
				out[8*g+k] = uint16((zlo >> uint(k) & xposeMask) * xposeMul >> 56)
			}
		}
		return
	}
	for g := 0; g < 8; g++ {
		sh := uint(8 * g)
		var zlo, zhi uint64
		for i := 0; i < 8; i++ {
			zlo |= (planes[i] >> sh & 0xFF) << uint(8*i)
		}
		for i := 8; i < n; i++ {
			zhi |= (planes[i] >> sh & 0xFF) << uint(8*(i-8))
		}
		for k := 0; k < 8; k++ {
			v := uint16((zlo >> uint(k) & xposeMask) * xposeMul >> 56)
			v |= uint16((zhi>>uint(k)&xposeMask)*xposeMul>>56) << 8
			out[8*g+k] = v
		}
	}
}

// scatterPlanes transposes 64 lane values into n bit planes:
// planes[i] bit l = vals[l] bit i.
func scatterPlanes(vals *[64]uint16, n int, planes *[16]uint64) {
	for i := 0; i < n; i++ {
		planes[i] = 0
	}
	if n <= 8 {
		// Narrow buses never populate the high-byte half, so neither its
		// assembly nor its plane extraction runs.
		for g := 0; g < 8; g++ {
			var lo uint64
			for k := 0; k < 8; k++ {
				lo |= uint64(vals[8*g+k]&0xFF) << uint(8*k)
			}
			sh := uint(8 * g)
			for i := 0; i < n; i++ {
				planes[i] |= (lo >> uint(i) & xposeMask) * xposeMul >> 56 << sh
			}
		}
		return
	}
	for g := 0; g < 8; g++ {
		var lo, hi uint64
		for k := 0; k < 8; k++ {
			v := vals[8*g+k]
			lo |= uint64(v&0xFF) << uint(8*k)
			hi |= uint64(v>>8) << uint(8*k)
		}
		sh := uint(8 * g)
		for i := 0; i < 8; i++ {
			planes[i] |= (lo >> uint(i) & xposeMask) * xposeMul >> 56 << sh
		}
		for i := 8; i < n; i++ {
			planes[i] |= (hi >> uint(i-8) & xposeMask) * xposeMul >> 56 << sh
		}
	}
}

// GatherBusG reads a bus (up to 16 wires) for lane group g:
// out[l] bit i = wire bus[i] in lane 64g+l.
func (m *MachineW) GatherBusG(bus []netlist.WireID, g int, out *[64]uint16) {
	n := len(bus)
	if n > 16 {
		panic("sim: GatherBusG supports at most 16 wires")
	}
	var planes [16]uint64
	for i := 0; i < n; i++ {
		planes[i] = m.values[int(bus[i])*m.W+g]
	}
	gatherPlanes(&planes, n, out)
}

// ScatterBusG drives a bus (up to 16 wires) for lane group g from per-lane
// values: wire bus[i] carries bit i of lane 64g+l's value vals[l].
func (m *MachineW) ScatterBusG(bus []netlist.WireID, g int, vals *[64]uint16) {
	n := len(bus)
	if n > 16 {
		panic("sim: ScatterBusG supports at most 16 wires")
	}
	var planes [16]uint64
	scatterPlanes(vals, n, &planes)
	for i, w := range bus {
		m.values[int(w)*m.W+g] = planes[i]
	}
}

// GatherLanes reads a bus (up to 16 wires) across the active lanes:
// out[l] bit i = wire bus[i] in lane l. len(out) must be 64·W; entries
// beyond ActiveLanes() are left untouched.
func (m *MachineW) GatherLanes(bus []netlist.WireID, out []uint16) {
	for g := 0; g < m.ag; g++ {
		m.GatherBusG(bus, g, (*[64]uint16)(out[g*64:]))
	}
}

// ScatterLanes drives a bus (up to 16 wires) across the active lanes from
// per-lane values. len(vals) must be 64·W; entries beyond ActiveLanes()
// are ignored.
func (m *MachineW) ScatterLanes(bus []netlist.WireID, vals []uint16) {
	for g := 0; g < m.ag; g++ {
		m.ScatterBusG(bus, g, (*[64]uint16)(vals[g*64:]))
	}
}
