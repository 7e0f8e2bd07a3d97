package sim

import (
	"math/bits"

	"repro/internal/netlist"
)

// The memory environment of a wide machine never leaves the bit planes:
// lanes of one device mostly follow the golden control flow, so both
// memories are served one cluster — the lanes at one address — at a time.

// startClusters opens a cluster loop: it clears dst in the active groups
// (a cluster's data is OR-ed in) and returns the lanes below LiveLanes().
func (m *MachineW) startClusters(dst []netlist.WireID) []uint64 {
	unserved := m.unserved[:m.ag]
	for g := range unserved {
		unserved[g] = ^uint64(0)
		if n := m.live - 64*g; n < 64 {
			unserved[g] = 1<<uint(max(n, 0)) - 1
		}
	}
	for _, wire := range dst {
		clear(m.values[int(wire)*m.W:][:m.ag])
	}
	return unserved
}

// nextCluster is the clustering step: it reads the value on bus of the
// lowest lane of todo[g] (non-zero; groups below g are empty), leaves in
// same[g:] the lanes of todo that carry that value and removes them from
// todo.
func (m *MachineW) nextCluster(bus []netlist.WireID, g int, todo, same []uint64) int {
	w, v := m.W, m.values
	sh := uint(bits.TrailingZeros64(todo[g]))
	copy(same[g:], todo[g:])
	val := 0
	for i, wire := range bus {
		base := int(wire) * w
		b := v[base+g] >> sh & 1
		val |= int(b) << uint(i)
		for k := g; k < len(todo); k++ {
			same[k] &^= v[base+k] ^ -b
		}
	}
	for k := g; k < len(todo); k++ {
		todo[k] &^= same[k]
	}
	return val
}

// lookupClusterLimit bounds the clusters LookupBus serves before it gives
// the call to the dense transposes (at four groups a cluster of a fetch
// costs ≈ 100 word ops, gather + scatter ≈ 5 600), lookupBackoff the
// following calls that do not probe again. A scheduler device holds lanes
// of many start cycles: the median fetch has 10–18 clusters, 0 % (AVR fib),
// 6 % (MSP430 conv) and 22 % (AVR sort) of the calls cross the limit.
const (
	lookupClusterLimit = 20
	lookupBackoff      = 15
)

// LookupBus drives dst (up to 16 wires) with rom[value of src] in every
// live lane (0 beyond the ROM), one cluster per distinct src value. Lanes
// whose value lies beyond the ROM are served before any cluster forms —
// they read the 0 the bus already holds — so a hung lane walking the
// address space at a PC of its own costs nothing; the others are compared
// on the ⌈log₂ len(rom)⌉ low wires only. Dead lanes (LiveLanes() and up)
// receive 0.
//
// It returns false, with dst unspecified in the active groups, when more
// than lookupClusterLimit distinct values below 2^⌈log₂ len(rom)⌉ are
// present or a recent call found that many; the caller then runs
// GatherLanes, its own per-lane lookup and ScatterLanes, which overwrites
// every active group of dst.
func (m *MachineW) LookupBus(src, dst []netlist.WireID, rom []uint16) bool {
	if len(dst) > 16 {
		panic("sim: LookupBus supports at most 16 data wires")
	}
	if m.lookupSkip > 0 {
		m.lookupSkip--
		return false
	}
	w, ag, v := m.W, m.ag, m.values
	unserved, same := m.startClusters(dst), m.same[:ag]
	low := 0
	if len(rom) > 1 {
		low = min(bits.Len(uint(len(rom)-1)), len(src))
	}
	for _, wire := range src[low:] {
		base := int(wire) * w
		for g := range unserved {
			unserved[g] &^= v[base+g]
		}
	}
	dmask := ^uint16(0) >> uint(16-len(dst))
	clusters := 0
	for g := 0; g < ag; {
		if unserved[g] == 0 {
			g++ // groups below g stay served
			continue
		}
		if clusters == lookupClusterLimit {
			m.lookupSkip = lookupBackoff
			return false
		}
		clusters++
		var word uint16
		if addr := m.nextCluster(src[:low], g, unserved, same); addr < len(rom) {
			word = rom[addr] & dmask
		}
		for ; word != 0; word &= word - 1 {
			base := int(dst[bits.TrailingZeros16(word)]) * w
			for k := g; k < ag; k++ {
				v[base+k] |= same[k]
			}
		}
	}
	return true
}

// LaneRAM is the lane-private data memory of a wide machine, bit-sliced
// like a wire: bit b of cell a is one lane word per lane group. The layout
// is group-major — word (g<<addrBits|a)·dataBits+b — so one cluster touches
// dataBits adjacent words per group and a one-lane pass 1/W of the memory.
type LaneRAM struct {
	cells              []uint64
	addrBits, dataBits int
	// The image LaneImage last read (of lane imageLane, -1: none), valid
	// until a cell changes: a golden recording checkpoints lane 0 every
	// cycle and stores on one cycle in ten.
	image     []uint16
	imageLane int
}

// NewLaneRAM allocates a zeroed memory of 1<<addrBits cells of dataBits
// bits (whole bytes: the one-lane transfers move eight planes at a time)
// for 64·w lanes.
func NewLaneRAM(addrBits, dataBits, w int) *LaneRAM {
	if dataBits%8 != 0 {
		panic("sim: LaneRAM data width must be a multiple of 8")
	}
	return &LaneRAM{cells: make([]uint64, w<<uint(addrBits)*dataBits), addrBits: addrBits, dataBits: dataBits,
		image: make([]uint16, 1<<uint(addrBits)), imageLane: -1}
}

// group returns lane group g's share of the memory.
func (r *LaneRAM) group(g int) []uint64 {
	n := r.dataBits << uint(r.addrBits)
	return r.cells[g*n : (g+1)*n]
}

// AccessRAM serves one cycle of the data memory: every live lane reads the
// cell its addr value names into rdata (len(rdata) = len(wdata) = the
// RAM's data width), and the lanes with we set then store wdata there — a
// load sees the old value, as in the scalar environments — folding the
// write into their digest. One pass per distinct address; the writers of a
// cluster are sub-clustered by store value, so the only per-lane work is
// one UpdateWriteDigest per writer. Dead lanes read 0 and never store.
func (m *MachineW) AccessRAM(ram *LaneRAM, addr []netlist.WireID, we netlist.WireID, wdata, rdata []netlist.WireID, digest []uint64) {
	w, ag, v := m.W, m.ag, m.values
	unserved, same, sub := m.startClusters(rdata), m.same[:ag], m.sub[:ag]
	weBase := int(we) * w
	for g := 0; g < ag; {
		if unserved[g] == 0 {
			g++
			continue
		}
		a := m.nextCluster(addr, g, unserved, same)
		var writers uint64
		for k := g; k < ag; k++ {
			in := same[k]
			wm := in & v[weBase+k]
			same[k] = wm // the cluster's writers, for the digest pass
			if in == 0 {
				continue
			}
			cell := ram.cells[(k<<uint(ram.addrBits)|a)*ram.dataBits:][:ram.dataBits]
			for b, wire := range rdata {
				v[int(wire)*w+k] |= cell[b] & in
			}
			if wm != 0 {
				writers |= wm
				for b, wire := range wdata {
					cell[b] ^= (cell[b] ^ v[int(wire)*w+k]) & wm
				}
			}
		}
		if writers == 0 {
			continue
		}
		ram.imageLane = -1
		for k := g; k < ag; {
			if same[k] == 0 {
				k++
				continue
			}
			val := m.nextCluster(wdata, k, same, sub)
			for j := k; j < ag; j++ {
				for x := sub[j]; x != 0; x &= x - 1 {
					l := j<<6 | bits.TrailingZeros64(x)
					digest[l] = UpdateWriteDigest(digest[l], uint64(a), uint64(val))
				}
			}
		}
	}
}

// The transfers between the RAM and a scalar memory image (img[a] = cell a,
// len(img) = 1<<addrBits). A one-lane transfer moves every bit of the image
// on its own — 2 048 bit moves where a lane-major memory copied 256 bytes.
// With the lane's bit at position sh of every plane, rotating plane b by b
// lines the bits of a cell up as its value rotated by sh.

// FillRAM loads the image into every lane.
func FillRAM[T ~uint8 | ~uint16](r *LaneRAM, img []T) {
	g0 := r.group(0)
	r.imageLane = -1
	for a, x := range img {
		for b := 0; b < r.dataBits; b++ {
			g0[a*r.dataBits+b] = -(uint64(x) >> uint(b) & 1)
		}
	}
	for n := len(g0); n < len(r.cells); n += len(g0) {
		copy(r.cells[n:], g0)
	}
}

// LoadRAMLane loads the image into one lane; every other lane keeps its
// cells.
func LoadRAMLane[T ~uint8 | ~uint16](r *LaneRAM, lane int, img []T) {
	cells, bit := r.group(lane>>6), uint64(1)<<(uint(lane)&63)
	r.imageLane = -1
	for a, x := range img {
		xr := bits.RotateLeft64(uint64(x), lane&63) // bit b of the cell at sh+b
		cell := cells[a*r.dataBits : (a+1)*r.dataBits]
		for b, p := range cell {
			cell[b] = p ^ (p^xr)&bit
			xr = bits.RotateLeft64(xr, -1)
		}
	}
}

// LaneImage reads one lane's image. The slice is the RAM's own: it holds
// until a cell changes or another lane is read.
func (r *LaneRAM) LaneImage(lane int) []uint16 {
	if lane != r.imageLane {
		cells, sh, bit := r.group(lane>>6), lane&63, uint64(1)<<(uint(lane)&63)
		for a := range r.image {
			var x uint64
			for b := 0; b < r.dataBits; b += 8 {
				p := (*[8]uint64)(cells[a*r.dataBits+b:])
				z := p[0]&bit | bits.RotateLeft64(p[1]&bit, 1) | bits.RotateLeft64(p[2]&bit, 2) |
					bits.RotateLeft64(p[3]&bit, 3) | bits.RotateLeft64(p[4]&bit, 4) | bits.RotateLeft64(p[5]&bit, 5) |
					bits.RotateLeft64(p[6]&bit, 6) | bits.RotateLeft64(p[7]&bit, 7)
				x |= bits.RotateLeft64(z, -sh) & 0xFF << uint(b)
			}
			r.image[a] = uint16(x)
		}
		r.imageLane = lane
	}
	return r.image
}

// MemoryPorts names the wires of a core's two memory interfaces.
type MemoryPorts struct {
	FetchAddr, FetchData []netlist.WireID // instruction ROM
	Addr                 []netlist.WireID // data RAM
	WE                   netlist.WireID
	WData, RData         []netlist.WireID
}

// LaneMemory is the lane-parallel memory environment both CPU cores run: a
// ROM all lanes share behind the fetch port, a lane-private RAM behind the
// data port, and one chained write digest per lane (UpdateWriteDigest)
// mirroring the scalar systems' lane for lane.
type LaneMemory struct {
	MemoryPorts
	ROM    []uint16
	RAM    *LaneRAM
	Digest []uint64

	addr, data []uint16 // lane-major scratch of the dense fetch
}

// NewLaneMemory builds the environment for machine m and declares what it
// reads and writes, so Settle evaluates each gate once (SetEnvWrites). A
// core whose fetch address, data address, write enable or write data
// depends on the fetched or read data is refused.
func NewLaneMemory(m *MachineW, p MemoryPorts, rom []uint16) (*LaneMemory, error) {
	reads := append(append(append([]netlist.WireID{p.WE}, p.FetchAddr...), p.Addr...), p.WData...)
	if err := m.SetEnvWrites(reads, p.FetchData, p.RData); err != nil {
		return nil, err
	}
	e := &LaneMemory{MemoryPorts: p, ROM: rom, RAM: NewLaneRAM(len(p.Addr), len(p.RData), m.W),
		Digest: make([]uint64, m.NumLanes()), addr: make([]uint16, m.NumLanes()), data: make([]uint16, m.NumLanes())}
	for l := range e.Digest {
		e.Digest[l] = WriteDigestSeed
	}
	return e, nil
}

// SetInputsW implements EnvW. A fetch scattered over more PCs than
// LookupBus serves goes through the lane-major transposes instead.
func (e *LaneMemory) SetInputsW(m *MachineW) {
	if !m.LookupBus(e.FetchAddr, e.FetchData, e.ROM) {
		m.GatherLanes(e.FetchAddr, e.addr)
		for l, a := range e.addr[:m.ActiveLanes()] {
			e.data[l] = 0
			if int(a) < len(e.ROM) {
				e.data[l] = e.ROM[a]
			}
		}
		m.ScatterLanes(e.FetchData, e.data)
	}
	m.AccessRAM(e.RAM, e.Addr, e.WE, e.WData, e.RData, e.Digest)
}

// Compact moves memory cells and digest of lane src[i] to lane i, the lane
// permutation of MachineW.CompactLanes (src strictly increasing).
func (e *LaneMemory) Compact(src []uint16) {
	r := e.RAM
	r.imageLane = -1
	n := r.dataBits << uint(r.addrBits)
	packed := make([]uint64, (len(src)+63)>>6)
	for c := 0; c < n; c++ {
		clear(packed)
		for i, s := range src {
			packed[i>>6] |= r.cells[int(s>>6)*n+c] >> (s & 63) & 1 << (uint(i) & 63)
		}
		for g, x := range packed {
			r.cells[g*n+c] = x
		}
	}
	for i, l := range src {
		e.Digest[i] = e.Digest[l]
	}
}
