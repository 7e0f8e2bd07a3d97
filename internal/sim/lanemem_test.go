package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/cell"
	"repro/internal/netlist"
)

// ramFixture drives AccessRAM on a machine that is nothing but the data
// port's wires, next to the memory it replaces: one private array and one
// digest per lane.
type ramFixture struct {
	m                  *MachineW
	mem                *LaneMemory
	image              [][]uint16 // lane-major reference memory
	digest             []uint64
	addr, wdata, rdata []uint16 // lane-major bus values of the current cycle
}

const ramAddrBits = 8

func newRAMFixture(t testing.TB, w, dataBits int) *ramFixture {
	t.Helper()
	b := netlist.NewBuilder("ram")
	bus := func(n int) (ws []netlist.WireID) {
		for i := 0; i < n; i++ {
			ws = append(ws, b.Input(""))
		}
		return ws
	}
	p := MemoryPorts{Addr: bus(ramAddrBits), WE: b.Input(""), WData: bus(dataBits), RData: bus(dataBits)}
	b.MarkOutput(p.RData[0])
	m, err := NewMachineW(b.MustNetlist(), w)
	if err != nil {
		t.Fatal(err)
	}
	mem, err := NewLaneMemory(m, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	f := &ramFixture{m: m, mem: mem, digest: make([]uint64, m.NumLanes()),
		addr: make([]uint16, m.NumLanes()), wdata: make([]uint16, m.NumLanes()), rdata: make([]uint16, m.NumLanes())}
	for l := range f.digest {
		f.image = append(f.image, make([]uint16, 1<<ramAddrBits))
		f.digest[l] = WriteDigestSeed
	}
	return f
}

// Writer mixes of one cycle.
const (
	writersNone = iota
	writersSome
	writersAll
)

// cycle runs one access with the lanes spread over nAddrs distinct
// addresses and nVals distinct store values, and checks read data, memory
// image and write digest of every live lane against the reference. Dead
// lanes carry bus values and a write enable of their own: they must read 0.
func (f *ramFixture) cycle(t testing.TB, rng *rand.Rand, nAddrs, nVals, writers int) {
	t.Helper()
	m, p := f.m, f.mem.MemoryPorts
	addrs := distinctAddrs(rng, nAddrs, 0, 1<<ramAddrBits)
	vals := make([]uint16, nVals)
	for i := range vals {
		vals[i] = uint16(rng.Uint32()) & (1<<uint(len(p.WData)) - 1)
	}
	// Round robin puts every address on the bus (256 lanes reach 256
	// clusters); a random draw makes clusters of uneven size.
	roundRobin, off := rng.Intn(2) == 0, rng.Intn(nAddrs)
	for l := range f.addr {
		pick := rng.Intn(nAddrs)
		if roundRobin {
			pick = (l + off) % nAddrs
		}
		f.addr[l], f.wdata[l], f.rdata[l] = addrs[pick], vals[rng.Intn(nVals)], uint16(rng.Uint32())
	}
	m.ScatterLanes(p.Addr, f.addr)
	m.ScatterLanes(p.WData, f.wdata)
	m.ScatterLanes(p.RData, f.rdata) // noise: stale data must not pass for a load
	for g := 0; g < m.ActiveGroups(); g++ {
		we := rng.Uint64() & rng.Uint64()
		switch writers {
		case writersNone:
			for l := 64 * g; l < min(64*g+64, m.LiveLanes()); l++ {
				we &^= 1 << (uint(l) & 63) // dead lanes only
			}
		case writersAll:
			we = ^uint64(0)
		}
		m.SetLaneWord(p.WE, g, we)
	}

	m.AccessRAM(f.mem.RAM, p.Addr, p.WE, p.WData, p.RData, f.mem.Digest)

	m.GatherLanes(p.RData, f.rdata)
	for l := 0; l < m.ActiveLanes(); l++ {
		if l >= m.LiveLanes() {
			if f.rdata[l] != 0 {
				t.Fatalf("dead lane %d read %04x", l, f.rdata[l])
			}
			continue
		}
		a := f.addr[l]
		if want := f.image[l][a]; f.rdata[l] != want {
			t.Fatalf("W=%d ag=%d live=%d lane %d addr %02x: read %04x, private memory holds %04x", m.W, m.ag, m.live, l, a, f.rdata[l], want)
		}
		if m.LaneWord(p.WE, l>>6)>>(uint(l)&63)&1 == 1 {
			f.image[l][a] = f.wdata[l]
			f.digest[l] = UpdateWriteDigest(f.digest[l], uint64(a), uint64(f.wdata[l]))
		}
		if !slices.Equal(f.mem.RAM.LaneImage(l), f.image[l]) {
			t.Fatalf("W=%d ag=%d live=%d lane %d: memory image differs after the access at %02x", m.W, m.ag, m.live, l, a)
		}
		if f.mem.Digest[l] != f.digest[l] {
			t.Fatalf("W=%d ag=%d live=%d lane %d: write digest %016x, want %016x", m.W, m.ag, m.live, l, f.mem.Digest[l], f.digest[l])
		}
	}
	// Leave lane 0's image as the one the RAM read last: whatever changes a
	// cell next must not let the next read of lane 0 — the first lane every
	// cycle checks — return it.
	f.mem.RAM.LaneImage(0)
}

// compact keeps n random live lanes, in the machine, the memory and the
// reference alike.
func (f *ramFixture) compact(rng *rand.Rand, n int) {
	src := make([]uint16, 0, n)
	for _, l := range rng.Perm(f.m.LiveLanes())[:n] {
		src = append(src, uint16(l))
	}
	slices.Sort(src)
	f.m.CompactLanes(src)
	f.mem.Compact(src)
	for i, l := range src {
		copy(f.image[i], f.image[l])
		f.digest[i] = f.digest[l]
	}
}

// loadLane gives one lane a fresh image and digest and checks that the
// load is the inverse of the extract and leaves the cells of every other
// lane bit-identical.
func (f *ramFixture) loadLane(t testing.TB, rng *rand.Rand, lane int) {
	t.Helper()
	ram := f.mem.RAM
	for a := range f.image[lane] {
		f.image[lane][a] = uint16(rng.Uint32()) & (1<<uint(ram.dataBits) - 1)
	}
	f.digest[lane] = rng.Uint64()
	f.mem.Digest[lane] = f.digest[lane]
	before := slices.Clone(ram.cells)
	ram.LaneImage(lane) // see the end of cycle
	LoadRAMLane(ram, lane, f.image[lane])
	if !slices.Equal(ram.LaneImage(lane), f.image[lane]) {
		t.Fatalf("lane %d: extract after load returns a different image", lane)
	}
	group := len(ram.cells) / f.m.W
	for i, x := range ram.cells {
		others := ^uint64(0)
		if i/group == lane>>6 {
			others &^= 1 << (uint(lane) & 63)
		}
		if (x^before[i])&others != 0 {
			t.Fatalf("loading lane %d changed word %d in other lanes: %016x -> %016x", lane, i, before[i], x)
		}
	}
}

// stream runs a random access stream with a compaction and one-lane loads
// in the middle of it.
func (f *ramFixture) stream(t testing.TB, rng *rand.Rand, live, nAddrs, nVals, writers int) {
	t.Helper()
	img := make([]uint16, 1<<ramAddrBits)
	for a := range img {
		img[a] = uint16(rng.Uint32()) & (1<<uint(f.mem.RAM.dataBits) - 1)
	}
	f.mem.RAM.LaneImage(0) // see the end of cycle
	FillRAM(f.mem.RAM, img)
	for l := range f.image {
		copy(f.image[l], img)
	}
	for i := 0; i < 4; i++ {
		f.cycle(t, rng, nAddrs, nVals, writers)
	}
	if live < f.m.LiveLanes() {
		f.compact(rng, live)
	}
	for i := 0; i < 4; i++ {
		f.cycle(t, rng, min(nAddrs, live), nVals, writers)
		f.loadLane(t, rng, rng.Intn(live))
	}
	f.cycle(t, rng, 1, 1, writersAll) // the golden store: one cluster, one value
	f.cycle(t, rng, min(nAddrs, live), nVals, writersSome)
}

// TestAccessRAMMatchesPrivateMemories: AccessRAM is one private array per
// lane — read data, image and digest of every live lane, every cycle — at
// every width, both data widths, live counts that are not multiples of 64,
// one to 256 distinct addresses and every writer mix.
func TestAccessRAMMatchesPrivateMemories(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for w := 1; w <= 4; w++ {
		for _, dataBits := range []int{8, 16} {
			for _, live := range []int{64 * w, 64*w - 1, 64*(w-1) + 1, 64*(w-1) + 37} {
				for _, nAddrs := range []int{1, 4, 30, 256} {
					for writers := writersNone; writers <= writersAll; writers++ {
						newRAMFixture(t, w, dataBits).stream(t, rng, live, min(nAddrs, 64*w), 1+rng.Intn(5), writers)
					}
				}
			}
		}
	}
}

// TestLaneMemoryRefusesReadInCone: Settle evaluates the environment's cone
// after the environment, so a core whose write data depends on the read
// data would store a stale value. NewLaneMemory refuses it, naming the
// wire, and leaves the machine unsplit; the same port with write data
// that does not depend on the read data is accepted and split.
func TestLaneMemoryRefusesReadInCone(t *testing.T) {
	for _, loop := range []bool{true, false} {
		b := netlist.NewBuilder("loop")
		bus := func(n int) (ws []netlist.WireID) {
			for i := 0; i < n; i++ {
				ws = append(ws, b.Input(""))
			}
			return ws
		}
		p := MemoryPorts{Addr: bus(ramAddrBits), WE: b.Input(""), RData: bus(8)}
		for i, r := range p.RData {
			src := r
			if !loop {
				src = p.Addr[i]
			}
			p.WData = append(p.WData, b.GateNamed(fmt.Sprintf("wdata%d", i), cell.INV, src))
			b.MarkOutput(p.WData[i])
		}
		m, err := NewMachineW(b.MustNetlist(), 2)
		if err != nil {
			t.Fatal(err)
		}
		_, err = NewLaneMemory(m, p, nil)
		switch {
		case loop && (err == nil || !strings.Contains(err.Error(), "wdata0")):
			t.Fatalf("write data fed by read data: error %v, want one naming wdata0", err)
		case loop && (m.Shape().ConeOps != 0 || len(m.main.ops) != len(m.ops)):
			t.Fatalf("a refused machine is left split: cone %d, main %d of %d gates", m.Shape().ConeOps, len(m.main.ops), len(m.ops))
		case !loop && err != nil:
			t.Fatalf("write data fed by the address: %v", err)
		case !loop && (m.Shape().ConeOps != 0 || len(m.main.ops) != 8):
			t.Fatalf("no gate reads the read data, yet the cone holds %d and the rest %d gates", m.Shape().ConeOps, len(m.main.ops))
		}
	}
}

// FuzzLaneRAM fuzzes the same equivalence over width, data width, live
// count, address and store-value spread and writer mix.
func FuzzLaneRAM(f *testing.F) {
	f.Add(uint8(3), true, uint8(172), uint8(13), uint8(3), uint8(1), uint64(0xDEADBEEFCAFEF00D))
	f.Add(uint8(0), false, uint8(63), uint8(0), uint8(0), uint8(2), uint64(1))
	f.Add(uint8(3), false, uint8(255), uint8(255), uint8(255), uint8(1), ^uint64(0))
	f.Add(uint8(2), true, uint8(129), uint8(40), uint8(0), uint8(0), uint64(1<<63))
	f.Fuzz(func(t *testing.T, wRaw uint8, wide bool, liveRaw, addrsRaw, valsRaw, writersRaw uint8, seed uint64) {
		w := int(wRaw)%4 + 1
		dataBits := 8
		if wide {
			dataBits = 16
		}
		live := int(liveRaw)%(64*w) + 1
		rng := rand.New(rand.NewSource(int64(seed)))
		newRAMFixture(t, w, dataBits).stream(t, rng, live, int(addrsRaw)%(64*w)+1, int(valsRaw)+1, int(writersRaw)%3)
	})
}
