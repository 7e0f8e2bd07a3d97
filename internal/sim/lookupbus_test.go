package sim

import (
	"math/rand"
	"testing"

	"repro/internal/netlist"
)

// busMachine builds a width-w machine that is nothing but an address bus
// and a data bus of primary inputs.
func busMachine(t testing.TB, w, addrBits, dataBits int) (m *MachineW, src, dst []netlist.WireID) {
	t.Helper()
	b := netlist.NewBuilder("lookup")
	for i := 0; i < addrBits; i++ {
		src = append(src, b.Input(""))
	}
	for i := 0; i < dataBits; i++ {
		dst = append(dst, b.Input(""))
	}
	b.MarkOutput(dst[0])
	m, err := NewMachineW(b.MustNetlist(), w)
	if err != nil {
		t.Fatal(err)
	}
	return m, src, dst
}

// denseLookup is the lane-major reference LookupBus is checked against:
// gather, per-lane lookup, scatter.
func denseLookup(m *MachineW, src, dst []netlist.WireID, rom []uint16) {
	addr := make([]uint16, m.NumLanes())
	data := make([]uint16, m.NumLanes())
	m.GatherLanes(src, addr)
	for l := 0; l < m.ActiveLanes(); l++ {
		if int(addr[l]) < len(rom) {
			data[l] = rom[addr[l]]
		}
	}
	m.ScatterLanes(dst, data)
}

// checkLookup calls LookupBus and demands, on every live lane, the value
// the dense path produces (from a copy of the same planes), 0 on every dead
// one, and an unchanged address bus.
func checkLookup(t testing.TB, m *MachineW, src, dst []netlist.WireID, rom []uint16) {
	t.Helper()
	ref, err := NewMachineW(m.NL, m.W)
	if err != nil {
		t.Fatal(err)
	}
	copy(ref.values, m.values)
	ref.ag, ref.live = m.ag, m.live
	denseLookup(ref, src, dst, rom)
	srcBefore := make([]uint16, m.NumLanes())
	m.GatherLanes(src, srcBefore)

	m.LookupBus(src, dst, rom)
	srcAfter := make([]uint16, m.NumLanes())
	m.GatherLanes(src, srcAfter)
	mask := uint64(1)<<uint(len(dst)) - 1
	for l := 0; l < m.ActiveLanes(); l++ {
		if srcAfter[l] != srcBefore[l] {
			t.Fatalf("lane %d: LookupBus changed the address bus %04x -> %04x", l, srcBefore[l], srcAfter[l])
		}
		got, want := m.ReadBusLane(dst, l), ref.ReadBusLane(dst, l)&mask
		if l >= m.LiveLanes() {
			want = 0
		}
		if got != want {
			t.Fatalf("W=%d ag=%d live=%d lane %d (addr %04x): data %04x, dense path %04x",
				m.W, m.ag, m.live, l, srcBefore[l], got, want)
		}
	}
}

// scatterClusters gives live lane l the address pool[pick(l)] and fills the
// data bus with noise, so stale data cannot pass for a served fetch.
func scatterClusters(m *MachineW, src, dst []netlist.WireID, rng *rand.Rand, pool []uint16, pick func(l int) int) {
	vals := make([]uint16, m.NumLanes())
	for l := range vals {
		vals[l] = pool[pick(l)]
	}
	m.ScatterLanes(src, vals)
	for _, wire := range dst {
		for g := 0; g < m.ActiveGroups(); g++ {
			m.SetLaneWord(wire, g, rng.Uint64())
		}
	}
}

// firstLanes lists lanes 0..n-1, the CompactLanes argument that keeps the
// low n lanes where they are.
func firstLanes(n int) []uint16 {
	lanes := make([]uint16, n)
	for i := range lanes {
		lanes[i] = uint16(i)
	}
	return lanes
}

func randomROM(rng *rand.Rand, n int) []uint16 {
	rom := make([]uint16, n)
	for i := range rom {
		rom[i] = uint16(rng.Uint32())
	}
	return rom
}

// distinctAddrs returns n different addresses in [lo, hi).
func distinctAddrs(rng *rand.Rand, n, lo, hi int) []uint16 {
	seen := map[uint16]bool{}
	var pool []uint16
	for len(pool) < n {
		a := uint16(lo + rng.Intn(hi-lo))
		if !seen[a] {
			seen[a] = true
			pool = append(pool, a)
		}
	}
	return pool
}

// romClusters is the number of clusters LookupBus has to form: the distinct
// addresses among the live lanes below the power of two that covers the
// ROM. Lanes beyond it are served without one.
func romClusters(m *MachineW, src []netlist.WireID, rom []uint16) int {
	span := 1
	for span < len(rom) {
		span <<= 1
	}
	present := map[uint64]bool{}
	for l := 0; l < m.LiveLanes(); l++ {
		if a := m.ReadBusLane(src, l); a < uint64(span) {
			present[a] = true
		}
	}
	return len(present)
}

// TestLookupBusMatchesDense: every group count, live counts that are not
// multiples of 64, random and exact cluster counts up to one per live lane,
// addresses beyond the ROM, and data buses narrower than the ROM word.
func TestLookupBusMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	rom := randomROM(rng, 300)
	for w := 1; w <= 4; w++ {
		for _, dataBits := range []int{16, 11} {
			for _, live := range []int{64 * w, 64*w - 1, 64*(w-1) + 1, 64*(w-1) + 37} {
				// Random picks over a small pool; round robin over 21, 64 and
				// one address per live lane, all of them below the ROM's
				// power of two, so the count of clusters is exact.
				for _, k := range []int{1, 2, 13, 20} {
					m, src, dst := busMachine(t, w, 16, dataBits)
					lookupFixture(m, src, dst, rng, live, distinctAddrs(rng, k, 0, len(rom)*3/2), func(int) int { return rng.Intn(k) })
					checkLookup(t, m, src, dst, rom)
				}
				for _, k := range []int{21, 64, live} {
					m, src, dst := busMachine(t, w, 16, dataBits)
					lookupFixture(m, src, dst, rng, live, distinctAddrs(rng, k, 0, 512), func(l int) int { return l % k })
					if got, want := romClusters(m, src, rom), min(k, live); got != want {
						t.Fatalf("W=%d live=%d: fixture has %d in-ROM clusters, want %d", w, live, got, want)
					}
					checkLookup(t, m, src, dst, rom)
				}
			}
		}
	}
}

// lookupFixture compacts m to live lanes, gives live lane l the address
// pool[pick(l)] (scatterClusters) and dead lanes of the last group
// addresses of their own, which must not be counted as clusters.
func lookupFixture(m *MachineW, src, dst []netlist.WireID, rng *rand.Rand, live int, pool []uint16, pick func(int) int) {
	if live < m.NumLanes() {
		m.CompactLanes(firstLanes(live))
	}
	scatterClusters(m, src, dst, rng, pool, pick)
	for l := live; l < m.ActiveLanes(); l++ {
		for i, wire := range src {
			g, bit := l>>6, uint64(1)<<(uint(l)&63)
			if rng.Intn(2) == 0 || i == 15 {
				m.SetLaneWord(wire, g, m.LaneWord(wire, g)|bit)
			}
		}
	}
}

// TestLookupBusROMBounds: lanes beyond the ROM never form a cluster — a
// whole device of them, each at its own address, is served — but the
// addresses between a ROM that is no power of two and the next one do,
// reading 0, up to one cluster per lane; a ROM of one word or none serves
// anything.
func TestLookupBusROMBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	perLane := func(l int) int { return l }
	rom := randomROM(rng, 600)
	for w := 1; w <= 4; w++ {
		m, src, dst := busMachine(t, w, 16, 16)
		scatterClusters(m, src, dst, rng, distinctAddrs(rng, m.NumLanes(), 1024, 1<<16), perLane)
		if got := romClusters(m, src, rom); got != 0 {
			t.Fatalf("fixture has %d in-ROM clusters, want 0", got)
		}
		checkLookup(t, m, src, dst, rom)
		for _, k := range []int{20, 21, 64, m.NumLanes()} {
			gap := distinctAddrs(rng, k, len(rom), 1024)
			scatterClusters(m, src, dst, rng, gap, func(l int) int { return l % k })
			if got := romClusters(m, src, rom); got != k {
				t.Fatalf("W=%d: fixture has %d clusters between the ROM and its power of two, want %d", w, got, k)
			}
			checkLookup(t, m, src, dst, rom)
		}
	}

	m, src, dst := busMachine(t, 4, 16, 16)
	for n := 0; n <= 1; n++ {
		m.Reset()
		scatterClusters(m, src, dst, rng, distinctAddrs(rng, m.NumLanes(), 0, 1<<16), perLane)
		for _, wire := range src {
			m.SetLaneWord(wire, 2, m.LaneWord(wire, 2)&^0xFF00FF) // some lanes at address 0
		}
		checkLookup(t, m, src, dst, randomROM(rng, n))
	}
}

// TestLookupBusImportedWave: lanes are loaded one at a time by
// LoadStateLane (the scheduler's per-lane refill) into a Reset machine,
// which is then compacted; the loaded lanes carry their own addresses, the
// rest the reset state. A lane loaded after the compaction, just past the
// live ones, is served as well.
func TestLookupBusImportedWave(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	rom := randomROM(rng, 256)
	donor, src, dst := busMachine(t, 2, 16, 16)
	pool := distinctAddrs(rng, 9, 0, len(rom)*3/2)
	scatterClusters(donor, src, dst, rng, pool, func(int) int { return rng.Intn(len(pool)) })
	load := func(m *MachineW, lane int) {
		m.LoadStateLane(lane, nil, donor.InputStateLane(rng.Intn(donor.NumLanes())))
	}

	for _, n := range []int{5, 64, 100, 200, 256} {
		m, _, _ := busMachine(t, 4, 16, 16)
		m.Reset()
		for i := 0; i < n; i++ {
			load(m, i)
		}
		compacted := (n+63)/64 < m.W
		if compacted {
			m.CompactLanes(firstLanes(n))
		}
		checkLookup(t, m, src, dst, rom)
		if compacted && n < m.ActiveLanes() {
			load(m, n)
			if m.LiveLanes() != n+1 {
				t.Fatalf("lane %d revived after compaction: %d live", n, m.LiveLanes())
			}
			checkLookup(t, m, src, dst, rom)
		}
	}
}

// FuzzLookupBus fuzzes the clustered lookup against the dense path over
// width, live-lane count, cluster count (up to one per live lane, random or
// round robin), ROM length (0, 1 and 2 words included), data bus width and
// plane contents.
func FuzzLookupBus(f *testing.F) {
	f.Add(uint8(3), uint8(172), uint8(13), uint8(15), uint64(0xDEADBEEFCAFEF00D))
	f.Add(uint8(0), uint8(63), uint8(0), uint8(0), uint64(1))
	f.Add(uint8(3), uint8(255), uint8(20), uint8(15), ^uint64(0))
	f.Add(uint8(1), uint8(100), uint8(19), uint8(7), uint64(1<<63))
	f.Add(uint8(2), uint8(0), uint8(200), uint8(3), uint64(0x0123456789ABCDEF))
	f.Add(uint8(0), uint8(63), uint8(63), uint8(15), uint64(2))
	f.Add(uint8(3), uint8(255), uint8(255), uint8(15), uint64(6))
	f.Fuzz(func(t *testing.T, wRaw, liveRaw, clustersRaw, dataRaw uint8, seed uint64) {
		w := int(wRaw)%4 + 1
		live := int(liveRaw)%(64*w) + 1
		rng := rand.New(rand.NewSource(int64(seed)))
		romLen := 64 + rng.Intn(400)
		if rng.Intn(4) == 0 {
			romLen = rng.Intn(3)
		}
		rom := randomROM(rng, romLen)
		m, src, dst := busMachine(t, w, 16, int(dataRaw)%16+1)
		if (live+63)/64 < w || rng.Intn(2) == 0 {
			m.CompactLanes(firstLanes(live))
		} else {
			live = 64 * w
		}
		k := int(clustersRaw)%live + 1
		pool := distinctAddrs(rng, k, 0, max(2*k, 64, len(rom)*3/2))
		pick := func(l int) int { return l % k }
		if seed&2 == 0 {
			pick = func(int) int { return rng.Intn(k) }
		}
		scatterClusters(m, src, dst, rng, pool, pick)
		checkLookup(t, m, src, dst, rom)
	})
}
