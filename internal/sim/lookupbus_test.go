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

// denseLookup is the path LookupBus replaces, and the one its callers run
// when it declines: gather, per-lane lookup, scatter.
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
// the dense path produces (from a copy of the same planes). It returns
// what LookupBus returned; after a false the dense path must still work on
// the planes LookupBus left behind.
func checkLookup(t testing.TB, m *MachineW, src, dst []netlist.WireID, rom []uint16) bool {
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

	ok := m.LookupBus(src, dst, rom)
	srcAfter := make([]uint16, m.NumLanes())
	m.GatherLanes(src, srcAfter)
	for l := 0; l < m.ActiveLanes(); l++ {
		if srcAfter[l] != srcBefore[l] {
			t.Fatalf("lane %d: LookupBus changed the address bus %04x -> %04x", l, srcBefore[l], srcAfter[l])
		}
	}
	if !ok {
		denseLookup(m, src, dst, rom)
	}
	mask := uint64(1)<<uint(len(dst)) - 1
	for l := 0; l < m.ActiveLanes(); l++ {
		got, want := m.ReadBusLane(dst, l), ref.ReadBusLane(dst, l)&mask
		if l >= m.LiveLanes() {
			if ok && got != 0 {
				t.Fatalf("dead lane %d received %04x", l, got)
			}
			continue
		}
		if got != want {
			t.Fatalf("W=%d ag=%d live=%d served=%v lane %d (addr %04x): data %04x, dense path %04x",
				m.W, m.ag, m.live, ok, l, srcBefore[l], got, want)
		}
	}
	return ok
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
// multiples of 64, cluster counts up to the limit, addresses beyond the
// ROM, and data buses narrower than the ROM word.
func TestLookupBusMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	rom := randomROM(rng, 300)
	for w := 1; w <= 4; w++ {
		for _, dataBits := range []int{16, 11} {
			for _, live := range []int{64 * w, 64*w - 1, 64*(w-1) + 1, 64*(w-1) + 37} {
				for _, k := range []int{1, 2, 13, lookupClusterLimit} {
					m, src, dst := busMachine(t, w, 16, dataBits)
					if live < 64*w {
						m.CompactLanes(firstLanes(live))
					}
					pool := distinctAddrs(rng, k, 0, len(rom)*3/2)
					scatterClusters(m, src, dst, rng, pool, func(int) int { return rng.Intn(k) })
					// Dead lanes of the last group hold addresses of their own:
					// they must not be counted as clusters.
					for l := live; l < m.ActiveLanes(); l++ {
						for i, wire := range src {
							g, bit := l>>6, uint64(1)<<(uint(l)&63)
							if rng.Intn(2) == 0 || i == 15 {
								m.SetLaneWord(wire, g, m.LaneWord(wire, g)|bit)
							}
						}
					}
					if !checkLookup(t, m, src, dst, rom) {
						t.Fatalf("W=%d live=%d: %d clusters not served in the plane domain", w, live, k)
					}
				}
			}
		}
	}
}

// TestLookupBusClusterLimit: exactly the limit of in-ROM clusters is served,
// whatever runs beyond the ROM; one more falls
// back — leaving the dense path a clean slate — and the following
// lookupBackoff calls decline without probing, even a one-cluster bus,
// until Reset, LoadState or CompactLanes bring in a new lane population.
func TestLookupBusClusterLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	rom := randomROM(rng, 512)
	m, src, dst := busMachine(t, 4, 16, 16)
	pool := distinctAddrs(rng, lookupClusterLimit+1, 0, len(rom))
	roundRobin := func(k int) func(int) int { return func(l int) int { return l % k } }

	// Odd lanes have run away, each to an address of its own beyond the
	// ROM; the even ones sit on exactly the limit of addresses inside it.
	tails := distinctAddrs(rng, m.NumLanes()/2, len(rom), 1<<16)
	mixed := append(append([]uint16{}, pool[:lookupClusterLimit]...), tails...)
	scatterClusters(m, src, dst, rng, mixed, func(l int) int {
		if l%2 == 1 {
			return lookupClusterLimit + l/2
		}
		return l / 2 % lookupClusterLimit
	})
	if got := romClusters(m, src, rom); got != lookupClusterLimit {
		t.Fatalf("fixture has %d in-ROM clusters, want %d", got, lookupClusterLimit)
	}
	if !checkLookup(t, m, src, dst, rom) {
		t.Fatalf("%d clusters declined", lookupClusterLimit)
	}
	scatterClusters(m, src, dst, rng, pool, roundRobin(lookupClusterLimit+1))
	if checkLookup(t, m, src, dst, rom) {
		t.Fatalf("%d clusters served in the plane domain", lookupClusterLimit+1)
	}
	scatterClusters(m, src, dst, rng, pool, roundRobin(1))
	for i := 0; i < lookupBackoff; i++ {
		if checkLookup(t, m, src, dst, rom) {
			t.Fatalf("call %d after a fallback probed again", i+1)
		}
	}
	if !checkLookup(t, m, src, dst, rom) {
		t.Fatal("one cluster declined after the back-off ran out")
	}

	// CompactLanes last: the other two restore the full width it needs.
	for _, renew := range []struct {
		name string
		f    func()
	}{
		{"Reset", m.Reset},
		{"LoadState", func() { m.LoadState(nil) }},
		{"CompactLanes", func() { m.CompactLanes([]uint16{0, 1, 2, 70, 200}) }},
	} {
		scatterClusters(m, src, dst, rng, pool, roundRobin(lookupClusterLimit+1))
		if m.LookupBus(src, dst, rom) {
			t.Fatalf("%s: over-limit bus served", renew.name)
		}
		renew.f()
		scatterClusters(m, src, dst, rng, pool, roundRobin(2))
		if !checkLookup(t, m, src, dst, rom) {
			t.Fatalf("back-off survived %s", renew.name)
		}
	}
}

// TestLookupBusROMBounds: lanes beyond the ROM never form a cluster — a
// whole device of them, each at its own address, is served — but the
// addresses between a ROM that is no power of two and the next one do,
// reading 0; a ROM of one word or none serves anything.
func TestLookupBusROMBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m, src, dst := busMachine(t, 4, 16, 16)
	perLane := func(l int) int { return l }

	rom := randomROM(rng, 300)
	scatterClusters(m, src, dst, rng, distinctAddrs(rng, m.NumLanes(), 512, 1<<16), perLane)
	if got := romClusters(m, src, rom); got != 0 {
		t.Fatalf("fixture has %d in-ROM clusters, want 0", got)
	}
	if !checkLookup(t, m, src, dst, rom) {
		t.Fatal("a device of runaway lanes declined")
	}
	gap := distinctAddrs(rng, lookupClusterLimit+1, len(rom), 512)
	scatterClusters(m, src, dst, rng, gap[:lookupClusterLimit], func(l int) int { return l % lookupClusterLimit })
	if !checkLookup(t, m, src, dst, rom) {
		t.Fatalf("%d clusters between the ROM and its power of two declined", lookupClusterLimit)
	}
	scatterClusters(m, src, dst, rng, gap, func(l int) int { return l % len(gap) })
	if checkLookup(t, m, src, dst, rom) {
		t.Fatalf("%d clusters between the ROM and its power of two served", len(gap))
	}

	for n := 0; n <= 1; n++ {
		m.Reset()
		scatterClusters(m, src, dst, rng, distinctAddrs(rng, m.NumLanes(), 0, 1<<16), perLane)
		for _, wire := range src {
			m.SetLaneWord(wire, 2, m.LaneWord(wire, 2)&^0xFF00FF) // some lanes at address 0
		}
		if !checkLookup(t, m, src, dst, randomROM(rng, n)) {
			t.Fatalf("ROM of %d words declined", n)
		}
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
		if !checkLookup(t, m, src, dst, rom) {
			t.Fatalf("wave of %d lanes over %d addresses not served", n, len(pool))
		}
		if compacted && n < m.ActiveLanes() {
			load(m, n)
			if m.LiveLanes() != n+1 || !checkLookup(t, m, src, dst, rom) {
				t.Fatalf("lane %d revived after compaction not served (%d live)", n, m.LiveLanes())
			}
		}
	}
}

// FuzzLookupBus fuzzes the clustered lookup against the dense path over
// width, live-lane count, cluster count (on both sides of the limit), ROM
// length (0, 1 and 2 words included), data bus width and plane contents.
func FuzzLookupBus(f *testing.F) {
	f.Add(uint8(3), uint8(172), uint8(13), uint8(15), uint64(0xDEADBEEFCAFEF00D))
	f.Add(uint8(0), uint8(63), uint8(0), uint8(0), uint64(1))
	f.Add(uint8(3), uint8(255), uint8(lookupClusterLimit), uint8(15), ^uint64(0))
	f.Add(uint8(1), uint8(100), uint8(lookupClusterLimit-1), uint8(7), uint64(1<<63))
	f.Add(uint8(2), uint8(0), uint8(200), uint8(3), uint64(0x0123456789ABCDEF))
	f.Fuzz(func(t *testing.T, wRaw, liveRaw, clustersRaw, dataRaw uint8, seed uint64) {
		w := int(wRaw)%4 + 1
		live := int(liveRaw)%(64*w) + 1
		k := int(clustersRaw)%(2*lookupClusterLimit) + 1
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
		pool := distinctAddrs(rng, k, 0, max(64, len(rom)*3/2))
		scatterClusters(m, src, dst, rng, pool, func(int) int { return rng.Intn(k) })
		clusters := romClusters(m, src, rom)
		if ok := checkLookup(t, m, src, dst, rom); ok != (clusters <= lookupClusterLimit) {
			t.Fatalf("W=%d live=%d: %d in-ROM clusters, served=%v (limit %d)", w, live, clusters, ok, lookupClusterLimit)
		}
	})
}
