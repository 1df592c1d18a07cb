package trace

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"testing"

	"mrts/internal/arch"
	"mrts/internal/ise"
)

// mergeOracle is the materialising merge the Merger replaced, kept
// verbatim as the reference schedule, except that it stops after limit
// events so loads with huge E stay checkable.
func mergeOracle(loads []KernelLoad, limit int) []Event {
	type cursor struct {
		load KernelLoad
		next int64
	}
	var total int64
	curs := make([]cursor, 0, len(loads))
	for _, l := range loads {
		if l.E <= 0 {
			continue
		}
		total += l.E
		curs = append(curs, cursor{load: l})
	}
	sort.Slice(curs, func(i, j int) bool { return curs[i].load.Kernel < curs[j].load.Kernel })
	events := make([]Event, 0, min(total, int64(limit)))
	for int64(len(events)) < total && len(events) < limit {
		best := -1
		var bestPos float64
		for i := range curs {
			c := &curs[i]
			if c.next >= c.load.E {
				continue
			}
			pos := (float64(c.next) + 0.5) / float64(c.load.E)
			if best < 0 || pos < bestPos {
				best, bestPos = i, pos
			}
		}
		c := &curs[best]
		events = append(events, Event{Kernel: c.load.Kernel, Gap: c.load.GapSW})
		c.next++
	}
	return events
}

// fuzzLoads decodes up to 12 loads from 5-byte records: kernel (one of 5
// IDs, so duplicates are common), E mode, E (int16) and gap. The oracle's
// sort.Slice orders equal kernel IDs by insertion sort — stably — only up
// to 12 cursors, hence the cap. E modes: 0 the raw int16 (zero and
// negative included), 1 2^53 plus it (float64 rounds neighbouring counts
// to the same value: exact position ties), 2 its magnitude times 2^20 and
// 3 times 3 (proportional counts: ties in the reals that float division
// may or may not preserve).
func fuzzLoads(data []byte) []KernelLoad {
	var loads []KernelLoad
	for ; len(data) >= 5 && len(loads) < 12; data = data[5:] {
		raw := int64(int16(binary.LittleEndian.Uint16(data[2:4])))
		e := raw
		switch data[1] % 4 {
		case 1:
			e = 1<<53 + raw
		case 2:
			e = int64(uint16(raw)) << 20
		case 3:
			e = int64(uint16(raw)) * 3
		}
		loads = append(loads, KernelLoad{
			Kernel: ise.KernelID(fmt.Sprintf("k%d", data[0]%5)),
			E:      e,
			GapSW:  arch.Cycles(data[4]),
		})
	}
	return loads
}

// FuzzMerge checks the Merger cursor and the Merge wrapper against the
// materialising oracle on arbitrary loads. The seed corpus lives in
// testdata/fuzz/FuzzMerge.
func FuzzMerge(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		const limit = 4096
		loads := fuzzLoads(data)
		want := mergeOracle(loads, limit)
		var got []Event
		var m Merger
		m.Reset(loads)
		for len(got) < limit {
			i, ok := m.Next()
			if !ok {
				break
			}
			got = append(got, Event{Kernel: loads[i].Kernel, Gap: loads[i].GapSW})
		}
		if !slices.Equal(got, want) {
			t.Fatalf("loads %+v: cursor %v, oracle %v", loads, got, want)
		}
		if len(got) < limit {
			if _, ok := m.Next(); ok {
				t.Fatalf("loads %+v: cursor continues after exhaustion", loads)
			}
			if merged := Merge(loads); !slices.Equal(merged, want) {
				t.Fatalf("loads %+v: Merge %v, oracle %v", loads, merged, want)
			}
		}
	})
}

// TestMergerReuse drains, partially drains and re-drains one Merger over
// different loads: each Reset starts a fresh schedule, and once warmed a
// Reset plus a full drain allocates nothing.
func TestMergerReuse(t *testing.T) {
	a := []KernelLoad{{Kernel: "x", E: 5, GapSW: 1}, {Kernel: "y", E: 3, GapSW: 2}}
	b := []KernelLoad{{Kernel: "z", E: 4, GapSW: 3}, {Kernel: "a", E: 0}, {Kernel: "m", E: 2, GapSW: 4}}
	drain := func(m *Merger, loads []KernelLoad) []Event {
		var out []Event
		m.Reset(loads)
		for {
			i, ok := m.Next()
			if !ok {
				return out
			}
			out = append(out, Event{Kernel: loads[i].Kernel, Gap: loads[i].GapSW})
		}
	}
	var m Merger
	m.Reset(a)
	m.Next()
	for _, loads := range [][]KernelLoad{b, a, b} {
		if got, want := drain(&m, loads), Merge(loads); !slices.Equal(got, want) {
			t.Fatalf("reused merger gave %v, want %v", got, want)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		m.Reset(a)
		for {
			if _, ok := m.Next(); !ok {
				break
			}
		}
	})
	if allocs != 0 {
		t.Errorf("warmed Reset+drain allocates %.1f times, want 0", allocs)
	}
}

// TestMergerDuplicateKernelsKeepLoadOrder pins the tie order beyond the
// oracle's 12-cursor range: equal kernel IDs keep load order, so equal
// positions go to the earlier load.
func TestMergerDuplicateKernelsKeepLoadOrder(t *testing.T) {
	var loads []KernelLoad
	for i := 0; i < 16; i++ {
		loads = append(loads, KernelLoad{Kernel: ise.KernelID(fmt.Sprintf("k%d", i%2)), E: 1, GapSW: arch.Cycles(i)})
	}
	var gaps []arch.Cycles
	for _, ev := range Merge(loads) {
		gaps = append(gaps, ev.Gap)
	}
	want := []arch.Cycles{0, 2, 4, 6, 8, 10, 12, 14, 1, 3, 5, 7, 9, 11, 13, 15}
	if !slices.Equal(gaps, want) {
		t.Errorf("gap order %v, want %v", gaps, want)
	}
}
