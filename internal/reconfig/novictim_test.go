package reconfig

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"mrts/internal/arch"
	"mrts/internal/ise"
)

// everyFifth corrupts configuration attempts by completion time only, so
// two controllers driven through the same operations see the same
// corruptions.
type everyFifth struct{}

func (everyFifth) Corrupted(_ arch.FabricKind, at arch.Cycles) bool { return at%5 == 2 }

// TestNoVictimFlagIsExact drives random operation sequences through a
// controller and through a reference that ignores its no-victim flags, so
// every eviction scan really runs. Skipping a scan must never be
// observable: results, counters, version, configured paths, free
// capacity, invalidations and monoCG ready times stay identical after
// every step.
func TestNoVictimFlagIsExact(t *testing.T) {
	dps := make([]ise.DataPath, 10)
	for i := range dps {
		if i%2 == 0 {
			dps[i] = ise.DataPath{ID: ise.DataPathID(fmt.Sprintf("fg%d", i)), Kind: arch.FG, PRCs: 1 + i%4/2}
		} else {
			dps[i] = ise.DataPath{ID: ise.DataPathID(fmt.Sprintf("cg%d", i)), Kind: arch.CG, CGs: 1 + i%4/3}
		}
	}
	monos := make([]*ise.Kernel, 3)
	for i := range monos {
		monos[i] = &ise.Kernel{
			ID: ise.KernelID(fmt.Sprintf("m%d", i)), RISCLatency: 100,
			MonoCG: ise.MonoCGExt{Latency: 50, Instructions: 4 + i},
		}
	}
	selection := func(r *rand.Rand) []*ise.ISE {
		sel := make([]*ise.ISE, r.Intn(3)+1)
		for i := range sel {
			path := make([]ise.DataPath, r.Intn(2)+1)
			lats := make([]arch.Cycles, len(path))
			for j := range path {
				path[j] = dps[r.Intn(len(dps))]
				lats[j] = arch.Cycles(40 - j)
			}
			sel[i] = &ise.ISE{ID: fmt.Sprintf("e%d", i), Kernel: "k", DataPaths: path, Latencies: lats}
		}
		return sel
	}
	kinds := []arch.FabricKind{arch.FG, arch.CG}

	skipped := 0
	for seq := int64(0); seq < 300; seq++ {
		cfg := arch.Config{NPRC: 2 + int(seq%3), NCG: 2 + int(seq/3%3)}
		c, err := NewController(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ref, _ := NewController(cfg)
		ref.scanAlways = true
		faulty := seq%4 == 0
		if faulty {
			c.SetVerifier(everyFifth{})
			ref.SetVerifier(everyFifth{})
		}
		r := rand.New(rand.NewSource(seq))
		now := arch.Cycles(0)
		for step := 0; step < 200; step++ {
			if c.noVictim != [2]bool{} {
				skipped++
			}
			now += arch.Cycles(r.Intn(4)) * 700
			var got, want any
			op := r.Intn(13)
			switch op {
			case 0, 1: // Request
				d := dps[r.Intn(len(dps))]
				g1, g2 := c.Request(d, now)
				w1, w2 := ref.Request(d, now)
				got, want = fmt.Sprint(g1, g2), fmt.Sprint(w1, w2)
			case 2: // CommitSelection
				sel := selection(r)
				g1, g2 := c.CommitSelection(sel, now)
				w1, w2 := ref.CommitSelection(sel, now)
				got, want = fmt.Sprint(g1, g2), fmt.Sprint(w1, w2)
			case 3: // CommitSelectionSafe
				sel := selection(r)
				got, want = c.CommitSelectionSafe(sel, now), ref.CommitSelectionSafe(sel, now)
			case 4, 5: // AcquireMonoCG
				m := monos[r.Intn(len(monos))]
				g1, g2 := c.AcquireMonoCG(m, now)
				w1, w2 := ref.AcquireMonoCG(m, now)
				got, want = fmt.Sprint(g1, g2), fmt.Sprint(w1, w2)
			case 6: // ReleaseMonoCG
				id := monos[r.Intn(len(monos))].ID
				c.ReleaseMonoCG(id)
				ref.ReleaseMonoCG(id)
			case 7: // Reserve
				prc, cg := r.Intn(cfg.NPRC+1), r.Intn(cfg.NCG+1)
				got, want = fmt.Sprint(c.Reserve(prc, cg)), fmt.Sprint(ref.Reserve(prc, cg))
			case 8: // FailUnit / RecoverUnit
				k := kinds[r.Intn(2)]
				if r.Intn(3) == 0 {
					got, want = c.RecoverUnit(k), ref.RecoverUnit(k)
				} else {
					perm := r.Intn(2) == 0
					got, want = c.FailUnit(k, perm), ref.FailUnit(k, perm)
				}
			case 9: // Repartition
				k := kinds[r.Intn(2)]
				total := cfg.NPRC
				if k == arch.CG {
					total = cfg.NCG
				}
				capacity := r.Intn(total + 1)
				retained := r.Intn(capacity + 1)
				g1, g2, g3 := c.Repartition(k, capacity, retained, now)
				w1, w2, w3 := ref.Repartition(k, capacity, retained, now)
				got, want = fmt.Sprint(g1, g2, g3), fmt.Sprint(w1, w2, w3)
			case 10: // EvictAll
				c.EvictAll()
				ref.EvictAll()
			case 11: // Reset (rare)
				if r.Intn(8) == 0 {
					c.Reset()
					ref.Reset()
					if faulty {
						c.SetVerifier(everyFifth{})
						ref.SetVerifier(everyFifth{})
					}
				}
			case 12: // Advance
				c.Advance(now)
				ref.Advance(now)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seq %d step %d op %d: result %v, reference %v", seq, step, op, got, want)
			}
			if diff := compareControllers(c, ref, monos); diff != "" {
				t.Fatalf("seq %d step %d op %d: %s", seq, step, op, diff)
			}
		}
	}
	if skipped == 0 {
		t.Fatal("no step ran with a no-victim flag set: the test exercises nothing")
	}
}

func compareControllers(c, ref *Controller, monos []*ise.Kernel) string {
	if c.Stats() != ref.Stats() {
		return fmt.Sprintf("stats %+v, reference %+v", c.Stats(), ref.Stats())
	}
	if c.Version() != ref.Version() {
		return fmt.Sprintf("version %d, reference %d", c.Version(), ref.Version())
	}
	if g, w := c.ConfiguredPaths(), ref.ConfiguredPaths(); !reflect.DeepEqual(g, w) {
		return fmt.Sprintf("configured %v, reference %v", g, w)
	}
	if c.FreePRC() != ref.FreePRC() || c.FreeCG() != ref.FreeCG() {
		return fmt.Sprintf("free %d/%d, reference %d/%d", c.FreePRC(), c.FreeCG(), ref.FreePRC(), ref.FreeCG())
	}
	if g, w := c.TakeInvalidated(), ref.TakeInvalidated(); !reflect.DeepEqual(g, w) {
		return fmt.Sprintf("invalidated %v, reference %v", g, w)
	}
	for _, m := range monos {
		g1, g2 := c.MonoCGReady(m.ID)
		w1, w2 := ref.MonoCGReady(m.ID)
		if g1 != w1 || g2 != w2 {
			return fmt.Sprintf("monoCG %s ready %d/%v, reference %d/%v", m.ID, g1, g2, w1, w2)
		}
	}
	return ""
}
