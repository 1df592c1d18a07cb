// Package trace defines the workload traces the architecture simulator
// replays: per functional-block iteration, the kernels that actually
// execute, how often, and the software cycles around them. A trace also
// carries the static profile triggers that the application programmer would
// embed in the binary as trigger instructions (paper Section 4); at run
// time the MPU refines those forecasts iteration by iteration.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"

	"mrts/internal/arch"
	"mrts/internal/ise"
)

// KernelLoad describes one kernel's activity in one block iteration.
type KernelLoad struct {
	Kernel ise.KernelID `json:"kernel"`
	// E is the number of executions in this iteration (ground truth).
	E int64 `json:"e"`
	// GapSW is the pure-software time preceding each execution (loop
	// control, address generation, data marshalling on the core).
	GapSW arch.Cycles `json:"gap_sw"`
}

// Iteration is one dynamic instance of a functional block (e.g. the
// deblocking filter of one video frame).
type Iteration struct {
	// Block is the functional-block ID.
	Block string `json:"block"`
	// Seq orders iterations of the same block (e.g. the frame number).
	Seq int `json:"seq"`
	// Phase discriminates trigger instructions of the same block that
	// sit on different program paths — e.g. the I-frame and P-frame
	// loops of a video encoder carry distinct trigger instructions with
	// separately profiled forecasts. Empty means the block has a single
	// trigger instruction.
	Phase string `json:"phase,omitempty"`
	// Prologue is the software time between the trigger instruction and
	// the first kernel-related code of the block.
	Prologue arch.Cycles `json:"prologue"`
	// Loads lists the kernels that execute in this iteration.
	Loads []KernelLoad `json:"loads"`
}

// TotalExecutions sums the execution counts of the iteration.
func (it *Iteration) TotalExecutions() int64 {
	var n int64
	for _, l := range it.Loads {
		n += l.E
	}
	return n
}

// Trace is a full application run.
type Trace struct {
	// App names the application the trace belongs to.
	App string `json:"app"`
	// Profile maps a profile key — see ProfileKey — to the static
	// trigger instruction the programmer embedded for that program path
	// (obtained from offline profiling).
	Profile map[string][]ise.Trigger `json:"profile"`
	// Iterations is the dynamic block sequence in program order.
	Iterations []Iteration `json:"iterations"`
}

// Validate checks the trace against an application.
func (tr *Trace) Validate(app *ise.Application) error {
	for i := range tr.Iterations {
		it := &tr.Iterations[i]
		blk := app.Block(it.Block)
		if blk == nil {
			return fmt.Errorf("trace: iteration %d references unknown block %q", i, it.Block)
		}
		for _, l := range it.Loads {
			if blk.Kernel(l.Kernel) == nil {
				return fmt.Errorf("trace: iteration %d (block %q) references unknown kernel %q", i, it.Block, l.Kernel)
			}
			if l.E < 0 || l.GapSW < 0 {
				return fmt.Errorf("trace: iteration %d kernel %q has negative load", i, l.Kernel)
			}
		}
	}
	for id, ts := range tr.Profile {
		block := id
		if i := strings.IndexByte(id, '#'); i >= 0 {
			block = id[:i]
		}
		if app.Block(block) == nil {
			return fmt.Errorf("trace: profile references unknown block %q", id)
		}
		for _, t := range ts {
			if err := t.Validate(); err != nil {
				return err
			}
		}
	}
	return nil
}

// Event is one kernel execution slot in the merged single-core schedule of
// a block iteration.
type Event struct {
	Kernel ise.KernelID
	// Gap is the software time preceding this execution.
	Gap arch.Cycles
}

// Merge interleaves the kernel loads of an iteration into the single-core
// execution order, materialised as one Event per execution. It drains a
// Merger; replay loops walk the Merger directly and allocate nothing.
func Merge(loads []KernelLoad) []Event {
	var total int64
	for _, l := range loads {
		if l.E > 0 {
			total += l.E
		}
	}
	events := make([]Event, 0, total)
	var m Merger
	m.Reset(loads)
	for {
		i, ok := m.Next()
		if !ok {
			return events
		}
		events = append(events, Event{Kernel: loads[i].Kernel, Gap: loads[i].GapSW})
	}
}

// Merger is a reusable cursor over the single-core execution order of an
// iteration's kernel loads. Executions of different kernels are merged by
// fractional position ((j+0.5)/E), modelling the loop structure of real
// functional blocks where kernels alternate per macroblock; ties break by
// kernel ID (then load order) so the schedule is deterministic. After the
// first Reset of a given size, Reset and Next allocate nothing.
type Merger struct {
	curs []mergeCursor
}

// mergeCursor walks one load: next executions have been emitted, and pos
// caches the fractional position of the next one (+Inf once exhausted), so
// each step costs one division.
type mergeCursor struct {
	load int
	next int64
	e    int64
	pos  float64
}

func mergePos(next, e int64) float64 { return (float64(next) + 0.5) / float64(e) }

// Reset positions the cursor before the first execution of loads. Loads
// with E <= 0 never execute. The Merger keeps no reference to loads.
func (m *Merger) Reset(loads []KernelLoad) {
	if cap(m.curs) < len(loads) {
		m.curs = make([]mergeCursor, 0, len(loads))
	}
	m.curs = m.curs[:0]
	for i, l := range loads {
		if l.E <= 0 {
			continue
		}
		// Insertion by kernel ID; equal IDs keep load order.
		j := len(m.curs)
		m.curs = append(m.curs, mergeCursor{})
		for ; j > 0 && loads[m.curs[j-1].load].Kernel > l.Kernel; j-- {
			m.curs[j] = m.curs[j-1]
		}
		m.curs[j] = mergeCursor{load: i, e: l.E, pos: mergePos(0, l.E)}
	}
}

// Next returns the index (into the loads passed to Reset) of the load
// whose kernel executes next, or ok == false once every execution has been
// emitted.
func (m *Merger) Next() (load int, ok bool) {
	best := -1
	bestPos := math.Inf(1)
	for i := range m.curs {
		if p := m.curs[i].pos; p < bestPos {
			best, bestPos = i, p
		}
	}
	if best < 0 {
		return 0, false
	}
	c := &m.curs[best]
	c.next++
	if c.next < c.e {
		c.pos = mergePos(c.next, c.e)
	} else {
		c.pos = math.Inf(1)
	}
	return c.load, true
}

// KernelSlots appends to dst, for every load, the index of the first load
// naming the same kernel: loads that repeat a kernel share its slot. Replay
// loops keep per-kernel state in a slice indexed by slot instead of a map.
func KernelSlots(loads []KernelLoad, dst []int) []int {
	for i, l := range loads {
		slot := i
		for j := 0; j < i; j++ {
			if loads[j].Kernel == l.Kernel {
				slot = j
				break
			}
		}
		dst = append(dst, slot)
	}
	return dst
}

// RISCTriggers computes the trigger tuple {K, e, tf, tb} of one iteration
// under RISC-mode timing: the wall-clock time to each kernel's first
// execution and the average wall-clock gap between consecutive executions
// when every execution takes the kernel's RISC latency. This is the offline
// profiling run that seeds the static trigger instructions.
func RISCTriggers(app *ise.Application, it *Iteration) ([]ise.Trigger, error) {
	blk := app.Block(it.Block)
	if blk == nil {
		return nil, fmt.Errorf("trace: unknown block %q", it.Block)
	}
	type track struct {
		first   arch.Cycles
		lastEnd arch.Cycles
		gaps    arch.Cycles
		n       int64
	}
	slots := KernelSlots(it.Loads, make([]int, 0, len(it.Loads)))
	tracks := make([]track, len(it.Loads))
	kernels := make([]*ise.Kernel, len(it.Loads))
	t := it.Prologue
	var m Merger
	m.Reset(it.Loads)
	for {
		j, ok := m.Next()
		if !ok {
			break
		}
		l := &it.Loads[j]
		k := kernels[j]
		if k == nil {
			if k = blk.Kernel(l.Kernel); k == nil {
				return nil, fmt.Errorf("trace: unknown kernel %q in block %q", l.Kernel, it.Block)
			}
			kernels[j] = k
		}
		t += l.GapSW
		tr := &tracks[slots[j]]
		if tr.n == 0 {
			tr.first = t
		} else {
			tr.gaps += t - tr.lastEnd
		}
		tr.n++
		t += k.RISCLatency
		tr.lastEnd = t
	}
	out := make([]ise.Trigger, 0, len(it.Loads))
	for j, l := range it.Loads {
		tr := &tracks[slots[j]]
		if tr.n == 0 {
			continue
		}
		var tb arch.Cycles
		if tr.n > 1 {
			tb = tr.gaps / arch.Cycles(tr.n-1)
		}
		out = append(out, ise.Trigger{Kernel: l.Kernel, E: tr.n, TF: tr.first, TB: tb})
	}
	return out, nil
}

// ProfileKey is the Profile map key of a block's trigger instruction on
// the given program path.
func ProfileKey(block, phase string) string {
	if phase == "" {
		return block
	}
	return block + "#" + phase
}

// ProfileFor returns the static trigger instruction for one iteration,
// falling back to the block's phase-less profile if the phase has none.
func (tr *Trace) ProfileFor(block, phase string) []ise.Trigger {
	if ts, ok := tr.Profile[ProfileKey(block, phase)]; ok {
		return ts
	}
	return tr.Profile[block]
}

// BuildProfile computes the static per-block (and per-phase) trigger
// instructions from the whole trace by averaging the RISC-mode trigger
// tuples over all iterations of each block's program path, and stores them
// in tr.Profile.
func (tr *Trace) BuildProfile(app *ise.Application) error {
	type acc struct {
		e, tf, tb float64
		n         int64
	}
	accs := make(map[string]map[ise.KernelID]*acc)
	order := make(map[string][]ise.KernelID)
	for i := range tr.Iterations {
		it := &tr.Iterations[i]
		trig, err := RISCTriggers(app, it)
		if err != nil {
			return err
		}
		key := ProfileKey(it.Block, it.Phase)
		m := accs[key]
		if m == nil {
			m = make(map[ise.KernelID]*acc)
			accs[key] = m
		}
		for _, t := range trig {
			a := m[t.Kernel]
			if a == nil {
				a = &acc{}
				m[t.Kernel] = a
				order[key] = append(order[key], t.Kernel)
			}
			a.e += float64(t.E)
			a.tf += float64(t.TF)
			a.tb += float64(t.TB)
			a.n++
		}
	}
	tr.Profile = make(map[string][]ise.Trigger, len(accs))
	for block, m := range accs {
		ts := make([]ise.Trigger, 0, len(m))
		for _, kid := range order[block] {
			a := m[kid]
			n := float64(a.n)
			ts = append(ts, ise.Trigger{
				Kernel: kid,
				E:      int64(a.e/n + 0.5),
				TF:     arch.Cycles(a.tf/n + 0.5),
				TB:     arch.Cycles(a.tb/n + 0.5),
			})
		}
		tr.Profile[block] = ts
	}
	return nil
}

// Encode writes the trace as JSON.
func (tr *Trace) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(tr)
}

// Decode reads a JSON trace.
func Decode(r io.Reader) (*Trace, error) {
	var tr Trace
	if err := json.NewDecoder(r).Decode(&tr); err != nil {
		return nil, fmt.Errorf("trace: decode: %w", err)
	}
	return &tr, nil
}

// Summary aggregates a trace for reports: iterations and executions per
// block, and per-kernel execution totals.
type Summary struct {
	Iterations      int
	Executions      int64
	BlockIterations map[string]int
	KernelTotals    map[ise.KernelID]int64
}

// Summarize computes the trace summary.
func (tr *Trace) Summarize() Summary {
	s := Summary{
		BlockIterations: make(map[string]int),
		KernelTotals:    make(map[ise.KernelID]int64),
	}
	for i := range tr.Iterations {
		it := &tr.Iterations[i]
		s.Iterations++
		s.BlockIterations[it.Block]++
		for _, l := range it.Loads {
			s.Executions += l.E
			s.KernelTotals[l.Kernel] += l.E
		}
	}
	return s
}
