package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// parseMetrics reads the plain-text /metrics exposition: one
// "name value" or `name{label="x"} value` sample per line, '#' lines
// skipped. Labelled samples keep their labels in the key.
func parseMetrics(text string) (map[string]float64, error) {
	out := make(map[string]float64)
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i <= 0 {
			return nil, fmt.Errorf("metrics: malformed line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: line %q: %w", line, err)
		}
		out[strings.TrimSpace(line[:i])] = v
	}
	return out, sc.Err()
}

// addMetrics sums b into a (a cluster's counters are per node).
func addMetrics(a, b map[string]float64) {
	for k, v := range b {
		a[k] += v
	}
}

// histMean is a histogram family's mean observation (_sum / _count), or
// 0 when it observed nothing.
func histMean(m map[string]float64, name string) float64 {
	n := m[name+"_count"]
	if n == 0 {
		return 0
	}
	return m[name+"_sum"] / n
}

// parseMemStats extracts the "# Name = value" runtime.MemStats lines that
// /debug/pprof/heap?debug=1 appends to its text profile.
func parseMemStats(text string) (map[string]uint64, error) {
	out := make(map[string]uint64)
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 64*1024), 4*1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "# ") {
			continue
		}
		name, val, ok := strings.Cut(line[2:], " = ")
		if !ok || strings.ContainsAny(name, " []") {
			continue
		}
		v, err := strconv.ParseUint(strings.TrimSpace(val), 10, 64)
		if err != nil {
			continue // slices such as PauseNs
		}
		out[name] = v
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if _, ok := out["TotalAlloc"]; !ok {
		return nil, errors.New("memstats: no TotalAlloc line")
	}
	return out, nil
}

// Layers reported as CPU shares: the mrts packages of the dispatch loop,
// selection and workload build, plus the runtime's allocation and GC work.
var profileLayers = []string{"sim", "trace", "core", "ecu", "reconfig", "selector",
	"profit", "mpu", "workload", "vfabric", "runtime-gc"}

// layerOf maps a profiled function name to its layer. The workload layer
// includes the encoder (h264) and video source it drives; runtime-gc is
// the runtime's allocation, write-barrier and collection code. Other
// functions map to "other".
func layerOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "mrts/internal/"); ok {
		pkg := rest
		if i := strings.IndexAny(pkg, "./"); i >= 0 {
			pkg = pkg[:i]
		}
		switch pkg {
		case "h264", "video":
			return "workload"
		}
		return pkg
	}
	if name, ok := strings.CutPrefix(fn, "runtime."); ok {
		for _, k := range []string{"gc", "malloc", "scanobject", "greyobject", "findObject",
			"markBits", "heapBits", "sweep", "mspan", "mcache", "mcentral", "mheap",
			"nextFreeFast", "memclrNoHeapPointers", "wbBuf", "bulkBarrier", "newobject",
			"makeslice", "growslice", "typePointers", "scanblock", "markroot"} {
			if strings.Contains(name, k) {
				return "runtime-gc"
			}
		}
	}
	return "other"
}

// profileShares decodes gzipped pprof CPU profiles and returns each
// layer's share of all their samples, in percent. A sample is charged to
// its leaf function's layer; when the leaf is runtime or library code
// other than allocation and GC (map hashing, memmove, sorting), it is
// charged to the nearest mrts caller instead, so a layer's share includes
// the helpers it calls.
func profileShares(gzs ...[]byte) (map[string]float64, error) {
	flat := make(map[string]float64)
	var total float64
	for _, gz := range gzs {
		if err := profileFlat(gz, flat, &total); err != nil {
			return nil, err
		}
	}
	if total == 0 {
		return nil, errors.New("profile: no samples")
	}
	out := make(map[string]float64, len(flat))
	for k, v := range flat {
		out[k] = 100 * v / total
	}
	return out, nil
}

// profileFlat adds one profile's sample values to flat by layer and to
// total.
func profileFlat(gz []byte, flat map[string]float64, total *float64) error {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return err
	}
	for _, s := range p.samples {
		if len(s.values) == 0 {
			continue
		}
		v := float64(s.values[len(s.values)-1])
		*total += v
		flat[p.layer(s.locs)] += v
	}
	return nil
}

// layer attributes one stack (leaf location first) to a layer.
func (p *profile) layer(locs []uint64) string {
	leaf := true
	for _, loc := range locs {
		for _, fn := range p.locLines[loc] {
			name := ""
			if idx, ok := p.funcName[fn]; ok && idx >= 0 && idx < int64(len(p.strings)) {
				name = p.strings[idx]
			}
			l := layerOf(name)
			if leaf && l == "runtime-gc" {
				return l
			}
			leaf = false
			if l != "other" && l != "runtime-gc" {
				return l
			}
		}
	}
	return "other"
}

// profile holds the parts of profile.proto a flat-by-function tally needs.
type profile struct {
	samples  []profSample
	locLines map[uint64][]uint64 // location id -> function ids, leaf first
	funcName map[uint64]int64    // function id -> string table index
	strings  []string
}

type profSample struct {
	locs   []uint64
	values []int64
}

// decodeProfile is a minimal protobuf reader for the pprof profile
// message: sample (2), location (4), function (5), string_table (6).
func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locLines: map[uint64][]uint64{}, funcName: map[uint64]int64{}}
	err := eachField(b, func(num int, wt int, v uint64, data []byte) error {
		switch num {
		case 2:
			var s profSample
			err := eachField(data, func(num int, wt int, v uint64, d []byte) error {
				switch num {
				case 1:
					s.locs = appendUints(s.locs, wt, v, d)
				case 2:
					for _, u := range appendUints(nil, wt, v, d) {
						s.values = append(s.values, int64(u))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := eachField(data, func(num int, wt int, v uint64, d []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					return eachField(d, func(num int, wt int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locLines[id] = fns
			return err
		case 5:
			var id uint64
			var name int64
			err := eachField(data, func(num int, wt int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcName[id] = name
			return err
		case 6:
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

// appendUints appends a repeated uint64 field given either unpacked (one
// varint) or packed (a length-delimited run of varints).
func appendUints(dst []uint64, wt int, v uint64, data []byte) []uint64 {
	if wt == 0 {
		return append(dst, v)
	}
	for len(data) > 0 {
		u, n := binary.Uvarint(data)
		if n <= 0 {
			break
		}
		dst = append(dst, u)
		data = data[n:]
	}
	return dst
}

// eachField walks the fields of one protobuf message. Varint fields pass
// their value in v; length-delimited ones their bytes in data.
func eachField(b []byte, f func(num, wt int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num, wt := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wt {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wt)
		}
		if err := f(num, wt, v, data); err != nil {
			return err
		}
	}
	return nil
}
