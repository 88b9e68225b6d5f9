package obs

import (
	"encoding/binary"
	"math"
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/metrics"
)

// cellObs is one observation of a window cell: its three measures.
type cellObs = [numWindowKinds]float64

// Values at the edges of the sketch's index range: above gamma^4096 and
// below gamma^-4096 the bucket index clamps.
const (
	cellHuge = 1e300
	cellTiny = 1e-300
)

// cellCounts are the observation counts the compact cell must get right:
// none, one, its raw capacity, one past it, and many.
var cellCounts = []int{0, 1, cellRaw, cellRaw + 1, 40}

// cellValues draws n observations from a fixed palette with zeros, ties and
// values at both index clamps, varied per measure and per seed.
func cellValues(n, seed int) []cellObs {
	palette := []float64{0, 1, 1, 2.5, 0, cellHuge, cellTiny, math.MaxFloat64, 7e-310, 0.01, 1e6, 3}
	out := make([]cellObs, n)
	for i := range out {
		for k := range out[i] {
			out[i][k] = palette[(i*(k+2)+seed*(k+1))%len(palette)]
		}
	}
	return out
}

// cellRegistry is a registry whose windowed families hold one cell, window 7
// of (heavy, edf), fed obs in order. The cell exists even with no
// observation.
func cellRegistry(obs []cellObs) *Registry {
	reg := NewRegistry()
	f := reg.spanFamily()
	f.mu.Lock()
	defer f.mu.Unlock()
	label := f.win.label("heavy", "edf")
	f.win.create(7, label)
	for i := range obs {
		idx := cellIndices(&obs[i])
		f.win.add(7, label, &obs[i], &idx)
	}
	return reg
}

// sketchRegistry is cellRegistry by plain sketches: each measure registered
// under the cell's name and fed obs with Observe.
func sketchRegistry(obs []cellObs) *Registry {
	reg := NewRegistry()
	for k := range windowKinds {
		s := plainSketch(reg, WindowMetric(windowKinds[k], 7, "heavy", "edf"), windowHelp[k])
		for _, o := range obs {
			s.Observe(o[k])
		}
	}
	return reg
}

// cellIndices computes an observation's bucket indices as observe does.
func cellIndices(o *cellObs) [numWindowKinds]int16 {
	var idx [numWindowKinds]int16
	for k, v := range o {
		idx[k] = int16(metrics.BucketIndex(v))
	}
	return idx
}

// onlyCell returns the cell of a cellRegistry and whether it is promoted.
func onlyCell(t *testing.T, reg *Registry) ([numWindowKinds]metrics.Sketch, bool) {
	t.Helper()
	f := reg.spanFamily()
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.win.cells.n != 1 {
		t.Fatalf("%d cells, want 1", f.win.cells.n)
	}
	return f.win.sketches(0), f.win.cells.at(0).side != 0
}

// sameSketch fails unless got reads exactly as want: count, zero count,
// sum bits, max, quantiles and occupied buckets.
func sameSketch(t *testing.T, what string, got, want *metrics.Sketch) {
	t.Helper()
	if got.N() != want.N() || got.ZeroCount() != want.ZeroCount() ||
		math.Float64bits(got.Sum()) != math.Float64bits(want.Sum()) || got.Max() != want.Max() {
		t.Fatalf("%s: n %d zero %d sum %v max %v, want n %d zero %d sum %v max %v", what,
			got.N(), got.ZeroCount(), got.Sum(), got.Max(), want.N(), want.ZeroCount(), want.Sum(), want.Max())
	}
	for _, q := range []float64{0.01, 0.5, 0.95, 0.99, 1} {
		if g, w := got.Quantile(q), want.Quantile(q); g != w {
			t.Fatalf("%s: quantile %v is %v, want %v", what, q, g, w)
		}
	}
	if g, w := got.Cells(), want.Cells(); !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: cells %v, want %v", what, g, w)
	}
}

// checkCell compares a cell fed obs with plain sketches fed the same
// observations in the same order: the sketches themselves, the registry
// snapshot and the /metrics page. It returns whether the cell is promoted.
func checkCell(t *testing.T, what string, obs []cellObs) bool {
	t.Helper()
	reg := cellRegistry(obs)
	got, promoted := onlyCell(t, reg)
	for k := range got {
		var want metrics.Sketch
		for _, o := range obs {
			want.Add(o[k])
		}
		sameSketch(t, what+" "+windowKinds[k], &got[k], &want)
	}
	ref := sketchRegistry(obs)
	if g, w := reg.Snapshot(), ref.Snapshot(); !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: snapshot %+v, want %+v", what, g, w)
	}
	if g, w := exposition(t, reg), exposition(t, ref); g != w {
		t.Fatalf("%s: /metrics\n%s\nwant\n%s", what, g, w)
	}
	return promoted
}

// TestWindowCellSize: a window cell is a pointer-free 80-byte slot.
func TestWindowCellSize(t *testing.T) {
	if got := unsafe.Sizeof(windowCell{}); got > 80 {
		t.Fatalf("windowCell is %d bytes, want at most 80", got)
	}
}

// TestWindowCellMatchesSketch: at 0, 1, cellRaw, cellRaw+1 and many
// observations, a cell reads exactly as plain sketches fed the same values
// in order.
func TestWindowCellMatchesSketch(t *testing.T) {
	for _, n := range cellCounts {
		for seed := 0; seed < 6; seed++ {
			promoted := checkCell(t, "cell", cellValues(n, seed))
			if promoted != (n > cellRaw) {
				t.Fatalf("%d observations: promoted %v", n, promoted)
			}
		}
	}
}

// FuzzWindowCell: any sequence of non-negative values reads exactly as
// plain sketches fed the same values do. The second argument, once the split
// point of a merge check, is kept so the seed corpus stays valid.
func FuzzWindowCell(f *testing.F) {
	for _, n := range cellCounts {
		var seed []byte
		for _, o := range cellValues(n, n) {
			for _, v := range o {
				seed = binary.LittleEndian.AppendUint64(seed, math.Float64bits(v))
			}
		}
		f.Add(seed, uint8(n/2))
	}
	f.Fuzz(func(t *testing.T, raw []byte, _ uint8) {
		var obs []cellObs
		for len(raw) >= 8*numWindowKinds && len(obs) < 64 {
			var o cellObs
			for k := range o {
				v := math.Abs(math.Float64frombits(binary.LittleEndian.Uint64(raw)))
				if math.IsNaN(v) {
					v = 0
				}
				o[k], raw = v, raw[8:]
			}
			obs = append(obs, o)
		}
		checkCell(t, "fuzz", obs)
	})
}
