// Package datagen synthesizes stand-ins for the ten SDRBench datasets the
// paper evaluates (Table I). Real CESM/Nyx/HACC/... archives are multi-GB and
// not redistributable here, so each generator reproduces the statistical
// character that drives the ratio-quality model: dimensionality, smoothness
// (spectral slope), dynamic range, and noise floor. The RTM stand-in is a
// genuine finite-difference acoustic wave-equation solver, because RTM
// snapshots *are* wavefields. See DESIGN.md §15 for the substitution notes.
//
// Each field is synthesized alone from its own offset of the dataset's
// seed, so GenerateField makes only the field it returns (RTM's snapshots,
// from one simulation, are made together). Synthesis is bit-identical
// across changes: TestFieldsPinned pins every field by hash.
package datagen

import (
	"fmt"
	"math"
	"math/cmplx"
	"sort"
	"strings"

	"rqm/internal/fft"
	"rqm/internal/grid"
	"rqm/internal/stats"
)

// Scale selects the synthesized dataset size. Tests use Tiny; experiments use
// Small or Medium. Paper-scale (GBs) is deliberately not offered.
type Scale int

const (
	// Tiny is for unit tests (≈10k–100k values).
	Tiny Scale = iota
	// Small is the default experiment size (≈0.2–2M values).
	Small
	// Medium is for benchmark runs that want more stable statistics.
	Medium
)

func (s Scale) String() string {
	switch s {
	case Tiny:
		return "tiny"
	case Small:
		return "small"
	case Medium:
		return "medium"
	}
	return fmt.Sprintf("Scale(%d)", int(s))
}

// SpectralField synthesizes a Gaussian random field with isotropic power
// spectrum P(k) ∝ k^(-slope) via inverse-FFT of white noise shaped in
// k-space. Larger slopes give smoother fields (easier prediction); slope 0
// is white noise. The field is normalized to zero mean, unit variance, then
// affinely mapped to [lo, hi].
func SpectralField(name string, prec grid.Precision, dims []int, slope float64, lo, hi float64, seed uint64) *grid.Field {
	n := 1
	for _, d := range dims {
		n *= d
	}
	// A mode's amplitude depends only on its tuple of |k| per axis (each
	// |k| <= d/2), so math.Pow runs once per tuple: amps is indexed by the
	// tuple, and off[ax][c] is what coordinate c on axis ax adds to that
	// index.
	off := make([][]int, len(dims))
	size := 1
	for ax := len(dims) - 1; ax >= 0; ax-- {
		d := dims[ax]
		off[ax] = make([]int, d)
		for c := range off[ax] {
			k := c
			if k > d/2 {
				k = d - c
			}
			off[ax][c] = k * size
		}
		size *= d/2 + 1
	}
	amps := make([]float64, size)
	tuple := make([]int, len(dims))
	for t := range amps {
		var k2 float64
		for ax, k := range tuple {
			kf := float64(k) / float64(dims[ax])
			k2 += kf * kf
		}
		amps[t] = math.Pow(k2, -slope/4) // |F| ∝ (k^2)^(-slope/4) = k^(-slope/2)
		for ax := len(dims) - 1; ax >= 0; ax-- {
			if tuple[ax]++; tuple[ax] <= dims[ax]/2 {
				break
			}
			tuple[ax] = 0
		}
	}
	rng := stats.NewXorShift64(seed)
	spec := make([]complex128, n)
	coord := make([]int, len(dims))
	t := 0 // amps index of coord
	for idx := range spec {
		// The all-zero tuple is the DC mode, left 0 to keep zero mean.
		if t != 0 {
			phase := 2 * math.Pi * rng.Float64()
			mag := amps[t] * math.Sqrt(-2*math.Log(math.Max(rng.Float64(), 1e-12)))
			spec[idx] = complex(mag, 0) * cmplx.Exp(complex(0, phase))
		}
		// Advance coord as an odometer, innermost axis fastest.
		for ax := len(dims) - 1; ax >= 0; ax-- {
			t -= off[ax][coord[ax]]
			if coord[ax]++; coord[ax] < dims[ax] {
				t += off[ax][coord[ax]]
				break
			}
			coord[ax] = 0
		}
	}
	// Inverse transform axis by axis: reuse ForwardND on the conjugate
	// (inverse DFT = conj(forward(conj(x)))/N).
	for i := range spec {
		spec[i] = cmplx.Conj(spec[i])
	}
	out, err := fft.ForwardND(spec, dims)
	if err != nil {
		panic(err) // dims are internally consistent
	}
	field := grid.MustNew(name, prec, dims...)
	for i := range out {
		field.Data[i] = real(cmplx.Conj(out[i])) / float64(n)
	}
	normalizeTo(field.Data, lo, hi)
	return field
}

// normalizeTo maps data affinely so its min/max match [lo, hi]. Degenerate
// (constant) inputs map to lo.
func normalizeTo(data []float64, lo, hi float64) {
	mn, mx := stats.MinMax(data)
	span := mx - mn
	if span == 0 {
		for i := range data {
			data[i] = lo
		}
		return
	}
	scale := (hi - lo) / span
	for i := range data {
		data[i] = lo + (data[i]-mn)*scale
	}
}

// LogNormalField exponentiates a spectral field to produce the heavy-tailed,
// high-dynamic-range distribution typical of cosmological density (Nyx dark
// matter density spans many orders of magnitude).
func LogNormalField(name string, prec grid.Precision, dims []int, slope, sigma float64, seed uint64) *grid.Field {
	f := SpectralField(name, prec, dims, slope, -1, 1, seed)
	for i, v := range f.Data {
		f.Data[i] = math.Exp(sigma * v)
	}
	return f
}

// MixedField composes a smooth and a turbulent regime in one field: the
// first half along the outer axis is a steep-spectrum (smooth) random field,
// the second half a shallow-spectrum one with added white noise. It is the
// canonical workload for spatially adaptive error bounds — a single global
// bound must satisfy the turbulent half and therefore over-spends on the
// smooth half, while a per-region solve does not. Rank must be at least 1
// and the outer dimension at least 2.
func MixedField(name string, prec grid.Precision, dims []int, seed uint64) *grid.Field {
	smooth := SpectralField(name, prec, dims, 4.0, -1, 1, seed)
	rough := SpectralField(name, prec, dims, 0.6, -1, 1, seed+1)
	rng := stats.NewXorShift64(seed + 2)
	n := smooth.Len()
	inner := n / dims[0]
	half := (dims[0] / 2) * inner
	for i := half; i < n; i++ {
		smooth.Data[i] = rough.Data[i] + 0.5*rng.NormFloat64()
	}
	normalizeTo(smooth.Data, -1, 1)
	return smooth
}

// Brownian1D generates a Brownian random walk, matching the paper's "Brown"
// synthetic pressure dataset (1D Brownian data).
func Brownian1D(name string, n int, step float64, seed uint64) *grid.Field {
	f := grid.MustNew(name, grid.Float64, n)
	rng := stats.NewXorShift64(seed)
	x := 0.0
	for i := 0; i < n; i++ {
		x += step * rng.NormFloat64()
		f.Data[i] = x
	}
	return f
}

// ParticlePositions1D emulates a HACC-style particle coordinate stream:
// particles clustered around halo centers inside a periodic box, stored in
// arbitrary (id) order, which is what makes HACC coordinates hard to predict
// spatially but gives 1D streams a diffuse, noise-like error distribution.
func ParticlePositions1D(name string, n int, box float64, nHalos int, seed uint64) *grid.Field {
	f := grid.MustNew(name, grid.Float32, n)
	rng := stats.NewXorShift64(seed)
	centers := make([]float64, nHalos)
	for i := range centers {
		centers[i] = box * rng.Float64()
	}
	for i := 0; i < n; i++ {
		if rng.Float64() < 0.7 {
			c := centers[rng.Intn(nHalos)]
			v := c + 0.01*box*rng.NormFloat64()
			// Wrap into the box.
			v = math.Mod(v, box)
			if v < 0 {
				v += box
			}
			f.Data[i] = v
		} else {
			f.Data[i] = box * rng.Float64()
		}
	}
	return f
}

// ParticleVelocities1D emulates HACC velocity components: a Gaussian mixture
// of a cold bulk flow plus hot cluster members.
func ParticleVelocities1D(name string, n int, seed uint64) *grid.Field {
	f := grid.MustNew(name, grid.Float32, n)
	rng := stats.NewXorShift64(seed)
	for i := 0; i < n; i++ {
		if rng.Float64() < 0.8 {
			f.Data[i] = 200 * rng.NormFloat64()
		} else {
			f.Data[i] = 1200 * rng.NormFloat64()
		}
	}
	return f
}

// Orbital3D emulates QMCPACK einspline orbital data: smooth oscillatory
// wavefunctions — sums of Gaussian envelopes times plane waves.
func Orbital3D(name string, dims []int, nCenters int, seed uint64) *grid.Field {
	f := grid.MustNew(name, grid.Float32, dims...)
	rng := stats.NewXorShift64(seed)
	type center struct {
		x, y, z float64
		s       float64
		kx, ky  float64
		kz      float64
		amp     float64
	}
	cs := make([]center, nCenters)
	for i := range cs {
		cs[i] = center{
			x: rng.Float64(), y: rng.Float64(), z: rng.Float64(),
			s:   0.05 + 0.15*rng.Float64(),
			kx:  4 * math.Pi * (rng.Float64() - 0.5) * 4,
			ky:  4 * math.Pi * (rng.Float64() - 0.5) * 4,
			kz:  4 * math.Pi * (rng.Float64() - 0.5) * 4,
			amp: 0.5 + rng.Float64(),
		}
	}
	d0, d1, d2 := dims[0], dims[1], dims[2]
	idx := 0
	for i := 0; i < d0; i++ {
		x := float64(i) / float64(d0)
		for j := 0; j < d1; j++ {
			y := float64(j) / float64(d1)
			for k := 0; k < d2; k++ {
				z := float64(k) / float64(d2)
				var v float64
				for _, c := range cs {
					dx, dy, dz := x-c.x, y-c.y, z-c.z
					r2 := dx*dx + dy*dy + dz*dz
					v += c.amp * math.Exp(-r2/(2*c.s*c.s)) * math.Cos(c.kx*dx+c.ky*dy+c.kz*dz)
				}
				f.Data[idx] = v
				idx++
			}
		}
	}
	return f
}

// PhotonPanels4D emulates EXAFEL detector panels: a 4D stack
// (events × panels × height × width) of noisy backgrounds with Bragg-like
// Gaussian peaks. High noise floor keeps compressibility low, as with real
// instrument data.
func PhotonPanels4D(name string, dims []int, seed uint64) *grid.Field {
	f := grid.MustNew(name, grid.Float32, dims...)
	rng := stats.NewXorShift64(seed)
	ev, pn, h, w := dims[0], dims[1], dims[2], dims[3]
	for e := 0; e < ev; e++ {
		for p := 0; p < pn; p++ {
			base := (e*pn + p) * h * w
			// Background pedestal with per-pixel Poisson-ish noise.
			pedestal := 30 + 10*rng.Float64()
			for i := 0; i < h*w; i++ {
				f.Data[base+i] = pedestal + 5*rng.NormFloat64()
			}
			// A handful of bright peaks.
			nPeaks := 2 + rng.Intn(5)
			for q := 0; q < nPeaks; q++ {
				cy, cx := rng.Intn(h), rng.Intn(w)
				amp := 200 + 800*rng.Float64()
				sig := 1 + 2*rng.Float64()
				for dy := -6; dy <= 6; dy++ {
					for dx := -6; dx <= 6; dx++ {
						y, x := cy+dy, cx+dx
						if y < 0 || y >= h || x < 0 || x >= w {
							continue
						}
						r2 := float64(dy*dy + dx*dx)
						f.Data[base+y*w+x] += amp * math.Exp(-r2/(2*sig*sig))
					}
				}
			}
		}
	}
	return f
}

// WaveSnapshots runs a 3D acoustic wave equation (leapfrog FDTD with a
// Ricker-wavelet point source and a damping sponge boundary) and returns the
// pressure field every `every` steps after the source has rung in. This is a
// faithful small-scale stand-in for RTM forward-modeling snapshots.
func WaveSnapshots(name string, dims []int, steps, every int, seed uint64) []*grid.Field {
	d0, d1, d2 := dims[0], dims[1], dims[2]
	n := d0 * d1 * d2
	prev := make([]float64, n)
	cur := make([]float64, n)
	next := make([]float64, n)
	rng := stats.NewXorShift64(seed)
	// Heterogeneous velocity model: layered with smooth lateral variation.
	c2 := make([]float64, n)
	for i := 0; i < d0; i++ {
		layerV := 0.30 + 0.25*float64(i)/float64(d0) + 0.05*math.Sin(7*float64(i)/float64(d0))
		for j := 0; j < d1; j++ {
			for k := 0; k < d2; k++ {
				v := layerV * (1 + 0.05*math.Sin(3*float64(j)/float64(d1)+2*float64(k)/float64(d2)))
				c2[(i*d1+j)*d2+k] = v * v
			}
		}
	}
	// Source position: near the "surface", jittered per seed.
	sx := 2 + rng.Intn(3)
	sy := d1/2 + rng.Intn(5) - 2
	sz := d2/2 + rng.Intn(5) - 2
	src := (sx*d1+sy)*d2 + sz
	const fpeak = 0.06 // cycles per step
	ricker := func(t int) float64 {
		arg := math.Pi * fpeak * (float64(t) - 1.5/fpeak)
		a := arg * arg
		return (1 - 2*a) * math.Exp(-a)
	}
	sponge := 6
	damp := func(i, d int) float64 {
		e := i
		if d-1-i < e {
			e = d - 1 - i
		}
		if e >= sponge {
			return 1
		}
		x := float64(sponge-e) / float64(sponge)
		return 1 - 0.08*x*x
	}
	var out []*grid.Field
	snap := 0
	for t := 0; t < steps; t++ {
		for i := 1; i < d0-1; i++ {
			for j := 1; j < d1-1; j++ {
				row := (i*d1 + j) * d2
				up := ((i-1)*d1 + j) * d2
				dn := ((i+1)*d1 + j) * d2
				lf := (i*d1 + j - 1) * d2
				rt := (i*d1 + j + 1) * d2
				for k := 1; k < d2-1; k++ {
					lap := cur[up+k] + cur[dn+k] + cur[lf+k] + cur[rt+k] +
						cur[row+k-1] + cur[row+k+1] - 6*cur[row+k]
					next[row+k] = 2*cur[row+k] - prev[row+k] + c2[row+k]*lap
				}
			}
		}
		next[src] += ricker(t)
		// Sponge damping near boundaries.
		for i := 0; i < d0; i++ {
			di := damp(i, d0)
			for j := 0; j < d1; j++ {
				dj := di * damp(j, d1)
				row := (i*d1 + j) * d2
				for k := 0; k < d2; k++ {
					f := dj * damp(k, d2)
					if f != 1 {
						next[row+k] *= f
						cur[row+k] *= f
					}
				}
			}
		}
		prev, cur, next = cur, next, prev
		if every > 0 && t+1 >= every && (t+1)%every == 0 {
			fld := grid.MustNew(fmt.Sprintf("%s/t%03d", name, t+1), grid.Float32, d0, d1, d2)
			copy(fld.Data, cur)
			out = append(out, fld)
			snap++
		}
	}
	return out
}

// Dataset groups the fields generated for one Table-I stand-in.
type Dataset struct {
	// Name is the paper's dataset name (lower-cased).
	Name string
	// Description matches Table I.
	Description string
	// Format names the original container format (informational).
	Format string
	// Fields holds the generated field stand-ins.
	Fields []*grid.Field
}

// TotalBytes sums the original-precision byte sizes of all fields.
func (d *Dataset) TotalBytes() int64 {
	var n int64
	for _, f := range d.Fields {
		n += f.OriginalBytes()
	}
	return n
}

type spec struct {
	desc, format string
	makers       []maker
}

// maker synthesizes one field of a dataset stand-in. Each field draws from
// its own offset of the dataset's seed (seed, seed+1, ...), so a field made
// alone equals the same field made beside its siblings.
type maker struct {
	// path is the "dataset/field" name of the one field gen returns, or ""
	// for RTM's snapshot stack: every snapshot comes from one simulation.
	path string
	gen  func(sc Scale, seed uint64) []*grid.Field
}

// one is the maker of the single field path, drawn from seed+off.
func one(path string, off uint64, gen func(name string, sc Scale, seed uint64) *grid.Field) maker {
	return maker{path, func(sc Scale, seed uint64) []*grid.Field {
		return []*grid.Field{gen(path, sc, seed+off)}
	}}
}

// spectral is the maker of one float32 SpectralField.
func spectral(path string, off uint64, dims func(Scale) []int, slope, lo, hi float64) maker {
	return one(path, off, func(name string, sc Scale, seed uint64) *grid.Field {
		return SpectralField(name, grid.Float32, dims(sc), slope, lo, hi, seed)
	})
}

func dimsFor(sc Scale, tiny, small, medium []int) []int {
	switch sc {
	case Tiny:
		return tiny
	case Medium:
		return medium
	default:
		return small
	}
}

func lenFor(sc Scale, tiny, small, medium int) int {
	switch sc {
	case Tiny:
		return tiny
	case Medium:
		return medium
	default:
		return small
	}
}

// The shapes of the datasets with more than one field. Each call returns
// fresh slices, since a field keeps its dims.
func cesmDims(sc Scale) []int {
	return dimsFor(sc, []int{45, 90}, []int{450, 900}, []int{900, 1800})
}

func hurricaneDims(sc Scale) []int {
	return dimsFor(sc, []int{10, 25, 25}, []int{50, 125, 125}, []int{100, 250, 250})
}

func nyxDims(sc Scale) []int {
	return dimsFor(sc, []int{24, 24, 24}, []int{96, 96, 96}, []int{160, 160, 160})
}

func haccLen(sc Scale) int { return lenFor(sc, 20000, 1<<20, 1<<22) }

var catalog = map[string]spec{
	"cesm": {"Climate simulation", "NetCDF", []maker{
		spectral("cesm/TS", 0, cesmDims, 3.0, 190, 310),
		spectral("cesm/TROP_Z", 1, cesmDims, 3.4, 5e3, 1.8e4),
	}},
	"exafel": {"Instrument imaging", "HDF5", []maker{
		one("exafel/raw", 0, func(name string, sc Scale, seed uint64) *grid.Field {
			dims := dimsFor(sc, []int{2, 4, 16, 32}, []int{4, 16, 64, 128}, []int{8, 32, 96, 194})
			return PhotonPanels4D(name, dims, seed)
		}),
	}},
	"hurricane": {"Weather simulation", "Binary", []maker{
		spectral("hurricane/U", 0, hurricaneDims, 2.6, -80, 85),
		spectral("hurricane/TC", 1, hurricaneDims, 3.0, -80, 30),
	}},
	"hacc": {"Cosmology simulation", "GIO", []maker{
		one("hacc/xx", 0, func(name string, sc Scale, seed uint64) *grid.Field {
			return ParticlePositions1D(name, haccLen(sc), 256, 64, seed)
		}),
		one("hacc/vx", 1, func(name string, sc Scale, seed uint64) *grid.Field {
			return ParticleVelocities1D(name, haccLen(sc), seed)
		}),
	}},
	"nyx": {"Cosmology simulation", "HDF5", []maker{
		one("nyx/dark_matter_density", 0, func(name string, sc Scale, seed uint64) *grid.Field {
			return LogNormalField(name, grid.Float32, nyxDims(sc), 2.2, 3.0, seed)
		}),
		spectral("nyx/temperature", 1, nyxDims, 2.8, 1e3, 1e6),
		spectral("nyx/velocity_z", 2, nyxDims, 2.5, -3e7, 3e7),
	}},
	"scale": {"Climate simulation", "NetCDF", []maker{
		spectral("scale/PRES", 0, func(sc Scale) []int {
			return dimsFor(sc, []int{8, 30, 30}, []int{48, 120, 120}, []int{98, 240, 240})
		}, 3.2, 2e3, 1.05e5),
	}},
	"qmcpack": {"Atoms' structure", "HDF5", []maker{
		one("qmcpack/einspline", 0, func(name string, sc Scale, seed uint64) *grid.Field {
			dims := dimsFor(sc, []int{17, 17, 28}, []int{69, 69, 115}, []int{69, 69, 115})
			return Orbital3D(name, dims, lenFor(sc, 6, 24, 24), seed)
		}),
	}},
	"miranda": {"Turbulence simulation", "Binary", []maker{
		spectral("miranda/vx", 0, func(sc Scale) []int {
			return dimsFor(sc, []int{16, 24, 24}, []int{64, 96, 96}, []int{128, 192, 192})
		}, 1.9, -1, 1),
	}},
	"brown": {"Synthetic Brown data", "Binary", []maker{
		one("brown/pressure", 0, func(name string, sc Scale, seed uint64) *grid.Field {
			return Brownian1D(name, lenFor(sc, 20000, 1<<20, 1<<22), 0.01, seed)
		}),
	}},
	"rtm": {"Reverse time migration", "HDF5", []maker{{"", func(sc Scale, seed uint64) []*grid.Field {
		dims := dimsFor(sc, []int{20, 24, 24}, []int{60, 112, 112}, []int{96, 176, 176})
		steps := lenFor(sc, 96, 320, 448)
		every := lenFor(sc, 16, 40, 56)
		snaps := WaveSnapshots("rtm", dims, steps, every, seed)
		for i, s := range snaps {
			s.Name = fmt.Sprintf("rtm/snapshot_%d", i+1)
		}
		return snaps
	}}}},
	// "mixed" is not part of the paper's Table I (and so not in Names()):
	// it is the adaptive-space partitioning workload — one field whose
	// halves want very different error bounds.
	"mixed": {"Smooth + turbulent composite", "Binary", []maker{
		one("mixed/q", 0, func(name string, sc Scale, seed uint64) *grid.Field {
			dims := dimsFor(sc, []int{32, 48, 48}, []int{96, 128, 128}, []int{160, 192, 192})
			return MixedField(name, grid.Float64, dims, seed)
		}),
	}},
}

// Names lists the available dataset stand-ins in Table-I order.
func Names() []string {
	out := []string{"cesm", "exafel", "hurricane", "hacc", "nyx", "scale", "qmcpack", "miranda", "brown", "rtm"}
	return out
}

func lookup(name string) (spec, error) {
	s, ok := catalog[name]
	if !ok {
		known := Names()
		sort.Strings(known)
		return spec{}, fmt.Errorf("datagen: unknown dataset %q (known: %v)", name, known)
	}
	return s, nil
}

// Generate builds the named dataset stand-in. Seed selects the realization;
// the same (name, seed, scale) always produces identical data.
func Generate(name string, seed uint64, sc Scale) (*Dataset, error) {
	s, err := lookup(name)
	if err != nil {
		return nil, err
	}
	var fields []*grid.Field
	for _, m := range s.makers {
		fields = append(fields, m.gen(sc, seed)...)
	}
	return &Dataset{
		Name:        name,
		Description: s.desc,
		Format:      s.format,
		Fields:      fields,
	}, nil
}

// GenerateField synthesizes the single named field of a dataset stand-in
// ("dataset/field"; a bare dataset name returns the first field), equal to
// that field of Generate's set. Only the named field is made, except that
// an RTM snapshot runs the whole simulation.
func GenerateField(path string, seed uint64, sc Scale) (*grid.Field, error) {
	dsName, _, _ := strings.Cut(path, "/")
	s, err := lookup(dsName)
	if err != nil {
		return nil, err
	}
	if dsName == path {
		return s.makers[0].gen(sc, seed)[0], nil
	}
	for _, m := range s.makers {
		if m.path == path {
			return m.gen(sc, seed)[0], nil
		}
		if m.path == "" {
			for _, f := range m.gen(sc, seed) {
				if f.Name == path {
					return f, nil
				}
			}
		}
	}
	return nil, fmt.Errorf("datagen: dataset %q has no field %q", dsName, path)
}
