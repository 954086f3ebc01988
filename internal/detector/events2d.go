package detector

import (
	"math"

	"github.com/wustl-adapt/hepccl/internal/grid"
)

// 2D event generation for IACT-style cameras (CTA). A gamma-ray shower
// appears in the camera as a roughly elliptical blob of Cherenkov light; the
// generator produces an elliptical Gaussian photo-electron distribution with
// Poisson statistics plus night-sky-background (NSB) noise, which is the
// workload the 2D island-detection stage cleans and clusters.

// ShowerConfig parameterizes one synthetic Cherenkov shower image.
type ShowerConfig struct {
	// CenterRow, CenterCol locate the image centroid in pixel coordinates.
	CenterRow, CenterCol float64
	// Length and Width are the RMS extents (in pixels) of the ellipse's
	// major and minor axes — Hillas length/width.
	Length, Width float64
	// AngleRad orients the major axis (0 = along columns).
	AngleRad float64
	// TotalPE is the mean total photo-electron count (image "size").
	TotalPE float64
}

// CameraConfig parameterizes the sensor array and its noise environment.
type CameraConfig struct {
	Rows, Cols int
	// NSBMeanPE is the mean night-sky-background photo-electrons per pixel.
	NSBMeanPE float64
	// CleaningThresholdPE zero-suppresses pixels below this many p.e.
	// (applied by the upstream cleaning stage; islands are then labeled on
	// the survivors).
	CleaningThresholdPE int32
}

// LSTCamera approximates CTA's Large-Sized Telescope camera as the 43×43
// array the paper uses ("the array size of 43×43 roughly corresponds to
// CTA's Large Size Telescope (LST), which has 1855 pixels", §5.5).
func LSTCamera() CameraConfig {
	return CameraConfig{Rows: 43, Cols: 43, NSBMeanPE: 0.12, CleaningThresholdPE: 4}
}

// Shower renders one shower onto a fresh grid: photo-electron means from the
// elliptical Gaussian, Poisson-fluctuated, NSB added, then cleaned with the
// camera threshold. The result is the zero-suppressed image the island
// detection stage consumes.
func (cam CameraConfig) Shower(sh ShowerConfig, rng *RNG) *grid.Grid {
	g := grid.New(cam.Rows, cam.Cols)
	cos, sin := math.Cos(sh.AngleRad), math.Sin(sh.AngleRad)
	l2 := sh.Length * sh.Length
	w2 := sh.Width * sh.Width
	if l2 <= 0 {
		l2 = 1e-6
	}
	if w2 <= 0 {
		w2 = 1e-6
	}
	// Normalize the Gaussian over the grid so TotalPE is the expected sum.
	weights := make([]float64, cam.Rows*cam.Cols)
	var wsum float64
	for r := 0; r < cam.Rows; r++ {
		for c := 0; c < cam.Cols; c++ {
			dr := float64(r) - sh.CenterRow
			dc := float64(c) - sh.CenterCol
			// Rotate into the ellipse frame.
			u := dr*cos + dc*sin
			v := -dr*sin + dc*cos
			w := math.Exp(-0.5 * (u*u/l2 + v*v/w2))
			weights[r*cam.Cols+c] = w
			wsum += w
		}
	}
	if wsum <= 0 {
		wsum = 1
	}
	for i, w := range weights {
		mean := sh.TotalPE*w/wsum + cam.NSBMeanPE
		pe := rng.Poisson(mean)
		g.Flat()[i] = grid.Value(pe)
	}
	return g.Threshold(cam.CleaningThresholdPE)
}

// TypicalShower returns a randomized shower configuration roughly matching
// LST gamma events: centered within the inner 2/3 of the camera, lengths
// 2–6 pixels, widths 1–2.5 pixels, 80–800 p.e.
func (cam CameraConfig) TypicalShower(rng *RNG) ShowerConfig {
	inR := float64(cam.Rows) / 6
	inC := float64(cam.Cols) / 6
	return ShowerConfig{
		CenterRow: inR + rng.Float64()*float64(cam.Rows)*2/3,
		CenterCol: inC + rng.Float64()*float64(cam.Cols)*2/3,
		Length:    2 + 4*rng.Float64(),
		Width:     1 + 1.5*rng.Float64(),
		AngleRad:  rng.Float64() * math.Pi,
		TotalPE:   80 + 720*rng.Float64(),
	}
}

// RandomIslands scatters count roughly-circular blobs of the given radius
// (in pixels) across the grid — the generic "clusters of detections" workload
// of §3. Values are 1–9.
func RandomIslands(rows, cols, count int, radius float64, rng *RNG) *grid.Grid {
	g := grid.New(rows, cols)
	for b := 0; b < count; b++ {
		cr := rng.Intn(rows)
		cc := rng.Intn(cols)
		rad := radius * (0.5 + rng.Float64())
		lo := int(math.Ceil(rad))
		for dr := -lo; dr <= lo; dr++ {
			for dc := -lo; dc <= lo; dc++ {
				r, c := cr+dr, cc+dc
				if r < 0 || r >= rows || c < 0 || c >= cols {
					continue
				}
				if float64(dr*dr+dc*dc) <= rad*rad {
					g.Set(r, c, grid.Value(1+rng.Intn(9)))
				}
			}
		}
	}
	return g
}

// RandomOccupancy lights each pixel independently with the given probability
// (values 1–9) — the density-sweep workload for merge-table stress tests.
func RandomOccupancy(rows, cols int, p float64, rng *RNG) *grid.Grid {
	g := grid.New(rows, cols)
	for i := range g.Flat() {
		if rng.Float64() < p {
			g.Flat()[i] = grid.Value(1 + rng.Intn(9))
		}
	}
	return g
}

// Checkerboard returns the 4-way worst-case allocation pattern: every other
// pixel lit. It allocates ⌈R·C/2⌉ provisional groups under 4-way CCL and
// overflows the paper's merge-table sizing (EXPERIMENTS.md E9).
func Checkerboard(rows, cols int) *grid.Grid {
	g := grid.New(rows, cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if (r+c)%2 == 0 {
				g.Set(r, c, 1)
			}
		}
	}
	return g
}

// Spiral draws one maximally-concave single component: a rectangular spiral
// arm wound inward with a one-pixel gap between turns, the stress case for
// transitive merge chains. The arm is drawn as a continuous path, so the
// result is always exactly one 4-way component.
func Spiral(rows, cols int) *grid.Grid {
	g := grid.New(rows, cols)
	// Turtle walk: right, down, left, up, shrinking the walkable box so a
	// one-pixel dark gap separates successive windings.
	r, c := 0, 0
	g.Set(r, c, 1)
	top, left, bottom, right := 0, 0, rows-1, cols-1
	dir := 0 // 0=right 1=down 2=left 3=up
	for {
		var dr, dc int
		switch dir {
		case 0:
			dr, dc = 0, 1
		case 1:
			dr, dc = 1, 0
		case 2:
			dr, dc = 0, -1
		default:
			dr, dc = -1, 0
		}
		moved := false
		for {
			nr, nc := r+dr, c+dc
			// Each direction is bounded only by the wall it runs toward;
			// walls behind the turtle were already shrunk for the NEXT
			// winding and must not block the current one.
			var blocked bool
			switch dir {
			case 0:
				blocked = nc > right
			case 1:
				blocked = nr > bottom
			case 2:
				blocked = nc < left
			default:
				blocked = nr < top
			}
			if blocked {
				break
			}
			r, c = nr, nc
			g.Set(r, c, 1)
			moved = true
		}
		// Shrink the box behind the turn so the next winding keeps a gap.
		switch dir {
		case 0:
			top = r + 2 // finished the top edge of this winding
		case 1:
			right = c - 2
		case 2:
			bottom = r - 2
		default:
			left = c + 2
		}
		if !moved || top > bottom || left > right {
			break
		}
		dir = (dir + 1) % 4
	}
	return g
}

// MuonRing renders a muon-ring image: local muons produce thin Cherenkov
// rings in IACT cameras, the most concave island shape a real instrument
// sees — the natural stress case for transitive merge chains (§6 discusses
// concavity as the trigger condition for the disclosed corner case).
type MuonRing struct {
	// CenterRow, CenterCol locate the ring center.
	CenterRow, CenterCol float64
	// Radius is the ring radius in pixels.
	Radius float64
	// WidthPx is the Gaussian radial thickness.
	WidthPx float64
	// TotalPE is the mean total photo-electron count around the ring.
	TotalPE float64
}

// TypicalMuonRing returns a randomized ring well inside the camera.
func (cam CameraConfig) TypicalMuonRing(rng *RNG) MuonRing {
	maxR := float64(min(cam.Rows, cam.Cols))/2 - 4
	return MuonRing{
		CenterRow: float64(cam.Rows)/2 + (rng.Float64()-0.5)*4,
		CenterCol: float64(cam.Cols)/2 + (rng.Float64()-0.5)*4,
		Radius:    maxR * (0.4 + 0.5*rng.Float64()),
		WidthPx:   0.6 + 0.6*rng.Float64(),
		TotalPE:   600 + 1200*rng.Float64(),
	}
}

// Ring renders one muon ring onto a fresh grid with Poisson statistics and
// NSB, then applies the cleaning threshold.
func (cam CameraConfig) Ring(ring MuonRing, rng *RNG) *grid.Grid {
	g := grid.New(cam.Rows, cam.Cols)
	w2 := ring.WidthPx * ring.WidthPx
	if w2 <= 0 {
		w2 = 0.25
	}
	weights := make([]float64, cam.Rows*cam.Cols)
	var wsum float64
	for r := 0; r < cam.Rows; r++ {
		for c := 0; c < cam.Cols; c++ {
			dr := float64(r) - ring.CenterRow
			dc := float64(c) - ring.CenterCol
			d := math.Hypot(dr, dc) - ring.Radius
			w := math.Exp(-0.5 * d * d / w2)
			weights[r*cam.Cols+c] = w
			wsum += w
		}
	}
	if wsum <= 0 {
		wsum = 1
	}
	for i, w := range weights {
		mean := ring.TotalPE*w/wsum + cam.NSBMeanPE
		g.Flat()[i] = grid.Value(rng.Poisson(mean))
	}
	return g.Threshold(cam.CleaningThresholdPE)
}
