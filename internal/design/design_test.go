package design

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"github.com/wustl-adapt/hepccl/internal/ccl"
	"github.com/wustl-adapt/hepccl/internal/grid"
	"github.com/wustl-adapt/hepccl/internal/labeling"
)

func cfg(stage Stage, conn grid.Connectivity, rows, cols int) Config {
	return Config{
		Rows: rows, Cols: cols, Connectivity: conn, Stage: stage,
		// Worst-case capacity so random 4-way inputs cannot overflow.
		MergeTableCap: ccl.SizeFor(rows, cols, conn),
	}
}

func randomGrid(cells []byte, rows, cols, litPermille int) *grid.Grid {
	g := grid.New(rows, cols)
	for i := 0; i < rows*cols && i < len(cells); i++ {
		if int(cells[i])*1000/256 < litPermille {
			g.Flat()[i] = grid.Value(cells[i]) + 1
		}
	}
	return g
}

// Every stage is functionally identical: the optimization study changes the
// schedule, never the algorithm. All stages must produce bit-identical labels
// to internal/ccl running in paper mode.
func TestStagesMatchCCLPaperMode(t *testing.T) {
	f := func(cells [80]byte) bool {
		g := randomGrid(cells[:], 8, 10, 550)
		for _, conn := range []grid.Connectivity{grid.FourWay, grid.EightWay} {
			want, err := ccl.Label(g, ccl.Options{Connectivity: conn, Mode: ccl.ModePaper})
			if err != nil {
				return false
			}
			for _, stage := range Stages() {
				out, err := Run(g, cfg(stage, conn, 8, 10))
				if err != nil {
					return false
				}
				if !out.Labels.Equal(want.Labels) {
					return false
				}
				if out.Groups != want.Groups {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// FixedUpdate must make the hardware match the golden model on every input,
// including the §6 corner case patterns.
func TestFixedUpdateMatchesGolden(t *testing.T) {
	f := func(cells [80]byte) bool {
		g := randomGrid(cells[:], 8, 10, 550)
		for _, conn := range []grid.Connectivity{grid.FourWay, grid.EightWay} {
			golden, err := labeling.FloodFill{}.Label(g, conn)
			if err != nil {
				return false
			}
			c := cfg(StagePipelined, conn, 8, 10)
			c.FixedUpdate = true
			out, err := Run(g, c)
			if err != nil || !out.Labels.Isomorphic(golden) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestCornerCaseInHardware(t *testing.T) {
	g := grid.MustParse(`
		#..#.
		#.##.
		###..
	`)
	out, err := Run(g, cfg(StagePipelined, grid.FourWay, 3, 5))
	if err != nil {
		t.Fatal(err)
	}
	if out.Islands != 2 {
		t.Fatalf("published design islands = %d, want the documented split into 2", out.Islands)
	}
	c := cfg(StagePipelined, grid.FourWay, 3, 5)
	c.FixedUpdate = true
	fixed, err := Run(g, c)
	if err != nil {
		t.Fatal(err)
	}
	if fixed.Islands != 1 {
		t.Fatalf("fixed design islands = %d, want 1", fixed.Islands)
	}
}

// The dual-write (pre-Fig-12) design is functionally identical to the
// single-write one — the fix removes a false dependency, not real behaviour —
// but costs one extra cycle per scan iteration.
func TestDualWriteFunctionalEquivalence(t *testing.T) {
	g := grid.MustParse(`
		##.#.#.##.
		#.##.##..#
		.#.##.#.#.
		##..#..##.
		.#.##.#..#
		#..#.##.#.
		.##..#..##
		#.#.##.#..
	`)
	single, err := Run(g, cfg(StagePipelined, grid.FourWay, 8, 10))
	if err != nil {
		t.Fatal(err)
	}
	c := cfg(StagePipelined, grid.FourWay, 8, 10)
	c.DualWriteStreams = true
	dual, err := Run(g, c)
	if err != nil {
		t.Fatal(err)
	}
	if !dual.Labels.Equal(single.Labels) {
		t.Fatal("dual-write must be functionally identical")
	}
	if dual.Report.InnerII != 2 || single.Report.InnerII != 1 {
		t.Fatalf("InnerII = %d/%d, want 2/1", dual.Report.InnerII, single.Report.InnerII)
	}
	if dual.Report.LatencyCycles-single.Report.LatencyCycles != 79 {
		t.Fatalf("dual-write penalty = %d cycles, want 79",
			dual.Report.LatencyCycles-single.Report.LatencyCycles)
	}
}

func TestReportMatchesModel(t *testing.T) {
	g := grid.New(8, 10)
	g.Set(0, 0, 5)
	for _, stage := range Stages() {
		for _, conn := range []grid.Connectivity{grid.FourWay, grid.EightWay} {
			c := Config{Rows: 8, Cols: 10, Connectivity: conn, Stage: stage}
			out, err := Run(g, c)
			if err != nil {
				t.Fatal(err)
			}
			if out.Report.LatencyCycles != Latency(stage, conn, 8, 10) {
				t.Errorf("%v/%v report latency %d != model %d",
					stage, conn, out.Report.LatencyCycles, Latency(stage, conn, 8, 10))
			}
			if out.Report.II != out.Report.LatencyCycles {
				t.Errorf("%v/%v II must equal latency in the tables", stage, conn)
			}
			if out.Report.Usage != Resources(stage, conn, 8, 10) {
				t.Errorf("%v/%v report usage mismatch", stage, conn)
			}
			if out.Report.DynamicCycles > out.Report.LatencyCycles {
				t.Errorf("%v/%v dynamic cycles exceed worst case", stage, conn)
			}
			if out.Report.ClockMHz != 100 {
				t.Errorf("clock = %v, want 100 MHz", out.Report.ClockMHz)
			}
		}
	}
}

func TestLedgerBreakdown(t *testing.T) {
	g := grid.New(8, 10)
	out, err := Run(g, cfg(StagePipelined, grid.EightWay, 8, 10))
	if err != nil {
		t.Fatal(err)
	}
	for _, region := range []string{"load", "scan", "drain", "resolve", "output", "overhead"} {
		if out.Ledger.Get(region) <= 0 {
			t.Errorf("ledger region %q missing", region)
		}
	}
	if out.Ledger.Total() != out.Report.LatencyCycles {
		t.Fatal("ledger total must equal report latency")
	}
	// 4-way has no drain loop.
	out4, err := Run(g, cfg(StagePipelined, grid.FourWay, 8, 10))
	if err != nil {
		t.Fatal(err)
	}
	if out4.Ledger.Get("drain") != 0 {
		t.Fatal("4-way pipelined must not have a drain loop")
	}
}

func TestStreamTraffic(t *testing.T) {
	g := grid.MustParse(`
		#.#.#
		#.#.#
		##.##
		..#..
	`)
	out, err := Run(g, cfg(StagePipelined, grid.FourWay, 4, 5))
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Streams) != 2 {
		t.Fatalf("4-way pipelined streams = %d, want 2 (top, left)", len(out.Streams))
	}
	var totalWrites int64
	for _, s := range out.Streams {
		totalWrites += s.Writes
	}
	// Every new group writes an init to stream_top; plus one merge. 5 groups
	// + 1 merge = 6 updates.
	if totalWrites != 6 {
		t.Fatalf("stream writes = %d, want 6", totalWrites)
	}
	out8, err := Run(g, cfg(StagePipelined, grid.EightWay, 4, 5))
	if err != nil {
		t.Fatal(err)
	}
	if len(out8.Streams) != 4 {
		t.Fatalf("8-way pipelined streams = %d, want 4 (+topleft, topright)", len(out8.Streams))
	}
	// Serialized stages use no streams.
	outB, err := Run(g, cfg(StageBaseline, grid.FourWay, 4, 5))
	if err != nil {
		t.Fatal(err)
	}
	if len(outB.Streams) != 0 {
		t.Fatal("baseline must not report streams")
	}
}

func TestPaperSizingOverflow(t *testing.T) {
	// 4-way checkerboard overflows the paper's merge-table sizing (E9).
	g := grid.New(6, 6)
	for r := 0; r < 6; r++ {
		for c := 0; c < 6; c++ {
			if (r+c)%2 == 0 {
				g.Set(r, c, 1)
			}
		}
	}
	c := Config{Rows: 6, Cols: 6, Connectivity: grid.FourWay, Stage: StagePipelined}
	if _, err := Run(g, c); !errors.Is(err, ccl.ErrMergeTableFull) {
		t.Fatalf("err = %v, want ErrMergeTableFull", err)
	}
	c.Connectivity = grid.EightWay
	out, err := Run(g, c)
	if err != nil {
		t.Fatal(err)
	}
	if out.Islands != 1 {
		t.Fatalf("8-way checkerboard islands = %d, want 1", out.Islands)
	}
}

func TestConfigValidation(t *testing.T) {
	g := grid.New(2, 2)
	bad := []Config{
		{Rows: 0, Cols: 2, Connectivity: grid.FourWay},
		{Rows: 2, Cols: 0, Connectivity: grid.FourWay},
		{Rows: 2, Cols: 2, Connectivity: grid.Connectivity(3)},
		{Rows: 2, Cols: 2, Connectivity: grid.FourWay, Stage: Stage(7)},
	}
	for i, c := range bad {
		if _, err := Run(g, c); err == nil {
			t.Errorf("config %d: want error", i)
		}
	}
	// Shape mismatch.
	if _, err := Run(grid.New(3, 3), Config{Rows: 2, Cols: 2, Connectivity: grid.FourWay}); err == nil {
		t.Error("shape mismatch must error")
	}
}

func TestWordsForPacking(t *testing.T) {
	g := grid.New(3, 6) // 18 pixels → 2 words
	for i := 0; i < 18; i++ {
		g.Flat()[i] = grid.Value(i + 1)
	}
	words := wordsFor(g)
	if len(words) != 2 {
		t.Fatalf("words = %d, want 2", len(words))
	}
	if words[0][0] != 1 || words[0][15] != 16 || words[1][0] != 17 || words[1][1] != 18 {
		t.Fatal("packing order wrong")
	}
	if words[1][2] != 0 {
		t.Fatal("tail must be zero-padded")
	}
}

func TestIsland1D(t *testing.T) {
	values := []grid.Value{0, 3, 5, 0, 0, 7, 0, 2, 2, 2}
	out, err := RunIsland1D(values, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Islands) != 3 {
		t.Fatalf("islands = %d, want 3", len(out.Islands))
	}
	a := out.Islands[0]
	if a.Start != 1 || a.End != 2 || a.Sum != 8 || a.Width() != 2 {
		t.Fatalf("island 0 = %+v", a)
	}
	// centroid = (1*3 + 2*5)/8 = 13/8.
	if a.Centroid != 13.0/8.0 {
		t.Fatalf("centroid = %v, want 1.625", a.Centroid)
	}
	b := out.Islands[1]
	if b.Start != 5 || b.End != 5 || b.Centroid != 5 {
		t.Fatalf("island 1 = %+v", b)
	}
	c := out.Islands[2]
	if c.Start != 7 || c.End != 9 || c.Sum != 6 || c.Centroid != 8 {
		t.Fatalf("island 2 = %+v", c)
	}
	if out.Report.DynamicCycles > out.Report.LatencyCycles {
		t.Fatal("dynamic cycles exceed worst case")
	}
}

func TestIsland1DTrailingAndEdges(t *testing.T) {
	out, err := RunIsland1D([]grid.Value{4}, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Islands) != 1 || out.Islands[0].Centroid != 0 {
		t.Fatalf("single channel: %+v", out.Islands)
	}
	out, err = RunIsland1D([]grid.Value{0, 0, 0}, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Islands) != 0 {
		t.Fatal("all-dark must yield no islands")
	}
	if _, err := RunIsland1D(nil, true); err == nil {
		t.Fatal("empty input must error")
	}
}

func TestIsland1DPipelinedFaster(t *testing.T) {
	values := make([]grid.Value, 128)
	values[5] = 9
	fast, _ := RunIsland1D(values, true)
	slow, _ := RunIsland1D(values, false)
	if fast.Report.LatencyCycles >= slow.Report.LatencyCycles {
		t.Fatal("pipelined 1D must be faster")
	}
	if fast.Report.InnerII != 1 || slow.Report.InnerII != 0 {
		t.Fatal("1D InnerII wrong")
	}
}

// Property: 1D islands exactly tile the nonzero runs.
func TestIsland1DProperty(t *testing.T) {
	f := func(vals [64]uint8) bool {
		values := make([]grid.Value, len(vals))
		for i, v := range vals {
			values[i] = grid.Value(v % 5) // plenty of zeros
		}
		out, err := RunIsland1D(values, true)
		if err != nil {
			return false
		}
		covered := make([]bool, len(values))
		prevEnd := -1
		for _, is := range out.Islands {
			if is.Start <= prevEnd {
				return false // overlapping or unordered
			}
			if is.Start > 0 && values[is.Start-1] != 0 {
				return false // not maximal on the left
			}
			if is.End < len(values)-1 && values[is.End+1] != 0 {
				return false // not maximal on the right
			}
			var sum int64
			for i := is.Start; i <= is.End; i++ {
				if values[i] == 0 {
					return false // hole inside island
				}
				covered[i] = true
				sum += int64(values[i])
			}
			if sum != is.Sum {
				return false
			}
			if is.Centroid < float64(is.Start) || is.Centroid > float64(is.End) {
				return false // centroid inside the island span
			}
			prevEnd = is.End
		}
		for i, v := range values {
			if (v != 0) != covered[i] {
				return false // every lit channel in exactly one island
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestTopLevelSwitch(t *testing.T) {
	values := []grid.Value{1, 1, 0, 0, 0, 2}
	// 1D mode.
	out, err := IslandDetection(values, TopConfig{OneDPipelined: true})
	if err != nil {
		t.Fatal(err)
	}
	if out.OneD == nil || out.TwoD != nil {
		t.Fatal("1D mode must populate OneD only")
	}
	if len(out.OneD.Islands) != 2 {
		t.Fatalf("1D islands = %d, want 2", len(out.OneD.Islands))
	}
	// 2D mode on the same stream, interpreted as 2×3.
	out, err = IslandDetection(values, TopConfig{
		TwoDimension: true,
		TwoD:         Config{Rows: 2, Cols: 3, Connectivity: grid.FourWay, Stage: StagePipelined},
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.TwoD == nil || out.OneD != nil {
		t.Fatal("2D mode must populate TwoD only")
	}
	if out.TwoD.Islands != 2 {
		t.Fatalf("2D islands = %d, want 2", out.TwoD.Islands)
	}
	// Mismatched flat length errors in 2D mode.
	if _, err := IslandDetection(values[:5], TopConfig{
		TwoDimension: true,
		TwoD:         Config{Rows: 2, Cols: 3, Connectivity: grid.FourWay, Stage: StagePipelined},
	}); err == nil {
		t.Fatal("flat length mismatch must error")
	}
}

func TestTraceWriterEmitsVCD(t *testing.T) {
	g := grid.MustParse("#.#\n###")
	var buf bytes.Buffer
	c := cfg(StagePipelined, grid.FourWay, 2, 3)
	c.TraceWriter = &buf
	out, err := Run(g, c)
	if err != nil {
		t.Fatal(err)
	}
	if out.Islands != 1 {
		t.Fatalf("islands = %d", out.Islands)
	}
	vcd := buf.String()
	for _, want := range []string{
		"$timescale 10ns $end",
		"$scope module island_detection_2d $end",
		"scan_idx", "curr_label", "merge_updates",
		"$enddefinitions $end",
		"#0", "#5", // one tick per pixel, six pixels
	} {
		if !strings.Contains(vcd, want) {
			t.Fatalf("VCD missing %q:\n%s", want, vcd)
		}
	}
	// Tracing must not change functional output.
	plain, err := Run(g, cfg(StagePipelined, grid.FourWay, 2, 3))
	if err != nil {
		t.Fatal(err)
	}
	if !plain.Labels.Equal(out.Labels) {
		t.Fatal("tracing changed labels")
	}
}
