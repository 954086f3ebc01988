package experiments

import (
	"bytes"
	"encoding/csv"
	"math"
	"strconv"
	"strings"
	"testing"

	"github.com/wustl-adapt/hepccl/internal/design"
	"github.com/wustl-adapt/hepccl/internal/grid"
)

func TestStageStudyExactWhereCalibrated(t *testing.T) {
	// Table 1 (4-way) must reproduce every cell exactly.
	for _, row := range StageStudy(grid.FourWay) {
		if row.Model.LatencyCycles != row.Paper.Latency {
			t.Errorf("T1 %v latency %d != paper %d", row.Stage, row.Model.LatencyCycles, row.Paper.Latency)
		}
		if row.Model.Usage.BRAM18K != row.Paper.BRAM ||
			row.Model.Usage.FF != row.Paper.FF ||
			row.Model.Usage.LUT != row.Paper.LUT {
			t.Errorf("T1 %v resources %+v != paper %+v", row.Stage, row.Model.Usage, row.Paper)
		}
	}
	// Table 2: serialized stages exact; pipelined deviates only in the
	// documented latency/BRAM cells.
	for _, row := range StageStudy(grid.EightWay) {
		if row.Stage != design.StagePipelined {
			if row.Model.LatencyCycles != row.Paper.Latency {
				t.Errorf("T2 %v latency %d != paper %d", row.Stage, row.Model.LatencyCycles, row.Paper.Latency)
			}
			continue
		}
		if row.Model.Usage.FF != row.Paper.FF || row.Model.Usage.LUT != row.Paper.LUT {
			t.Errorf("T2 pipelined FF/LUT %+v != paper %+v", row.Model.Usage, row.Paper)
		}
		if d := math.Abs(float64(row.Model.LatencyCycles-row.Paper.Latency)) / float64(row.Paper.Latency); d > 0.25 {
			t.Errorf("T2 pipelined latency drifts %.0f%%", d*100)
		}
	}
}

func TestScalingLatencyErrorBounds(t *testing.T) {
	// maxErr is the largest |relative latency error| of a scaling study, %.
	maxErr := func(conn grid.Connectivity) float64 {
		worst := 0.0
		for _, row := range ScalingStudy(conn) {
			worst = max(worst, math.Abs(pctDiff(float64(row.Model.LatencyCycles), float64(row.Paper.Latency))))
		}
		return worst
	}
	// 4-way: within 1.5% everywhere (exact at even sizes).
	if e := maxErr(grid.FourWay); e > 1.5 {
		t.Errorf("4-way max latency error %.2f%% > 1.5%%", e)
	}
	// 8-way: within 25% (the paper's own tool-noise sizes dominate).
	if e := maxErr(grid.EightWay); e > 25 {
		t.Errorf("8-way max latency error %.2f%% > 25%%", e)
	}
}

func TestScalingShapePreserved(t *testing.T) {
	for _, conn := range []grid.Connectivity{grid.FourWay, grid.EightWay} {
		rows := ScalingStudy(conn)
		for i := 1; i < len(rows); i++ {
			if rows[i].Model.LatencyCycles <= rows[i-1].Model.LatencyCycles {
				t.Errorf("%v latency not increasing at %dx%d", conn, rows[i].Rows, rows[i].Cols)
			}
			if rows[i].Model.Usage.FF <= rows[i-1].Model.Usage.FF {
				t.Errorf("%v FF not increasing at %dx%d", conn, rows[i].Rows, rows[i].Cols)
			}
			if rows[i].Model.Usage.BRAM18K < rows[i-1].Model.Usage.BRAM18K {
				t.Errorf("%v BRAM decreasing at %dx%d", conn, rows[i].Rows, rows[i].Cols)
			}
		}
		// Who-wins: 8-way always costs more latency than 4-way.
	}
	s4, s8 := ScalingStudy(grid.FourWay), ScalingStudy(grid.EightWay)
	for i := range s4 {
		if s8[i].Model.LatencyCycles <= s4[i].Model.LatencyCycles {
			t.Errorf("8-way not slower at %dx%d", s4[i].Rows, s4[i].Cols)
		}
	}
}

func TestThroughputMatchesPaperClaims(t *testing.T) {
	r := Throughput()
	if r.LST43x43EventsPerSec < 15000 {
		t.Errorf("43x43 4-way = %.0f events/s, paper claims ≥15k", r.LST43x43EventsPerSec)
	}
	if math.Abs(float64(r.MaxSide30FPS4-Paper30FPSMaxSide4)) > 15 {
		t.Errorf("30fps 4-way max side %d, paper %d", r.MaxSide30FPS4, Paper30FPSMaxSide4)
	}
	if math.Abs(float64(r.MaxSide30FPS8-Paper30FPSMaxSide8)) > 15 {
		t.Errorf("30fps 8-way max side %d, paper %d", r.MaxSide30FPS8, Paper30FPSMaxSide8)
	}
}

func TestFalseDependencyExperiment(t *testing.T) {
	r, err := FalseDependency()
	if err != nil {
		t.Fatal(err)
	}
	if !r.FunctionallyIdentical {
		t.Error("rewrite must not change labels")
	}
	if r.SingleWriteII != 1 || r.DualWriteII != 2 {
		t.Errorf("II = %d/%d, want 1/2", r.SingleWriteII, r.DualWriteII)
	}
	if r.DualWriteLatency <= r.SingleWriteLatency {
		t.Error("dual-write must be slower")
	}
}

func TestCornerCaseExperiment(t *testing.T) {
	r, err := CornerCase()
	if err != nil {
		t.Fatal(err)
	}
	if r.FourWaySplit != 2 || r.EightWaySplit != 2 {
		t.Errorf("splits = %d/%d, want 2/2", r.FourWaySplit, r.EightWaySplit)
	}
	if !r.FixedCorrect {
		t.Error("fixed update must be correct")
	}
	if !r.PaperSizingOverflows4Way {
		t.Error("paper sizing must overflow on the 4-way checkerboard")
	}
}

func TestCTAComparisonExperiment(t *testing.T) {
	r, err := CTAComparison()
	if err != nil {
		t.Fatal(err)
	}
	if r.CPUServerEventsPerSec != 10000 {
		t.Errorf("CPU server rate = %v, want 10000", r.CPUServerEventsPerSec)
	}
	if r.FPGAEventsPerSec < 15000 {
		t.Errorf("FPGA rate = %v, want ≥ 15000", r.FPGAEventsPerSec)
	}
	if r.ADAPTEventsPerSec < 280e3 || r.ADAPTEventsPerSec > 320e3 {
		t.Errorf("ADAPT rate = %v, want ≈300k", r.ADAPTEventsPerSec)
	}
	// The headline "who wins": the FPGA beats the reported per-server CPU
	// rate and the DL1→DL2 per-core rate.
	if r.FPGAEventsPerSec <= r.CPUServerEventsPerSec || r.FPGAEventsPerSec <= r.DL1DL2EventsPerSec {
		t.Error("FPGA pipeline should beat the reported CPU rates")
	}
}

func TestFigCSVWellFormed(t *testing.T) {
	var buf bytes.Buffer
	if err := Fig10CSV(&buf); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(strings.NewReader(buf.String())).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(ScalingSizes)+1 {
		t.Fatalf("fig10 rows = %d, want %d", len(recs), len(ScalingSizes)+1)
	}
	// Model latency column is numeric and increasing.
	prev := int64(0)
	for _, rec := range recs[1:] {
		v, err := strconv.ParseInt(rec[3], 10, 64)
		if err != nil || v <= prev {
			t.Fatalf("fig10 model column broken: %v %v", rec, err)
		}
		prev = v
	}

	buf.Reset()
	if err := Fig11CSV(&buf); err != nil {
		t.Fatal(err)
	}
	recs, err = csv.NewReader(strings.NewReader(buf.String())).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(ScalingSizes)+1 || len(recs[0]) != 10 {
		t.Fatalf("fig11 shape = %dx%d", len(recs), len(recs[0]))
	}
}

func TestRegistryAndRunAll(t *testing.T) {
	all := All()
	if len(all) != 14 {
		t.Fatalf("experiments = %d, want 14 (E1–E14)", len(all))
	}
	ids := map[string]bool{}
	for _, e := range all {
		if ids[e.ID] {
			t.Fatalf("duplicate id %q", e.ID)
		}
		ids[e.ID] = true
		if _, ok := ByID(e.ID); !ok {
			t.Fatalf("ByID(%q) failed", e.ID)
		}
	}
	if _, ok := ByID("nope"); ok {
		t.Fatal("unknown id must not resolve")
	}
	var buf bytes.Buffer
	if err := RunAll(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Table 1", "Table 2", "Table 3", "Table 4",
		"Fig 10", "Fig 11", "E7", "E8", "E9", "E10", "exact"} {
		if !strings.Contains(out, want) {
			t.Errorf("RunAll output missing %q", want)
		}
	}
}

func TestWriteStudiesMentionDeltas(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteStageStudy(&buf, grid.FourWay); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "exact") {
		t.Error("Table 1 should be exact everywhere")
	}
	buf.Reset()
	if err := WriteScalingStudy(&buf, grid.EightWay); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "%") {
		t.Error("Table 4 should include percentage deltas")
	}
}
