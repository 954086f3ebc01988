package experiments

import (
	"fmt"
	"io"

	"github.com/wustl-adapt/hepccl/internal/design"
	"github.com/wustl-adapt/hepccl/internal/grid"
	"github.com/wustl-adapt/hepccl/internal/hls/resource"
)

// StageComparison pairs one optimization-stage row with its published values.
type StageComparison struct {
	Stage design.Stage
	Paper PaperStageRow
	Model resource.Report
}

// StageStudy regenerates Table 1 (4-way) or Table 2 (8-way): the four
// optimization stages on the 8×10 array.
func StageStudy(conn grid.Connectivity) []StageComparison {
	paper := Table1Paper
	if conn == grid.EightWay {
		paper = Table2Paper
	}
	out := make([]StageComparison, 0, len(paper))
	for _, p := range paper {
		out = append(out, StageComparison{
			Stage: p.Stage,
			Paper: p,
			Model: reportFor(p.Stage, conn, 8, 10),
		})
	}
	return out
}

// ScalingComparison pairs one scalability row with its published values.
type ScalingComparison struct {
	Rows, Cols int
	Paper      PaperScalingRow
	Model      resource.Report
}

// ScalingStudy regenerates Table 3 (4-way) or Table 4 (8-way): the pipelined
// design across array sizes, with % utilization on the Kintex-7 target.
func ScalingStudy(conn grid.Connectivity) []ScalingComparison {
	paper := paperScalingFor(conn)
	out := make([]ScalingComparison, 0, len(paper))
	for _, p := range paper {
		out = append(out, ScalingComparison{
			Rows: p.Rows, Cols: p.Cols,
			Paper: p,
			Model: reportFor(design.StagePipelined, conn, p.Rows, p.Cols),
		})
	}
	return out
}

// reportFor builds the synthesis report for a configuration without running
// an event through it (tables are data-independent worst cases).
func reportFor(stage design.Stage, conn grid.Connectivity, rows, cols int) resource.Report {
	lat := design.Latency(stage, conn, rows, cols)
	return resource.Report{
		Design:        "island_detection_2d",
		Stage:         stage.String(),
		Connectivity:  conn,
		Rows:          rows,
		Cols:          cols,
		LatencyCycles: lat,
		II:            lat,
		InnerII:       design.InnerII(stage, false),
		Usage:         design.Resources(stage, conn, rows, cols),
		ClockMHz:      design.ClockMHz,
	}
}

// pctDiff returns the signed relative difference model-vs-paper in percent.
func pctDiff(model, paper float64) float64 {
	if paper == 0 {
		return 0
	}
	return (model - paper) / paper * 100
}

func fmtDelta(model, paper float64) string {
	d := pctDiff(model, paper)
	if d == 0 {
		return "exact"
	}
	return fmt.Sprintf("%+.1f%%", d)
}

// WriteStageStudy renders Table 1/2 with paper-vs-model columns.
func WriteStageStudy(w io.Writer, conn grid.Connectivity) error {
	table := "Table 1"
	if conn == grid.EightWay {
		table = "Table 2"
	}
	fmt.Fprintf(w, "%s: Island Detection Results for Size 8x10 (%s)\n", table, conn)
	fmt.Fprintf(w, "%-13s %23s %17s %19s %19s\n", "Stage", "Latency=II (ppr/mdl)", "BRAM (ppr/mdl)", "FF (ppr/mdl)", "LUT (ppr/mdl)")
	for _, row := range StageStudy(conn) {
		fmt.Fprintf(w, "%-13s %8d /%8d %6s  %4d /%4d %6s  %6d /%6d %6s %6d /%6d %6s\n",
			row.Stage,
			row.Paper.Latency, row.Model.LatencyCycles, fmtDelta(float64(row.Model.LatencyCycles), float64(row.Paper.Latency)),
			row.Paper.BRAM, row.Model.Usage.BRAM18K, fmtDelta(float64(row.Model.Usage.BRAM18K), float64(row.Paper.BRAM)),
			row.Paper.FF, row.Model.Usage.FF, fmtDelta(float64(row.Model.Usage.FF), float64(row.Paper.FF)),
			row.Paper.LUT, row.Model.Usage.LUT, fmtDelta(float64(row.Model.Usage.LUT), float64(row.Paper.LUT)))
	}
	return nil
}

// WriteScalingStudy renders Table 3/4 with paper-vs-model columns and the
// device utilization percentages.
func WriteScalingStudy(w io.Writer, conn grid.Connectivity) error {
	table := "Table 3"
	if conn == grid.EightWay {
		table = "Table 4"
	}
	dev := resource.KintexXC7K325T
	fmt.Fprintf(w, "%s: Scalability Analysis (%s Connectivity), pipelined design on %s\n",
		table, conn, dev.Name)
	fmt.Fprintf(w, "%-7s %22s %15s %22s %22s\n",
		"Size", "Latency=II (ppr/mdl)", "BRAM (ppr/mdl)", "FF (ppr/mdl/%)", "LUT (ppr/mdl/%)")
	for _, row := range ScalingStudy(conn) {
		fmt.Fprintf(w, "%-7s %8d /%8d %5s %4d /%4d %5s %7d /%7d %3d%% %5s %6d /%6d %3d%% %5s\n",
			fmt.Sprintf("%dx%d", row.Rows, row.Cols),
			row.Paper.Latency, row.Model.LatencyCycles, fmtDelta(float64(row.Model.LatencyCycles), float64(row.Paper.Latency)),
			row.Paper.BRAM, row.Model.Usage.BRAM18K, fmtDelta(float64(row.Model.Usage.BRAM18K), float64(row.Paper.BRAM)),
			row.Paper.FF, row.Model.Usage.FF, dev.PctFF(row.Model.Usage.FF),
			fmtDelta(float64(row.Model.Usage.FF), float64(row.Paper.FF)),
			row.Paper.LUT, row.Model.Usage.LUT, dev.PctLUT(row.Model.Usage.LUT),
			fmtDelta(float64(row.Model.Usage.LUT), float64(row.Paper.LUT)))
	}
	return nil
}
