// Package design implements the synthesizable island-detection designs of §5
// as cycle-accounted schedules over the HLS substrate (internal/hls/...).
// Each optimization stage of the paper's study is a distinct schedule +
// storage binding of the same 1.5-pass CCL algorithm:
//
//   - StageBaseline (§5.1): no pragmas. The merge table lives in registers,
//     every loop is serialized, and the inner loop's initiation interval
//     equals its trip count.
//   - StageBindStorage (§5.2): `bind_storage ... RAM_2P` moves the merge
//     table to dual-port BRAM — saving flip-flops but adding one cycle per
//     merge-table read to the still-serialized scan (998→1158 in Table 1).
//   - StageUnrolled (§5.3): the channel-structuring loop is unrolled ×16 with
//     cyclic array partitioning, so input loading processes one 16-channel
//     ALPHA ASIC word per burst instead of one pixel at a time.
//   - StagePipelined (§5.4): the scan, load, and output loops reach II=1;
//     merge-table updates are decoupled through hls::stream queues and the
//     BRAM read latency hides inside the pipeline. This is the shipping
//     configuration evaluated in Tables 3–4.
//
// The functional result of a run is ccl.Label's scan with the design's update
// rule (ModePaper, or ModeFixed under FixedUpdate) and merge-table capacity;
// the stages change the schedule, never the algorithm. The design adds its
// own parts: the loop ledger and a resource.Report whose latency comes from
// the loop schedules and whose BRAM/FF/LUT come from the calibrated estimator
// in model.go — the reproduction's stand-in for a Vitis synthesis report —
// plus the pipelined stage's merge-update stream counts and the optional
// scan-loop VCD, both recovered from the provisional labels.
package design
