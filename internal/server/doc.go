// Package server is the network serving layer over the ADAPT pipeline: a TCP
// event-ingest service speaking the self-framing ALPHA packet wire format
// (adapt.StreamReader / adapt.StreamWriter), the software analogue of
// integrating the paper's island-detection stage into a real-time camera
// readout (§6's "system scalability concerns").
//
// Architecture:
//
//	conn 1 ──reader──[SPSC ring]──┐
//	conn 2 ──reader──[SPSC ring]──┼─ lane 1: worker (Pipeline) ─ batched drain
//	                              │     │ ServeLitBatch → coalesced response
//	conn 3 ──reader──[SPSC ring]──┐     ▼ write per conn
//	conn N ──reader──[SPSC ring]──┼─ lane W: worker (Pipeline)
//
// Each connection carries a stream of ALPHA packets; a per-connection reader
// assembles them into events (resynchronizing in place inside the read
// window across corrupted frames), zero-suppressing as it goes — one pass
// over the wire bytes verifies every frame and leaves the event's lit
// channels (adapt.StreamReader.ReadSuppressed) — and pushes that lit list
// onto its own single-producer/single-consumer ring. Decoded samples are
// never buffered (the cycle-accurate ProcessEvent, which needs them, runs
// offline in cmd/adaptpipe, not behind this socket). Connections are assigned
// to worker lanes at accept time (least-loaded), so every ring has exactly one
// producer (the conn's reader) and one consumer (the lane's worker) — event
// handoff on the hot path is two atomic position updates, no locks and no
// channel ops.
// Pipelines hold pedestal-calibration and scratch state and are not
// concurrency-safe, so every worker owns one calibrated adapt.Pipeline.
//
// The derandomizer-depth bound lives in a per-lane admission counter, not in
// the rings: admission CASes the counter against Config.QueueDepth, and the
// worker decrements it as it drains, so the bound spans all connections of a
// lane exactly like one hardware FIFO shared by the lane. Under PolicyDrop
// an event arriving at a full lane is counted and discarded — and the reader
// skims it off the wire (first frame verified, the rest on frame headers
// alone: no checksum, no sample decode), the way a full hardware derandomizer
// never inspects the trigger it refuses; under PolicyBlock the reader
// stalls, pushing backpressure onto the TCP connection instead. Both are
// reported in the stats, so the server's observed loss fraction under Poisson
// load can be compared directly against the discrete-event simulation
// (adapt.SimulateTrigger, E14).
//
// An idle worker parks on a wake channel after publishing a parked flag and
// re-checking its rings (producers that observe the flag nudge the channel),
// so a quiet server spins nothing. There is one worker loop: it drains its
// rings in batches, serves the batch through adapt.Pipeline.ServeLitBatch,
// and coalesces the batch's serialized adapt.EventRecord responses into one
// pooled write per originating connection. Pacing (Config.PaceRate) is a
// service interval on that loop: the drain takes one
// event and waits out its slot before serving it. The whole path — frame
// scan, ring handoff, serving, response write — runs at zero heap allocations
// per event in steady state (gated in CI via BenchmarkIngestPath).
//
// The server supports graceful drain on shutdown (stop ingress, process
// everything queued, flush responses), and exposes global and per-connection
// statistics — events in/out, drops, bad packets, skipped bytes, queue
// high-water mark, latency percentiles — via a JSON stats endpoint and a
// periodic log line.
package server
