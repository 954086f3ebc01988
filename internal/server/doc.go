// Package server is the network serving layer over the ADAPT pipeline: a TCP
// event-ingest service speaking the self-framing ALPHA packet wire format
// (adapt.StreamReader / adapt.StreamWriter), the software analogue of
// integrating the paper's island-detection stage into a real-time camera
// readout (§6's "system scalability concerns").
//
// Architecture:
//
//	conn k   ──reader──[SPSC ring]──┐
//	conn k+W ──reader──[SPSC ring]──┼─ lane k of W: worker (Pipeline)
//	  ...                           │    batched drain → ServeLit each →
//	                                │    one coalesced write per conn per drain
//	conn k   ◀────────── write ─────┤
//	conn k+W ◀────────── write ─────┘
//
// Each connection carries a stream of ALPHA packets; a per-connection reader
// assembles them into events (resynchronizing in place inside the read
// window across corrupted frames), zero-suppressing as it goes — one pass
// over the wire bytes verifies every frame and leaves the event's lit
// channels (adapt.StreamReader.ReadSuppressed) — and pushes that lit list
// onto its own single-producer/single-consumer ring. Decoded samples are
// never buffered (the cycle-accurate ProcessEvent, which needs them, runs
// offline in experiments pipe, not behind this socket). Connections are assigned
// to worker lanes at accept time, round-robin by connection id, so every ring
// has exactly one producer (the conn's reader) and one consumer (the lane's
// worker) — event handoff on the hot path is two atomic position updates, no
// locks and no channel ops. The worker is also the only writer of its
// connections' responses, so a connection is one goroutine and one ring.
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
// rings in batches, serves each drained event through adapt.Pipeline.ServeLit,
// and writes each originating connection's run of serialized
// adapt.EventRecord responses to its socket with one deadline-armed write
// from a buffer the worker owns. A client that stops reading therefore
// stalls its whole lane once its kernel socket buffers are full, for at most
// Config.WriteTimeout; the deadline then closes the connection and its later
// records are discarded. A connection whose reader has exited is retired by
// its worker once its ring is empty and its last records are written.
// Pacing (Config.PaceRate) is a service interval on that loop: the drain
// takes one event and waits out its slot before serving it. The whole path —
// frame scan, ring handoff, serving, response write — runs at zero heap
// allocations per event in steady state (gated in CI via
// BenchmarkIngestPath).
//
// The server supports graceful drain on shutdown (stop ingress, process
// everything queued, flush responses). A connection registers under the
// server's mutex only while the server is not draining, and Shutdown closes
// the draining signal and sweeps the registered connections under that
// same hold, so its wait on the readers can never race a late registration;
// it then waits on the workers, which retire every connection before they
// return. That is two wait groups, readers and workers. The drain runs
// once: a second Shutdown waits for it and closes nothing again.
//
// The server exposes global and per-connection statistics — events in/out,
// drops, bad packets, skipped bytes, queue high-water mark, latency
// percentiles — via Server.Handler (GET /stats and
// GET /healthz) and a periodic log line. The package opens no HTTP socket:
// the embedding command binds the listener, serves the handler on it, and
// closes it after Shutdown. Every count has one home. A connection's counts live in
// its own counters, written by its reader or its worker; the server-wide
// figures are folded when read: the live connections' counters plus those of
// the retired ones, which the worker folds in when it retires a connection
// after its last write. Counts no connection owns (serve time, lit channels,
// reference-route events, the queue high-water mark, the latency histogram)
// are server-wide, each written once.
package server
