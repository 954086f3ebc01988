// Package server is the network serving layer over the ADAPT pipeline: a TCP
// event-ingest service speaking the self-framing ALPHA packet wire format
// (adapt.StreamReader / adapt.StreamWriter), the software analogue of
// integrating the paper's island-detection stage into a real-time camera
// readout (§6's "system scalability concerns").
//
// Architecture:
//
//	conn k   ──reader──┐
//	conn k+W ──reader──┼──▶ lane k: chan *event, cap QueueDepth
//	  ...              ┘          │
//	                              ▼
//	                    worker k (Pipeline): batched drain →
//	                    ServeLit each → one coalesced write per
//	                    run of a connection's events
//	conn k   ◀── write ───────────┤
//	conn k+W ◀── write ───────────┘
//
// Each connection carries a stream of ALPHA packets; a per-connection reader
// assembles them into events (resynchronizing in place inside the read
// window across corrupted frames), zero-suppressing as it goes — one pass
// over the wire bytes verifies every frame and leaves the event's lit
// channels (adapt.StreamReader.ReadSuppressed) — and sends that lit list on
// its worker's lane. Decoded samples are never buffered (the cycle-accurate
// ProcessEvent, which needs them, runs offline in experiments pipe, not
// behind this socket). Connections are assigned to worker lanes at accept
// time, round-robin by connection id. The worker is also the only writer of
// its connections' responses, so a connection is one goroutine. Pipelines
// hold pedestal-calibration and scratch state and are not concurrency-safe,
// so every worker owns one calibrated adapt.Pipeline.
//
// A lane is one buffered channel of capacity Config.QueueDepth: the
// derandomizer FIFO, shared by all of the lane's connections exactly like one
// hardware FIFO shared by the lane. Admission is a non-blocking send. Under
// PolicyDrop an event arriving at a full lane is counted and discarded — and
// the reader skims it off the wire (first frame verified, the rest on frame
// headers alone: no checksum, no sample decode), the way a full hardware
// derandomizer never inspects the trigger it refuses; under PolicyBlock the
// reader retries the send, stalling and pushing backpressure onto the TCP
// connection instead. Both are reported in the stats, so the server's
// observed loss fraction under Poisson load can be compared directly against
// the discrete-event simulation (adapt.SimulateTrigger, E14).
//
// There is one worker loop: it blocks on its lane for an event (an idle
// worker spins nothing), drains whatever is queued behind it in arrival
// order, serves each drained event through adapt.Pipeline.ServeLit, and
// writes each run of one connection's serialized adapt.EventRecord responses
// to its socket with one deadline-armed write from a buffer the worker owns.
// A client that stops reading therefore stalls its whole lane once its
// kernel socket buffers are full, for at most Config.WriteTimeout; the
// deadline then closes the connection and its later records are discarded.
// A reader that exits sends a marker event on the lane behind its last event;
// the worker retires the connection once the records of the drain that took
// the marker are written. Pacing (Config.PaceRate) is a service interval on
// that loop: the drain takes one event and waits out its slot before serving
// it. The whole path — frame scan, lane handoff, serving, response write —
// runs at zero heap allocations per event in steady state (gated in CI via
// BenchmarkIngestPath).
//
// The server supports graceful drain on shutdown (stop ingress, process
// everything queued, flush responses). A connection registers under the
// server's mutex only while the server is not draining, and Shutdown closes
// the draining signal and sweeps the registered connections under that
// same hold, so its wait on the readers can never race a late registration;
// it then closes every lane and waits on the workers, which retire every
// connection before their lane runs dry. That is two wait groups, readers
// and workers. The drain runs
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
