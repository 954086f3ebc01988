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
//	                    group by connection → ServeLit each →
//	                    one write per connection per drain
//	conn k   ◀── write ───────────┤
//	conn k+W ◀── write ───────────┘
//
// A connection's reader assembles ALPHA packets into events (resynchronizing
// in place inside the read window), zero-suppressing as it goes: one pass
// over the wire bytes verifies every frame and leaves the event's lit
// channels (adapt.StreamReader.ReadSuppressed), and that lit list, not
// decoded samples, is what it sends on its worker's lane. Connections are
// assigned to lanes at accept time, round-robin by connection id. Pipelines
// are not concurrency-safe, so every worker owns one calibrated
// adapt.Pipeline; the worker is also the only writer of its connections'
// responses, so a connection is one goroutine.
//
// A lane is one buffered channel of capacity Config.QueueDepth: the
// derandomizer FIFO, shared by the lane's connections like one hardware FIFO.
// Admission is a non-blocking send. Under PolicyDrop an event arriving at a
// full lane is counted and discarded, and the reader skims it off the wire
// (first frame verified, the rest on frame headers alone), the way a full
// hardware derandomizer never inspects the trigger it refuses; under
// PolicyBlock the reader parks on the send until the worker frees a slot (or
// the server starts draining), pushing backpressure onto the TCP connection.
// Either way the observed loss compares directly with the discrete-event
// simulation (adapt.Pipeline.SimulateTrigger, E14).
//
// There is one worker loop: it blocks on its lane for an event, drains what
// is queued behind it, groups the drain by connection (each one's events in
// arrival order), serves each event through adapt.Pipeline.ServeLit, and
// writes each connection's serialized adapt.EventRecord responses with one
// deadline-armed write per drain. A client that stops reading therefore
// stalls its lane for at most Config.WriteTimeout; the deadline then closes
// the connection and its later records are discarded. A reader that exits
// sends a marker event behind its last event, and the worker retires the
// connection once the records of the drain that took the marker are written.
// Pacing (Config.PaceRate) is a service interval on the same loop: the drain
// takes one event and waits out its slot before serving it. The whole path
// runs at zero heap allocations per event in steady state (BenchmarkIngestPath
// in CI).
//
// Shutdown stops ingress, serves everything queued and flushes responses. A
// connection registers under the server's mutex only while the server is not
// draining, and Shutdown closes the draining signal and sweeps the registered
// connections under that same hold, so its wait on the readers cannot race a
// late registration; it then closes every lane and waits on the workers,
// which retire every connection before their lane runs dry. The drain runs
// once: a second Shutdown waits for it and closes nothing again.
//
// Server.Handler serves GET /stats and GET /healthz; the package opens no
// HTTP socket. Every count has one home: a connection's counts live in its
// own counters, written by its reader or its worker, and server-wide figures
// are folded when read (live connections plus the retired ones the worker
// folded in after their last write). Counts no connection owns (serve time,
// lit channels, reference-route events, the queue high-water mark, the
// latency histogram) are server-wide, each written once.
package server
