// Package chaos is a reproducible, frame-granular fault injector for the
// serving stack, driven by a seeded deterministic RNG so any observed failure
// replays exactly from its seed.
//
// FrameInjector applies at most one fault to each frame it is offered:
// corrupt (one bit flip), truncate, drop, duplicate, or insert garbage ahead
// of it, with per-fault counters. Because a fault never straddles a frame
// boundary, a test can account exactly for which events were sacrificed:
// loadgen -corrupt, the server soak and the replay tests rely on that.
//
// The fault model matches what the paper's front-end electronics face:
// radiation-induced bit flips on the link, dropped and repeated frames from
// readout FIFO overruns, and line noise between frames.
package chaos
