package server

import (
	"context"
	"fmt"
	"log"
	"time"

	"github.com/wustl-adapt/hepccl/internal/uplink"
	"github.com/wustl-adapt/hepccl/internal/wal"
)

// Replay re-serves a recorded WAL through a live ingest endpoint: each
// record's raw wire bytes are streamed over one TCP connection in append
// order, optionally paced by the recorded inter-event timing, while the
// responses are drained and fingerprinted. Because one connection pins to one
// worker and the payloads are byte-identical to the recorded uplink, a replay
// against a block-policy server is deterministic: two replays of the same log
// produce identical served/dropped/bad/incomplete counts and an identical
// downlink byte stream.

// ReplayOptions parameterizes one replay run.
type ReplayOptions struct {
	// Addr is the ingest endpoint to replay against.
	Addr string
	// Dir is the WAL directory to read.
	Dir string
	// Rate scales the recorded pacing: 1 replays at recorded speed, 2 at
	// double speed, and 0 (or negative) replays as fast as the link accepts.
	Rate float64
	// Logger receives progress lines. Nil is silent.
	Logger *log.Logger
}

// ReplayResult summarizes one replay run.
type ReplayResult struct {
	// Events and Bytes count the records streamed and their payload bytes.
	Events uint64
	// Bytes is the total payload bytes written.
	Bytes uint64
	// Torn is how many torn segments the scan encountered (0 for a log that
	// was repaired by a recording restart).
	Torn int
	// DownlinkRecords and DownlinkBytes count the response stream.
	DownlinkRecords uint64
	DownlinkBytes   uint64
	// DownlinkCRC is the CRC-32C of the entire response byte stream, the
	// fingerprint two replays of the same log must agree on.
	DownlinkCRC uint32
	// Duration is the wall-clock time of the run.
	Duration time.Duration
}

// Replay streams the WAL at opts.Dir into opts.Addr and drains the responses.
// It returns once the log is exhausted and the server has answered everything
// it will answer (the connection's write side is closed and the response
// stream read to EOF). The log is a source on the shared uplink sender: its
// records go out in append order, each due at its recorded offset scaled by
// opts.Rate.
func Replay(ctx context.Context, opts ReplayOptions) (ReplayResult, error) {
	var res ReplayResult
	sc, err := wal.NewScanner(opts.Dir)
	if err != nil {
		return res, err
	}
	defer sc.Close()
	src := &walSource{sc: sc, rate: opts.Rate}
	ur, err := uplink.Run(ctx, src, uplink.Config{Addr: opts.Addr})
	res = ReplayResult{
		Events:          src.events,
		Bytes:           src.bytes,
		Torn:            sc.Torn(),
		DownlinkRecords: uint64(ur.Records),
		DownlinkBytes:   ur.RecordBytes,
		DownlinkCRC:     ur.CRC,
		Duration:        ur.RecvTime,
	}
	if err != nil {
		return res, fmt.Errorf("replay: %w", err)
	}
	if l := opts.Logger; l != nil {
		l.Printf("replay: %d events (%d bytes) in %v, %d records back (%d bytes, crc %08x)",
			res.Events, res.Bytes, res.Duration.Round(time.Millisecond),
			res.DownlinkRecords, res.DownlinkBytes, res.DownlinkCRC)
	}
	return res, nil
}

// walSource yields a log's records as uplink events. A payload aliases its
// segment buffer, which the scanner never rewrites, so a write batch can
// hold several.
//
// The due clock is monotone over a log recorded across writer restarts: each
// writer stamps from its own Open, so a stamp below its predecessor's starts
// a new epoch, placed right after the previous record.
type walSource struct {
	sc   *wal.Scanner
	rate float64
	// last is the previous record's stamp; at is its offset on the replay
	// clock, the sum of the recorded gaps so far.
	last, at      uint64
	events, bytes uint64
}

func (w *walSource) Next() (uplink.Event, error) {
	rec, err := w.sc.Next()
	if err != nil {
		return uplink.Event{}, err
	}
	if w.events > 0 && rec.TsNanos > w.last {
		w.at += rec.TsNanos - w.last
	}
	w.last = rec.TsNanos
	w.events++
	w.bytes += uint64(len(rec.Payload))
	ev := uplink.Event{Wire: rec.Payload}
	if w.rate > 0 {
		ev.Due = time.Duration(float64(w.at) / w.rate)
	}
	return ev, nil
}
