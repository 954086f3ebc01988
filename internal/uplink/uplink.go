// Package uplink is the client side of the ingest protocol: one
// per-connection sender that puts framed events on a socket on a schedule and
// counts what comes back. cmd/loadgen drives every traffic mode through it and
// server.Replay feeds it a write-ahead log, so the repository has one send
// loop and one downlink record reader.
//
// A run takes events from a Source, each with a due offset from the start of
// the run. Every event due within Config.Burst of now joins the pending batch;
// the batch goes out as one vectored write when it is full or before the
// sender sleeps for a later event, so the syscall rate tracks the pacing
// granularity rather than the event rate. A concurrent reader per connection
// drains the downlink with adapt.RecordScanner, fingerprints it with CRC-32C
// and matches record event ids to send times for client-side latency.
//
// Fault runs add a Fault transform (damaged frames) and planned mid-event cuts
// (Event.Cut). After a cut the sender half-closes and redials with backoff;
// the reader of the old connection keeps counting the records still in
// flight, so every offered event is either answered or booked as corrupted or
// partial.
package uplink

import (
	"context"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"sync/atomic"
	"time"

	"github.com/wustl-adapt/hepccl/internal/adapt"
	"github.com/wustl-adapt/hepccl/internal/detector"
)

// DefaultBatch is the vectored-write cap when Config.Batch is zero.
const DefaultBatch = 64

// Event is one event as a Source yields it.
type Event struct {
	// Wire is the event's wire image. It must stay unchanged until the
	// sender has taken Config.Batch more events from the source.
	Wire []byte
	// Due is the event's send time as an offset from the start of the run.
	Due time.Duration
	// Cut, when positive, plans a mid-event disconnect: only Wire[:Cut] is
	// sent, then the connection is half-closed and redialed. The event counts
	// as partial.
	Cut int
}

// Source yields one connection's events in send order. io.EOF ends the run.
type Source interface {
	Next() (Event, error)
}

// Fault appends the chunks to transmit in place of wire to dst and reports
// whether it damaged the event. Chunks must stay unchanged until the sender
// has taken Config.Batch more events.
type Fault func(dst [][]byte, wire []byte) ([][]byte, bool)

// Config parameterizes one connection's run.
type Config struct {
	// Addr is the ingest endpoint.
	Addr string
	// Timeout bounds each dial, uplink write and downlink read; 0 sets no
	// deadlines.
	Timeout time.Duration
	// Burst is the pacing granularity: events due within it are sent without
	// a sleep.
	Burst time.Duration
	// Batch caps the events per vectored write (DefaultBatch when 0).
	Batch int
	// DialAttempts is the attempt budget of each (re)connect (1 when 0), and
	// Seed seeds the backoff jitter between attempts.
	DialAttempts int
	Seed         uint64
	// Reconnect makes a write error recoverable: the event it cut counts as
	// partial, the sender redials and re-sends the rest of the batch.
	// Without it a write error ends the run.
	Reconnect bool
	// Fault, when non-nil, transforms every event that is not cut.
	Fault Fault
	// Events, when positive, turns on latency matching: a record carrying
	// event id i < Events answers the i-th event sent.
	Events int
}

// Result is one run's client-side accounting.
type Result struct {
	// Sent counts events handed to the socket, whole or cut.
	Sent int
	// Records, Islands and RecordBytes tally the downlink.
	Records, Islands int
	RecordBytes      uint64
	// CRC is the CRC-32C of the downlink byte stream of a run that never
	// reconnected (zero otherwise).
	CRC uint32
	// Latencies holds one send-to-record time per matched record.
	Latencies []time.Duration
	// Corrupted counts events the Fault damaged; Partials counts events cut
	// mid-assembly by a planned or real disconnect.
	Corrupted, Partials int
	// Connects counts successful dials, Reconnects the ones after a cut, and
	// Retries the extra attempts backoff absorbed.
	Connects, Reconnects, Retries int
	// SendTime is when the last byte was written and RecvTime when the last
	// downlink closed, both from the start of the run.
	SendTime, RecvTime time.Duration
}

// pending is one event of the unflushed batch.
type pending struct {
	seq  int  // position in the source's order
	end  int  // index in sender.bufs one past the event's last chunk
	size int  // bytes
	lost bool // already booked as corrupted or partial
}

// sender is the state of one Run.
type sender struct {
	ctx    context.Context
	cfg    Config
	rng    *detector.RNG // backoff jitter
	start  time.Time
	nc     *net.TCPConn
	res    Result
	sendNs []atomic.Int64 // send time per sequence number, read by the readers
	segs   []chan segment
	bufs   net.Buffers
	pend   []pending
}

// Run sends src's events to cfg.Addr and returns once the source is exhausted
// and every connection's downlink has been read to its end.
func Run(ctx context.Context, src Source, cfg Config) (Result, error) {
	if cfg.Batch <= 0 {
		cfg.Batch = DefaultBatch
	}
	if cfg.DialAttempts <= 0 {
		cfg.DialAttempts = 1
	}
	s := &sender{ctx: ctx, cfg: cfg, rng: detector.NewRNG(cfg.Seed), start: time.Now(),
		pend: make([]pending, 0, cfg.Batch)}
	if cfg.Events > 0 {
		s.sendNs = make([]atomic.Int64, cfg.Events)
	}
	err := s.send(src)
	s.res.SendTime = time.Since(s.start)
	if s.nc != nil {
		if err != nil {
			s.nc.Close() // unblocks the reader
		} else if cerr := s.nc.CloseWrite(); cerr != nil {
			err = fmt.Errorf("uplink: %w", cerr)
		}
	}
	for _, done := range s.segs {
		seg := <-done
		s.res.Records += seg.records
		s.res.Islands += seg.islands
		s.res.RecordBytes += seg.bytes
		s.res.Latencies = append(s.res.Latencies, seg.lats...)
		if len(s.segs) == 1 {
			s.res.CRC = seg.crc
		}
		if seg.err != nil && err == nil {
			err = fmt.Errorf("downlink: %w", seg.err)
		}
	}
	s.res.RecvTime = time.Since(s.start)
	return s.res, err
}

// send is Run's uplink loop.
func (s *sender) send(src Source) error {
	if err := s.connect(); err != nil {
		return err
	}
	var chunks [][]byte
	for seq := 0; ; seq++ {
		ev, err := src.Next()
		if err == io.EOF {
			return s.flush()
		}
		if err != nil {
			return err
		}
		if wait := ev.Due - time.Since(s.start); wait > s.cfg.Burst {
			if err := s.flush(); err != nil {
				return err
			}
			t := time.NewTimer(wait)
			select {
			case <-s.ctx.Done():
				t.Stop()
				return s.ctx.Err()
			case <-t.C:
			}
		}
		s.res.Sent++
		if ev.Cut > 0 {
			s.add(seq, append(chunks[:0], ev.Wire[:ev.Cut]), true)
			s.res.Partials++
			if err := s.flush(); err != nil {
				return err
			}
			// A clean FIN lets the frames before the cut arrive before the
			// server sees the end of the stream.
			s.nc.CloseWrite()
			s.res.Reconnects++
			if err := s.connect(); err != nil {
				return err
			}
			continue
		}
		hit := false
		if s.cfg.Fault != nil {
			chunks, hit = s.cfg.Fault(chunks[:0], ev.Wire)
		} else {
			chunks = append(chunks[:0], ev.Wire)
		}
		if hit {
			s.res.Corrupted++
		}
		s.add(seq, chunks, hit)
		if len(s.pend) == s.cfg.Batch {
			if err := s.flush(); err != nil {
				return err
			}
		}
	}
}

// add appends one event's chunks to the pending batch.
func (s *sender) add(seq int, chunks [][]byte, lost bool) {
	size := 0
	for _, c := range chunks {
		size += len(c)
	}
	s.bufs = append(s.bufs, chunks...)
	s.pend = append(s.pend, pending{seq: seq, end: len(s.bufs), size: size, lost: lost})
}

// flush writes the pending batch as one vectored write, stamping each event's
// send time first. With Config.Reconnect, a write error books the event it
// cut as partial, redials and re-sends the events after it.
func (s *sender) flush() error {
	for len(s.pend) > 0 {
		if err := s.ctx.Err(); err != nil {
			return err
		}
		now := int64(time.Since(s.start))
		for _, p := range s.pend {
			if p.seq < len(s.sendNs) {
				s.sendNs[p.seq].Store(now)
			}
		}
		if s.cfg.Timeout > 0 {
			s.nc.SetWriteDeadline(time.Now().Add(s.cfg.Timeout))
		}
		bufs := s.bufs // WriteTo consumes its receiver
		n, err := bufs.WriteTo(s.nc)
		if err == nil {
			break
		}
		if !s.cfg.Reconnect {
			return fmt.Errorf("uplink: %w", err)
		}
		s.trim(n)
		s.nc.Close()
		s.res.Reconnects++
		if err := s.connect(); err != nil {
			return err
		}
	}
	s.bufs = s.bufs[:0] // WriteTo nil'ed the sent chunks
	s.pend = s.pend[:0]
	return nil
}

// trim drops from the batch what a failed write of n bytes disposed of: the
// events written whole, and the one the error cut, which counts as partial
// unless it was already lost. WriteTo touched no chunk after it, so what
// remains can be re-sent as is.
func (s *sender) trim(n int64) {
	k, first := 0, 0
	for ; k < len(s.pend) && n >= int64(s.pend[k].size); k++ {
		n -= int64(s.pend[k].size)
		first = s.pend[k].end
	}
	if k < len(s.pend) && n > 0 {
		if !s.pend[k].lost {
			s.res.Partials++
		}
		first = s.pend[k].end
		k++
	}
	s.pend = s.pend[:copy(s.pend, s.pend[k:])]
	for i := range s.pend {
		s.pend[i].end -= first
	}
	s.bufs = s.bufs[:copy(s.bufs, s.bufs[first:])]
}

// connect dials cfg.Addr and starts the new connection's downlink reader.
func (s *sender) connect() error {
	nc, retries, err := dialRetry(s.ctx, s.cfg.Addr, s.cfg.Timeout, s.rng, s.cfg.DialAttempts)
	s.res.Retries += retries
	if err != nil {
		s.nc = nil
		return err
	}
	s.res.Connects++
	s.nc = nc
	done := make(chan segment, 1)
	s.segs = append(s.segs, done)
	go func() {
		seg := readRecords(nc, s.cfg.Timeout, s.start, s.sendNs)
		nc.Close()
		done <- seg
	}()
	return nil
}

// dialRetry dials with exponential backoff plus jitter, as a field client
// facing a daemon that may be restarting would. It returns the connection and
// how many extra attempts the backoff absorbed.
func dialRetry(ctx context.Context, addr string, timeout time.Duration, rng *detector.RNG, attempts int) (*net.TCPConn, int, error) {
	d := net.Dialer{Timeout: timeout}
	backoff := 10 * time.Millisecond
	for try := 0; ; try++ {
		nc, err := d.DialContext(ctx, "tcp", addr)
		if err == nil {
			return nc.(*net.TCPConn), try, nil
		}
		if try+1 >= attempts || ctx.Err() != nil {
			return nil, try, fmt.Errorf("dial %s after %d attempts: %w", addr, try+1, err)
		}
		// Full jitter in [backoff/2, 3*backoff/2): staggered retries avoid a
		// reconnect stampede when every connection lost the daemon at once.
		time.Sleep(backoff/2 + time.Duration(rng.Float64()*float64(backoff)))
		if backoff *= 2; backoff > time.Second {
			backoff = time.Second
		}
	}
}

// castagnoli fingerprints downlink streams (CRC-32C).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// segment is one connection's downlink tally.
type segment struct {
	records, islands int
	bytes            uint64
	crc              uint32
	lats             []time.Duration
	err              error
}

// readRecords drains one connection's downlink to EOF. The scanner re-arms
// the read deadline every adapt.DeadlineRearmEvery records, not every record:
// at saturation the update would be a measurable share of client CPU, and a
// stalled server still trips the deadline armed at the head of the window.
// A record whose event id indexes sendNs yields one latency sample.
func readRecords(nc net.Conn, timeout time.Duration, start time.Time, sendNs []atomic.Int64) segment {
	var seg segment
	sc := adapt.NewRecordScanner(nc, adapt.NewDeadlineRearmer(nc, timeout))
	for {
		rec, err := sc.Next()
		if err != nil {
			if err != io.EOF {
				seg.err = fmt.Errorf("record stream: %w", err)
			}
			break
		}
		seg.bytes += uint64(len(rec))
		seg.crc = crc32.Update(seg.crc, castagnoli, rec)
		if id := adapt.RecordEventID(rec); int64(id) < int64(len(sendNs)) {
			seg.lats = append(seg.lats, time.Since(start)-time.Duration(sendNs[id].Load()))
		}
	}
	seg.records, seg.islands = sc.Records, sc.Islands
	return seg
}
