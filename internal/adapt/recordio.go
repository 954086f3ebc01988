package adapt

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"time"
)

// Downlink record stream I/O shared by every consumer of hepccld's response
// stream: loadgen's record readers and the gateway's backend-connection
// relays. A record is the EventRecord wire form — an 8-byte header (event
// id, island count) followed by fixed-size island entries.

const (
	// RecordHeaderBytes is the downlink record header size (event id + count).
	RecordHeaderBytes = 8
	// RecordIslandBytes is the size of one serialized island entry (label u32,
	// pixels u32, sum u64, row/col centroid Q16.16).
	RecordIslandBytes = 24
)

// DeadlineRearmEvery is how many reads one armed deadline covers. Re-arming
// per record is a measurable share of client CPU at saturation (records
// arrive tens of thousands of times per second on a shared loopback host); a
// stalled peer still trips the deadline armed at the head of the current
// window. Extracted from loadgen's reader so every consumer of the record
// stream amortizes identically.
const DeadlineRearmEvery = 64

// ReadDeadliner is the slice of net.Conn a DeadlineRearmer needs.
type ReadDeadliner interface {
	SetReadDeadline(t time.Time) error
}

// DeadlineRearmer arms a read deadline on the first Tick and every
// DeadlineRearmEvery-th thereafter. A zero timeout disables it.
type DeadlineRearmer struct {
	conn    ReadDeadliner
	timeout time.Duration
	n       uint64
}

// NewDeadlineRearmer returns a rearmer over conn. A zero timeout (or nil
// conn) yields a no-op rearmer.
func NewDeadlineRearmer(conn ReadDeadliner, timeout time.Duration) *DeadlineRearmer {
	return &DeadlineRearmer{conn: conn, timeout: timeout}
}

// Tick counts one read and re-arms the deadline at window boundaries.
//
//hepccl:hotpath
func (d *DeadlineRearmer) Tick() error {
	if d.timeout > 0 && d.n%DeadlineRearmEvery == 0 {
		//hepccl:coldpath
		if err := d.conn.SetReadDeadline(time.Now().Add(d.timeout)); err != nil {
			return err
		}
	}
	d.n++
	return nil
}

// RecordScanner frames downlink records off a response stream. Records are
// returned as raw wire bytes valid until the next call, so a relay can write
// them through verbatim and an analyzer can decode only the fields it needs.
type RecordScanner struct {
	br  *bufio.Reader
	arm *DeadlineRearmer
	// big is the spill buffer for a record larger than the read window
	// (island counts beyond ~3000; never seen from a real pipeline but the
	// scanner must not wedge on one).
	big []byte
	// Records and Islands count successfully framed records and their
	// aggregate island entries.
	Records int
	Islands int
}

// NewRecordScanner returns a scanner over r. arm may be nil (no deadline
// management — the caller owns it).
func NewRecordScanner(r io.Reader, arm *DeadlineRearmer) *RecordScanner {
	if arm == nil {
		arm = &DeadlineRearmer{}
	}
	return &RecordScanner{br: bufio.NewReaderSize(r, streamBufSize), arm: arm}
}

// Buffered reports un-consumed bytes in the read window; a relay flushes its
// downstream writer when no complete record remains buffered.
//
//hepccl:hotpath
func (rs *RecordScanner) Buffered() int { return rs.br.Buffered() }

// Next returns the raw bytes of the next record (header through last island
// entry), valid until the following call. It returns io.EOF only at a clean
// end of stream on a record boundary; a stream ending mid-record is an
// error.
//
//hepccl:hotpath
func (rs *RecordScanner) Next() ([]byte, error) {
	if err := rs.arm.Tick(); err != nil {
		//hepccl:coldpath
		return nil, wrapErr(err)
	}
	hdr, err := rs.br.Peek(RecordHeaderBytes)
	if err != nil {
		//hepccl:coldpath
		if err == io.EOF {
			if len(hdr) == 0 {
				return nil, io.EOF
			}
			return nil, fmt.Errorf("adapt: stream ended mid-record header (%d bytes)", len(hdr))
		}
		return nil, wrapErr(err)
	}
	n := int(binary.BigEndian.Uint32(hdr[4:]))
	total := RecordHeaderBytes + n*RecordIslandBytes
	rec, err := rs.br.Peek(total)
	if err == nil {
		rs.br.Discard(total)
		rs.Records++
		rs.Islands += n
		return rec, nil
	}
	//hepccl:coldpath
	if err == bufio.ErrBufferFull {
		// Oversized record: stage it through the spill buffer.
		//hepccl:amortized
		if cap(rs.big) < total {
			rs.big = make([]byte, total)
		}
		if _, err := io.ReadFull(rs.br, rs.big[:total]); err != nil {
			return nil, wrapErr(err)
		}
		rs.Records++
		rs.Islands += n
		return rs.big[:total], nil
	}
	//hepccl:coldpath
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return nil, fmt.Errorf("adapt: stream ended mid-record: have %d of %d bytes", len(rec), total)
	}
	//hepccl:coldpath
	return nil, wrapErr(err)
}

// RecordEventID reads the event id out of a framed record.
//
//hepccl:hotpath
func RecordEventID(rec []byte) uint32 { return binary.BigEndian.Uint32(rec) }
