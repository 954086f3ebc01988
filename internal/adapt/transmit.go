package adapt

import (
	"encoding/binary"
	"fmt"
	"math"

	"github.com/wustl-adapt/hepccl/internal/runccl"
)

// Transmit stage: event results are packed into compact records for the
// downlink (Fig 3's final "Transmit" box). Position centroids use Q16.16
// fixed point, since the FPGA has no floating-point downlink format.

// IslandRecord is one island's downlink summary: the run labeler's island
// type, so the run sink labels straight into the record.
type IslandRecord = runccl.Island

// ToQ16 converts a coordinate to Q16.16, saturating at the format bounds.
func ToQ16(v float64) int32 {
	s := v * 65536
	switch {
	case s > math.MaxInt32:
		return math.MaxInt32
	case s < math.MinInt32:
		return math.MinInt32
	default:
		return int32(math.Round(s))
	}
}

// EventRecord is the downlink record of one processed event.
type EventRecord struct {
	Event   uint32
	Islands []IslandRecord
}

// RecordOf converts a pipeline result into its downlink record.
func RecordOf(res *EventResult) EventRecord {
	rec := EventRecord{Event: res.Event}
	if res.OneD != nil {
		for _, is := range res.OneD.Islands {
			rec.Islands = append(rec.Islands, IslandRecord{
				Label:  int32(len(rec.Islands) + 1),
				Pixels: uint32(is.Width()),
				Sum:    is.Sum,
				RowQ16: 0,
				ColQ16: ToQ16(is.Centroid),
			})
		}
		return rec
	}
	// 2D mode: the downlink carries the streaming centroid stage's
	// fixed-point output directly — no float ever exists on the FPGA.
	for _, c := range res.HardwareCentroids.Centroids {
		rec.Islands = append(rec.Islands, IslandRecord{
			Label:  c.Label,
			Pixels: uint32(c.Pixels),
			Sum:    c.Sum,
			RowQ16: c.RowQ16,
			ColQ16: c.ColQ16,
		})
	}
	return rec
}

// Marshal serializes the record: event id, island count, then fixed-size
// island entries, all big-endian.
func (rec *EventRecord) Marshal() []byte {
	return rec.AppendTo(make([]byte, 0, RecordHeaderBytes+RecordIslandBytes*len(rec.Islands)))
}

// AppendTo serializes the record onto buf, reusing its capacity.
//
//hepccl:hotpath
func (rec *EventRecord) AppendTo(buf []byte) []byte {
	buf = binary.BigEndian.AppendUint32(buf, rec.Event)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(rec.Islands)))
	for _, is := range rec.Islands {
		buf = binary.BigEndian.AppendUint32(buf, uint32(is.Label))
		buf = binary.BigEndian.AppendUint32(buf, is.Pixels)
		buf = binary.BigEndian.AppendUint64(buf, uint64(is.Sum))
		buf = binary.BigEndian.AppendUint32(buf, uint32(is.RowQ16))
		buf = binary.BigEndian.AppendUint32(buf, uint32(is.ColQ16))
	}
	return buf
}

// UnmarshalEventRecord parses a downlink record.
func UnmarshalEventRecord(data []byte) (EventRecord, error) {
	var rec EventRecord
	if len(data) < 8 {
		return rec, fmt.Errorf("adapt: truncated event record")
	}
	rec.Event = binary.BigEndian.Uint32(data)
	n := int(binary.BigEndian.Uint32(data[4:]))
	const entry = RecordIslandBytes
	if len(data) < 8+n*entry {
		return rec, fmt.Errorf("adapt: event record claims %d islands, payload too short", n)
	}
	off := 8
	for i := 0; i < n; i++ {
		rec.Islands = append(rec.Islands, IslandRecord{
			Label:  int32(binary.BigEndian.Uint32(data[off:])),
			Pixels: binary.BigEndian.Uint32(data[off+4:]),
			Sum:    int64(binary.BigEndian.Uint64(data[off+8:])),
			RowQ16: int32(binary.BigEndian.Uint32(data[off+16:])),
			ColQ16: int32(binary.BigEndian.Uint32(data[off+20:])),
		})
		off += entry
	}
	return rec, nil
}
