package adapt

import (
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"github.com/wustl-adapt/hepccl/internal/ccl"
	"github.com/wustl-adapt/hepccl/internal/centroid"
	"github.com/wustl-adapt/hepccl/internal/design"
	"github.com/wustl-adapt/hepccl/internal/detector"
	"github.com/wustl-adapt/hepccl/internal/grid"
)

func quietDigitizer() detector.DigitizerConfig {
	dig := detector.DefaultDigitizer()
	dig.NoiseRMS = 0
	return dig
}

func TestPacketRoundTrip(t *testing.T) {
	var p Packet
	p.Header = Header{Magic: PacketMagic, ASIC: 3, Flags: 1, Event: 1234, Timestamp: 99999, SamplesPerChannel: 4}
	for ch := 0; ch < ChannelsPerASIC; ch++ {
		p.Samples[ch] = []int32{int32(ch), int32(ch) + 1, 200, 4095}
	}
	buf, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) != p.WireSize() {
		t.Fatalf("wire size %d != %d", len(buf), p.WireSize())
	}
	var q Packet
	n, err := q.Unmarshal(buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(buf) {
		t.Fatalf("consumed %d of %d bytes", n, len(buf))
	}
	if q.ASIC != 3 || q.Event != 1234 || q.Timestamp != 99999 || q.Flags != 1 {
		t.Fatalf("header mismatch: %+v", q.Header)
	}
	for ch := 0; ch < ChannelsPerASIC; ch++ {
		for s := range p.Samples[ch] {
			if q.Samples[ch][s] != p.Samples[ch][s] {
				t.Fatalf("sample mismatch at ch %d s %d", ch, s)
			}
		}
	}
}

func TestPacketMarshalErrors(t *testing.T) {
	var p Packet
	p.SamplesPerChannel = 2
	// Wrong sample count.
	if _, err := p.Marshal(); err == nil {
		t.Fatal("missing samples must error")
	}
	for ch := 0; ch < ChannelsPerASIC; ch++ {
		p.Samples[ch] = []int32{0, 70000} // out of ADC range
	}
	if _, err := p.Marshal(); err == nil {
		t.Fatal("out-of-range sample must error")
	}
}

func TestPacketUnmarshalErrors(t *testing.T) {
	var p Packet
	p.Header = Header{ASIC: 0, Event: 1, SamplesPerChannel: 2}
	for ch := 0; ch < ChannelsPerASIC; ch++ {
		p.Samples[ch] = []int32{1, 2}
	}
	buf, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	var q Packet
	if _, err := q.Unmarshal(buf[:5]); err == nil {
		t.Error("truncated header must error")
	}
	if _, err := q.Unmarshal(buf[:len(buf)-3]); err == nil {
		t.Error("truncated payload must error")
	}
	bad := append([]byte{}, buf...)
	bad[0] = 0x00 // break magic
	if _, err := q.Unmarshal(bad); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Errorf("bad magic err = %v", err)
	}
	bad = append([]byte{}, buf...)
	bad[20] ^= 0xFF // corrupt a sample
	if _, err := q.Unmarshal(bad); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Errorf("checksum err = %v", err)
	}
}

// Property: marshal/unmarshal round-trips arbitrary sample data.
func TestPacketRoundTripProperty(t *testing.T) {
	f := func(samples [ChannelsPerASIC][3]uint16, asic uint8, event uint32) bool {
		var p Packet
		p.Header = Header{ASIC: asic, Event: event, SamplesPerChannel: 3}
		for ch := 0; ch < ChannelsPerASIC; ch++ {
			p.Samples[ch] = []int32{int32(samples[ch][0]), int32(samples[ch][1]), int32(samples[ch][2])}
		}
		buf, err := p.Marshal()
		if err != nil {
			return false
		}
		var q Packet
		if _, err := q.Unmarshal(buf); err != nil {
			return false
		}
		if q.ASIC != asic || q.Event != event {
			return false
		}
		for ch := 0; ch < ChannelsPerASIC; ch++ {
			for s := 0; s < 3; s++ {
				if q.Samples[ch][s] != p.Samples[ch][s] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestStageFunctions(t *testing.T) {
	if PedestalSubtract(3200, 3200) != 0 || PedestalSubtract(3100, 3200) != 0 {
		t.Error("pedestal subtraction must clamp at zero")
	}
	if PedestalSubtract(3280, 3200) != 80 {
		t.Error("pedestal subtraction wrong")
	}
	if PhotonCount(80, 40) != 2 || PhotonCount(99, 40) != 2 || PhotonCount(100, 40) != 3 {
		t.Error("photon counting must round to nearest")
	}
	if PhotonCount(80, 0) != 0 {
		t.Error("non-positive gain must yield zero")
	}
	if ZeroSuppress(2, 2) != 0 || ZeroSuppress(3, 2) != 3 {
		t.Error("zero suppression wrong")
	}
}

func TestNewPipelineValidation(t *testing.T) {
	bad := []Config{
		{},
		{ASICs: 1, SamplesPerChannel: 0, GainADC: 40},
		{ASICs: 1, SamplesPerChannel: 16, GainADC: 0},
		{ASICs: 1, SamplesPerChannel: 16, GainADC: 40,
			Detection: design.TopConfig{
				TwoDimension: true,
				TwoD:         design.Config{Rows: 8, Cols: 10, Connectivity: grid.FourWay},
			}}, // 80 px > 16 channels
		{ASICs: 1, SamplesPerChannel: 16, GainADC: 40,
			Detection: design.TopConfig{TwoDimension: true}}, // zero dims
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d must error", i)
		}
	}
}

func TestEndToEnd1DExactRecovery(t *testing.T) {
	cfg := DefaultADAPT()
	cfg.ASICs = 4 // 64 channels, keep it small
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	truth := make([]grid.Value, p.Channels())
	truth[5], truth[6], truth[7] = 10, 25, 8
	truth[40] = 12
	truth[63] = 5
	truth[20] = 1 // below threshold: must vanish
	packets, err := GenerateEvent(truth, cfg.ASICs, 7, 1000, quietDigitizer(), nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.ProcessEvent(packets)
	if err != nil {
		t.Fatal(err)
	}
	for ch, want := range truth {
		want = ZeroSuppress(want, cfg.ThresholdPE)
		if res.Values[ch] != want {
			t.Fatalf("channel %d recovered %d, want %d", ch, res.Values[ch], want)
		}
	}
	if res.OneD == nil || res.TwoD != nil {
		t.Fatal("1D mode must produce 1D output")
	}
	if len(res.OneD.Islands) != 3 {
		t.Fatalf("1D islands = %d, want 3", len(res.OneD.Islands))
	}
	first := res.OneD.Islands[0]
	if first.Start != 5 || first.End != 7 || first.Sum != 43 {
		t.Fatalf("island 0 = %+v", first)
	}
}

// floatCentroids is the float reference for a 2D result: centroid.All2D over
// the islands the design's labels cut from the merged image.
func floatCentroids(t *testing.T, p *Pipeline, res *EventResult) []centroid.Centroid2D {
	t.Helper()
	g, err := grid.FromFlat(p.rows, p.cols, res.Values[:p.rows*p.cols])
	if err != nil {
		t.Fatal(err)
	}
	return centroid.All2D(ccl.Islands(g, res.TwoD.Labels))
}

func TestEndToEnd2DCTAShower(t *testing.T) {
	cfg := DefaultCTA()
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cam := detector.LSTCamera()
	cam.CleaningThresholdPE = 0 // pipeline applies its own suppression
	rng := detector.NewRNG(5150)
	img := cam.Shower(detector.ShowerConfig{
		CenterRow: 20, CenterCol: 24, Length: 4, Width: 1.5, AngleRad: 0.7, TotalPE: 400,
	}, rng)

	flat := make([]grid.Value, p.Channels())
	copy(flat, img.Flat())
	packets, err := GenerateEvent(flat, cfg.ASICs, 1, 2000, quietDigitizer(), nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.ProcessEvent(packets)
	if err != nil {
		t.Fatal(err)
	}
	if res.TwoD == nil || res.OneD != nil {
		t.Fatal("2D mode must produce 2D output")
	}
	// The pipeline's labeling must match direct CCL on the zero-suppressed
	// truth image.
	want, err := ccl.Label(img.Threshold(cfg.ThresholdPE+1), ccl.Options{
		Connectivity: grid.FourWay, Mode: ccl.ModePaper,
		MergeTableCap: ccl.SizeFor(43, 43, grid.FourWay),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.TwoD.Labels.Isomorphic(want.Labels) {
		t.Fatal("pipeline labeling differs from direct CCL on the truth image")
	}
	cs := floatCentroids(t, p, res)
	if len(cs) == 0 {
		t.Fatal("no islands")
	}
	// The dominant island's centroid should be near the configured center.
	main := cs[0]
	for _, c := range cs {
		if c.Sum > main.Sum {
			main = c
		}
	}
	if dr, dc := main.Row-20, main.Col-24; dr*dr+dc*dc > 16 {
		t.Fatalf("main centroid (%.1f,%.1f) far from (20,24)", main.Row, main.Col)
	}
}

func TestProcessEventValidation(t *testing.T) {
	cfg := DefaultADAPT()
	cfg.ASICs = 2
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	good, err := GenerateEvent(nil, 2, 9, 0, quietDigitizer(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.ProcessEvent(good[:1]); err == nil {
		t.Error("missing packet must error")
	}
	dup := []Packet{good[0], good[0]}
	if _, err := p.ProcessEvent(dup); err == nil {
		t.Error("duplicate ASIC must error")
	}
	bad := []Packet{good[0], good[1]}
	bad[1].Event = 10
	if _, err := p.ProcessEvent(bad); err == nil {
		t.Error("event id mismatch must error")
	}
	bad = []Packet{good[0], good[1]}
	bad[1].ASIC = 5
	if _, err := p.ProcessEvent(bad); err == nil {
		t.Error("unknown ASIC must error")
	}
}

func TestCalibration(t *testing.T) {
	cfg := DefaultADAPT()
	cfg.ASICs = 2
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// A digitizer whose true pedestal differs from the nominal config.
	dig := quietDigitizer()
	dig.Pedestal = 231
	rng := detector.NewRNG(31)
	events, err := GeneratePedestalEvents(50, cfg.ASICs, dig, rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Calibrate(events); err != nil {
		t.Fatal(err)
	}
	want := int64(231 * dig.Samples)
	for ch := 0; ch < p.Channels(); ch++ {
		got := p.Pedestal(ch)
		if got < want-2 || got > want+2 {
			t.Fatalf("channel %d pedestal = %d, want ≈%d", ch, got, want)
		}
	}
	// The daemon's pass, which never holds the events, must land on the very
	// table Calibrate derives from them: the benchmark's oracle calibrates
	// one way, hepccld the other, from the same seed.
	measured, err := MeasurePedestals(50, cfg.ASICs, dig, detector.NewRNG(31))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(measured, p.pedestals) {
		t.Fatalf("MeasurePedestals = %v\nCalibrate gave    %v", measured, p.pedestals)
	}
	if err := p.SetPedestals(measured[1:]); err == nil {
		t.Error("a pedestal table of the wrong length must error")
	}
	// After calibration a modest signal is recovered despite the offset.
	truth := make([]grid.Value, p.Channels())
	truth[3] = 15
	packets, err := GenerateEvent(truth, cfg.ASICs, 1, 0, dig, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.ProcessEvent(packets)
	if err != nil {
		t.Fatal(err)
	}
	if res.Values[3] < 14 || res.Values[3] > 16 {
		t.Fatalf("recovered %d, want ≈15", res.Values[3])
	}
	if err := p.Calibrate(nil); err == nil {
		t.Error("empty calibration must error")
	}
}

func TestThroughputADAPT(t *testing.T) {
	p, err := New(DefaultADAPT())
	if err != nil {
		t.Fatal(err)
	}
	eps := p.EventsPerSecond()
	// §2: "it can process 300k events per second".
	if eps < 280e3 || eps > 320e3 {
		t.Fatalf("ADAPT pipeline = %.0f events/s, want ≈300k", eps)
	}
	if p.Bottleneck() != "island" {
		t.Fatalf("bottleneck = %q, want island", p.Bottleneck())
	}
	if len(p.StageIntervals()) != 6 {
		t.Fatal("expected six pipeline stages")
	}
}

func TestThroughputCTA(t *testing.T) {
	p, err := New(DefaultCTA())
	if err != nil {
		t.Fatal(err)
	}
	eps := p.EventsPerSecond()
	// §5.5: the 43×43 4-way design achieves the 15 kHz CTA target.
	if eps < 15000 || eps > 16000 {
		t.Fatalf("CTA pipeline = %.0f events/s, want ≈15.2k", eps)
	}
}

func TestEventRecordRoundTrip(t *testing.T) {
	rec := EventRecord{Event: 77, Islands: []IslandRecord{
		{Label: 1, Pixels: 4, Sum: 123, RowQ16: ToQ16(2.5), ColQ16: ToQ16(7.25)},
		{Label: 2, Pixels: 1, Sum: 9, RowQ16: ToQ16(0), ColQ16: ToQ16(42.0)},
	}}
	buf := rec.Marshal()
	got, err := UnmarshalEventRecord(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Event != 77 || len(got.Islands) != 2 {
		t.Fatalf("record = %+v", got)
	}
	if got.Islands[0].Row() != 2.5 || got.Islands[0].Col() != 7.25 {
		t.Fatalf("fixed point round trip: %+v", got.Islands[0])
	}
	if _, err := UnmarshalEventRecord(buf[:6]); err == nil {
		t.Error("truncated record must error")
	}
	if _, err := UnmarshalEventRecord(buf[:10]); err == nil {
		t.Error("short payload must error")
	}
}

func TestRecordOfBothModes(t *testing.T) {
	cfg := DefaultADAPT()
	cfg.ASICs = 2
	p, _ := New(cfg)
	truth := make([]grid.Value, p.Channels())
	truth[4], truth[5] = 10, 10
	packets, _ := GenerateEvent(truth, cfg.ASICs, 3, 0, quietDigitizer(), nil)
	res, err := p.ProcessEvent(packets)
	if err != nil {
		t.Fatal(err)
	}
	rec := RecordOf(res)
	if rec.Event != 3 || len(rec.Islands) != 1 {
		t.Fatalf("1D record = %+v", rec)
	}
	// centroid of equal 10,10 at channels 4,5 = 4.5.
	if got := rec.Islands[0].Col(); got != 4.5 {
		t.Fatalf("1D centroid = %v, want 4.5", got)
	}

	// 2D mode.
	cfg2 := DefaultCTA()
	cfg2.Detection.TwoD.Rows, cfg2.Detection.TwoD.Cols = 8, 10
	cfg2.ASICs = 5
	p2, err := New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	truth2 := make([]grid.Value, p2.Channels())
	truth2[0], truth2[1] = 10, 10
	packets2, _ := GenerateEvent(truth2, cfg2.ASICs, 4, 0, quietDigitizer(), nil)
	res2, err := p2.ProcessEvent(packets2)
	if err != nil {
		t.Fatal(err)
	}
	rec2 := RecordOf(res2)
	if len(rec2.Islands) != 1 || rec2.Islands[0].Pixels != 2 {
		t.Fatalf("2D record = %+v", rec2)
	}
	if rec2.Islands[0].Row() != 0 || rec2.Islands[0].Col() != 0.5 {
		t.Fatalf("2D centroid = (%v,%v), want (0,0.5)",
			rec2.Islands[0].Row(), rec2.Islands[0].Col())
	}
}

func TestToQ16Saturation(t *testing.T) {
	if ToQ16(1e9) != 1<<31-1 {
		t.Error("positive saturation")
	}
	if ToQ16(-1e9) != -(1 << 31) {
		t.Error("negative saturation")
	}
	if ToQ16(1.5) != 98304 {
		t.Error("1.5 in Q16.16 = 98304")
	}
}

// TestQ16CentroidBound: New refuses a frame side or a 1D channel count past
// 32,768, whose far centroids a Q16.16 record field would wrap negative, and
// the longest it accepts serves its last coordinate exactly.
func TestQ16CentroidBound(t *testing.T) {
	oneD := func(asics int) Config {
		cfg := DefaultADAPT()
		cfg.ASICs = asics
		return cfg
	}
	for i, cfg := range []Config{DefaultFrame(1, 40000), DefaultFrame(32769, 1), oneD(2049)} {
		if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "Q16.16") {
			t.Errorf("config %d: err = %v, want a Q16.16 refusal", i, err)
		}
	}
	for _, cfg := range []Config{DefaultFrame(1, 32768), oneD(2048)} {
		p, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		truth := make([]grid.Value, 32768)
		truth[32767] = 10
		dig := quietDigitizer()
		dig.Samples = cfg.SamplesPerChannel
		packets, err := GenerateEvent(truth, cfg.ASICs, 1, 0, dig, nil)
		if err != nil {
			t.Fatal(err)
		}
		var rec EventRecord
		if err := p.ServeEvent(packets, &rec); err != nil {
			t.Fatal(err)
		}
		if len(rec.Islands) != 1 || rec.Islands[0].ColQ16 != 32767<<16 {
			t.Errorf("%d ASICs: record %+v, want one island at ColQ16 %d", cfg.ASICs, rec.Islands, 32767<<16)
		}
	}
}

func TestGenerateEventErrors(t *testing.T) {
	dig := quietDigitizer()
	if _, err := GenerateEvent(nil, 0, 0, 0, dig, nil); err == nil {
		t.Error("zero ASICs must error")
	}
	if _, err := GenerateEvent(make([]grid.Value, 33), 2, 0, 0, dig, nil); err == nil {
		t.Error("too many channels must error")
	}
	dig.Samples = 0
	if _, err := GenerateEvent(nil, 1, 0, 0, dig, nil); err == nil {
		t.Error("bad window must error")
	}
}

func TestHardwareCentroidsMatchSoftware(t *testing.T) {
	cfg := DefaultCTA()
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cam := detector.LSTCamera()
	cam.CleaningThresholdPE = 0
	rng := detector.NewRNG(616)
	img := cam.Shower(cam.TypicalShower(rng), rng)
	flat := make([]grid.Value, p.Channels())
	copy(flat, img.Flat())
	packets, err := GenerateEvent(flat, cfg.ASICs, 1, 0, quietDigitizer(), nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.ProcessEvent(packets)
	if err != nil {
		t.Fatal(err)
	}
	if res.HardwareCentroids == nil {
		t.Fatal("2D mode must produce hardware centroids")
	}
	hw := res.HardwareCentroids.Centroids
	cs := floatCentroids(t, p, res)
	if len(hw) != len(cs) {
		t.Fatalf("hw %d vs sw %d centroids", len(hw), len(cs))
	}
	for i, sw := range cs {
		if hw[i].Label != sw.Label || hw[i].Sum != sw.Sum {
			t.Fatalf("centroid %d identity mismatch", i)
		}
		if d := hw[i].Row() - sw.Row; d > 1e-4 || d < -1e-4 {
			t.Fatalf("centroid %d row: hw %v vs sw %v", i, hw[i].Row(), sw.Row)
		}
		if d := hw[i].Col() - sw.Col; d > 1e-4 || d < -1e-4 {
			t.Fatalf("centroid %d col: hw %v vs sw %v", i, hw[i].Col(), sw.Col)
		}
	}
	// The downlink record carries the hardware values verbatim.
	rec := RecordOf(res)
	if len(rec.Islands) != len(hw) {
		t.Fatal("record count mismatch")
	}
	for i := range hw {
		if rec.Islands[i].RowQ16 != hw[i].RowQ16 || rec.Islands[i].ColQ16 != hw[i].ColQ16 {
			t.Fatalf("record %d not from hardware centroids", i)
		}
	}
	// And the centroid stage never bottlenecks the dataflow.
	if res.HardwareCentroids.Report.LatencyCycles >= res.TwoD.Report.LatencyCycles {
		t.Fatal("centroid stage should be cheaper than labeling")
	}
}
