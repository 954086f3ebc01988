package gateway

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"net"
	"net/http"
	"testing"
	"time"

	"github.com/wustl-adapt/hepccl/internal/adapt"
	"github.com/wustl-adapt/hepccl/internal/detector"
	"github.com/wustl-adapt/hepccl/internal/server"
)

// startCannedBackend stands in for hepccld at the far end of a relay: it takes
// events of one fixed wire size and answers each with an empty record carrying
// the event's id, so a relay measurement prices the gateway and its sockets,
// not serving. It returns the ingest and health addresses.
func startCannedBackend(tb testing.TB, eventBytes int) (addr, stats string) {
	tb.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	hl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	health, err := json.Marshal(server.HealthSnapshot{State: server.HealthOK})
	if err != nil {
		tb.Fatal(err)
	}
	hs := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) { w.Write(health) })}
	go hs.Serve(hl)
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			go answerCanned(nc, eventBytes)
		}
	}()
	tb.Cleanup(func() {
		ln.Close()
		hs.Close()
	})
	return ln.Addr().String(), hl.Addr().String()
}

// answerCanned answers every eventBytes-long event on nc with an empty record
// for its id (bytes 4–7 of its first frame), flushing whenever no further whole
// event is buffered, and closes nc at the peer's end of stream.
func answerCanned(nc net.Conn, eventBytes int) {
	defer nc.Close()
	br := bufio.NewReaderSize(nc, 64<<10)
	bw := bufio.NewWriterSize(nc, 64<<10)
	var rec [adapt.RecordHeaderBytes]byte
	for {
		hdr, err := br.Peek(adapt.PacketHeaderBytes)
		if err == nil {
			copy(rec[:4], hdr[4:8])
			_, err = br.Discard(eventBytes)
		}
		if err != nil {
			bw.Flush()
			return
		}
		bw.Write(rec[:])
		if br.Buffered() < eventBytes && bw.Flush() != nil {
			return
		}
	}
}

// relayCorpus digitizes n tracker events of cfg's geometry, ids 0..n-1, and
// returns their wire images.
func relayCorpus(tb testing.TB, cfg adapt.Config, n int) [][]byte {
	tb.Helper()
	rng := detector.NewRNG(5)
	dig := detector.DefaultDigitizer()
	dig.Samples = cfg.SamplesPerChannel
	tracker := detector.DefaultTracker()
	tracker.Channels = cfg.ASICs * adapt.ChannelsPerASIC
	corpus := make([][]byte, n)
	for i := range corpus {
		ev, err := adapt.GenerateEvent(tracker.Event(rng).Values, cfg.ASICs, uint32(i), uint64(i), dig, rng)
		if err != nil {
			tb.Fatal(err)
		}
		for p := range ev {
			f, err := ev[p].Marshal()
			if err != nil {
				tb.Fatal(err)
			}
			corpus[i] = append(corpus[i], f...)
		}
	}
	return corpus
}

// BenchmarkRelay prices one relayed event: a client streams a cold corpus of
// 512 CTA events (116 frames of 4 samples, 17 KB each) through the gateway to
// one canned backend and reads every record back, in order. Both hops are
// loopback TCP and the backend shares the process, so ns/op is an upper bound
// on what the gateway itself spends per event.
func BenchmarkRelay(b *testing.B) {
	pcfg := adapt.DefaultCTA()
	pcfg.SamplesPerChannel = 4
	corpus := relayCorpus(b, pcfg, 512)
	addr, stats := startCannedBackend(b, len(corpus[0]))
	g, err := New(Config{
		ASICs:         pcfg.ASICs,
		Backends:      []BackendSpec{{Addr: addr, StatsAddr: stats}},
		ProbeInterval: time.Hour,
	})
	if err != nil {
		b.Fatal(err)
	}
	go g.ListenAndServe("127.0.0.1:0")
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		g.Shutdown(ctx)
	}()
	for deadline := time.Now().Add(5 * time.Second); g.Addr() == nil; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			b.Fatal("gateway never bound")
		}
	}
	nc, err := net.Dial("tcp", g.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer nc.Close()

	b.SetBytes(int64(len(corpus[0])))
	b.ReportAllocs()
	b.ResetTimer()
	sent := make(chan error, 1)
	go func() {
		bw := bufio.NewWriterSize(nc, 64<<10)
		for i := 0; i < b.N; i++ {
			if _, err := bw.Write(corpus[i%len(corpus)]); err != nil {
				sent <- err
				return
			}
		}
		if err := bw.Flush(); err != nil {
			sent <- err
			return
		}
		sent <- nc.(*net.TCPConn).CloseWrite()
	}()
	sc := adapt.NewRecordScanner(nc, nil)
	for i := 0; i < b.N; i++ {
		rec, err := sc.Next()
		if err != nil {
			b.Fatalf("record %d of %d: %v", i, b.N, err)
		}
		if got, want := adapt.RecordEventID(rec), binary.BigEndian.Uint32(corpus[i%len(corpus)][4:]); got != want {
			b.Fatalf("record %d answers event %d, want %d", i, got, want)
		}
	}
	b.StopTimer()
	if err := <-sent; err != nil {
		b.Fatal(err)
	}
	if snap := g.StatsSnapshot(); snap.Relayed != uint64(b.N) || snap.ClientErrors != 0 {
		b.Fatalf("relayed %d of %d, %d client errors", snap.Relayed, b.N, snap.ClientErrors)
	}
}
