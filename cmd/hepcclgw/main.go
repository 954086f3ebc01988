// Command hepcclgw is the scale-out event gateway: it accepts ALPHA packet
// streams exactly like hepccld, but instead of running pipelines it
// consistent-hashes each event by event id across a fleet of hepccld
// backends, relaying the downlink records back on the offering connection.
// Backend health is probed from each hepccld's three-state /healthz; slots
// spill away from degraded backends, overloaded ones are held-and-retried
// then shed with exact accounting, and backends can be drained out and
// hot re-added at runtime via the admin endpoint.
//
// Usage:
//
//	hepcclgw -listen :9300 -stats :9301 -config adapt \
//	    -backends 127.0.0.1:9310=127.0.0.1:9311,127.0.0.1:9320=127.0.0.1:9321
//
// Each -backends entry is dataAddr=statsAddr. The -stats endpoint serves
// GET /stats (aggregated fleet counters), GET /healthz (fleet health; 503
// when no backend is routable), POST /drain?addr=dataAddr, and
// POST /add?addr=dataAddr&stats=statsAddr.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/wustl-adapt/hepccl/internal/adapt"
	"github.com/wustl-adapt/hepccl/internal/gateway"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:], os.Stderr)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "hepcclgw:", err)
		os.Exit(1)
	}
}

// run serves the gateway until ctx ends (main's ctx ends on SIGINT or
// SIGTERM), then drains it and returns.
func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("hepcclgw", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		listen     = fs.String("listen", "127.0.0.1:9300", "client-facing event listen address")
		statsAddr  = fs.String("stats", "", "admin endpoint address: /stats /healthz /drain /add (empty disables)")
		backends   = fs.String("backends", "", "comma-separated backend list, each dataAddr=statsAddr")
		configName = fs.String("config", "cta", "fleet pipeline configuration: adapt (1D) or cta (2D 43x43); sets frames per event")
		asics      = fs.Int("asics", 0, "frames per event override (0 keeps the config default)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg, err := buildConfig(*configName, *asics, *backends)
	if err != nil {
		return err
	}
	cfg.StatsAddr = *statsAddr
	cfg.Logger = log.New(out, "", log.LstdFlags)

	gw, err := gateway.New(cfg)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	cfg.Logger.Printf("hepcclgw: relaying on %s to %d backends", ln.Addr(), len(cfg.Backends))
	errc := make(chan error, 1)
	go func() { errc <- gw.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		cfg.Logger.Printf("hepcclgw: signal received, draining")
		sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := gw.Shutdown(sctx); err != nil {
			return err
		}
		<-errc // ErrGatewayClosed
		snap := gw.StatsSnapshot()
		cfg.Logger.Printf("hepcclgw: drained: offered=%d relayed=%d shed=%d inflight=%d",
			snap.Offered, snap.Relayed, snap.Shed.Total(), snap.Inflight)
		return nil
	}
}

// buildConfig resolves the pipeline geometry and backend list.
func buildConfig(configName string, asics int, backends string) (gateway.Config, error) {
	var pcfg adapt.Config
	switch configName {
	case "adapt":
		pcfg = adapt.DefaultADAPT()
	case "cta":
		pcfg = adapt.DefaultCTA()
	default:
		return gateway.Config{}, fmt.Errorf("unknown -config %q", configName)
	}
	if asics == 0 {
		asics = pcfg.ASICs
	}
	cfg := gateway.Config{ASICs: asics}
	if backends == "" {
		return gateway.Config{}, fmt.Errorf("-backends is required")
	}
	for _, item := range strings.Split(backends, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		data, stats, ok := strings.Cut(item, "=")
		if !ok || data == "" || stats == "" {
			return gateway.Config{}, fmt.Errorf("-backends entry %q: want dataAddr=statsAddr", item)
		}
		cfg.Backends = append(cfg.Backends, gateway.BackendSpec{Addr: data, StatsAddr: stats})
	}
	return cfg, nil
}
