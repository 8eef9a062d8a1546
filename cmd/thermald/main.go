// Command thermald serves multitherm simulations over HTTP: sharded
// across a persistent worker pool, coalesced into cross-request GEMM
// batches, and fronted by a result cache keyed by each cell's
// normalized spec, so every spelling of one cell shares an entry.
//
// A batch holds up to sim.DefaultBatchSize() cells, the sweep engine's
// lane count; -window sets how long a lone cell waits for batchmates,
// and -window 0 turns coalescing off.
//
// Endpoints:
//
//	POST /v1/sim         one cell -> canonical JSON result
//	POST /v1/sweep       many cells -> {"cells":[...]} in request order
//	POST /v1/sim/trace   one cell -> NDJSON temperature/command stream
//	GET  /v1/stats       admission, cache, and batching counters
//	POST /v1/admin/flush empty the result cache
//	GET  /healthz        liveness
//
// SIGINT/SIGTERM drain gracefully: the listener stops accepting, open
// requests finish, pending batches flush, the pool joins, then the
// process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"multitherm/internal/serve"
)

// Ceilings for the operator-tunable sizes; generous for any real
// deployment, small enough that a mistyped flag fails fast instead of
// allocating gigabytes.
const (
	maxWorkersFlag  = 4096
	maxQueueFlag    = 1 << 20
	maxCacheFlag    = 1 << 20
	maxWindowFlag   = time.Minute
	maxSimTimeFlagS = 3600.0
)

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(2)
}

func main() {
	addr := flag.String("addr", "127.0.0.1:7016", "listen address (host:port; port 0 picks a free port)")
	workers := flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
	window := flag.Duration("window", 2*time.Millisecond, "batching window a lone cell waits for batchmates (0 disables coalescing)")
	queue := flag.Int("queue", 0, "admission watermark in cells before 429 shedding (0 = 1024)")
	cache := flag.Int("cache", serve.DefaultCacheEntries, "result cache entries (0 disables caching)")
	maxSim := flag.Float64("max-simtime", 0, "per-cell simulated-time cap in seconds (0 = 2)")
	flag.Parse()

	// Operator flags still size pools, queues, and caches; clamp them
	// against named ceilings so a typo cannot allocate the machine away
	// (scripts/servesmoke.sh pins each ceiling).
	if *workers < 0 || *workers > maxWorkersFlag {
		fatalf("thermald: -workers %d out of range [0, %d]", *workers, maxWorkersFlag)
	}
	if *window < 0 || *window > maxWindowFlag {
		fatalf("thermald: -window %v out of range [0, %v]", *window, maxWindowFlag)
	}
	if *queue < 0 || *queue > maxQueueFlag {
		fatalf("thermald: -queue %d out of range [0, %d]", *queue, maxQueueFlag)
	}
	if *cache < 0 || *cache > maxCacheFlag {
		fatalf("thermald: -cache %d out of range [0, %d]", *cache, maxCacheFlag)
	}
	if *maxSim < 0 || *maxSim > maxSimTimeFlagS {
		fatalf("thermald: -max-simtime %g out of range [0, %g]", *maxSim, maxSimTimeFlagS)
	}

	srv := serve.New(serve.Config{
		Workers:          *workers,
		Window:           *window,
		CacheEntries:     *cache,
		MaxInflightCells: *queue,
		MaxSimTimeS:      *maxSim,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "thermald: %v\n", err)
		os.Exit(1)
	}
	// The resolved address line is the startup contract scripts parse;
	// with port 0 it is the only way to learn the port.
	fmt.Printf("thermald: listening on http://%s\n", ln.Addr())

	hs := &http.Server{Handler: srv.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	select {
	case <-ctx.Done():
		fmt.Println("thermald: draining")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := hs.Shutdown(shutdownCtx); err != nil {
			fmt.Fprintf(os.Stderr, "thermald: shutdown: %v\n", err)
		}
		srv.Close()
		fmt.Println("thermald: drained")
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "thermald: %v\n", err)
			os.Exit(1)
		}
	}
}
