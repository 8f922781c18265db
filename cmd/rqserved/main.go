// Command rqserved serves the ratio-quality engine over HTTP: compression,
// decompression, and profile-cached model queries (estimate/solve answered
// in O(sample) from one sampling pass, no compression run). See
// internal/service for the endpoint contract and rqm/client (or
// `rqc -remote`) for the client side.
//
// Usage:
//
//	rqserved -addr :8080
//	rqserved -addr :8080 -codec prediction -predictor lorenzo -mode rel -eb 1e-3 \
//	         -max-inflight 32 -cache 256
//	rqserved -addr :8080 -store-dir /var/lib/rqm   # enable /v1/datasets
//
// POST /v1/compress streams chunked when the body is at least 64 MiB
// (service.DefaultStreamThreshold), asks for a model target, or sets
// stream=1.
//
// With -store-dir the server also hosts the persistent dataset archive:
// PUT/GET/DELETE /v1/datasets/{name}, random-access slice reads, and
// model-guided recompaction (see internal/store).
//
// The server drains in-flight requests on SIGINT/SIGTERM (graceful
// shutdown, 15 s budget).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"rqm"
	"rqm/internal/service"
	"rqm/internal/store"
)

func main() {
	codecNames := strings.Join(rqm.CodecNames(), "|")
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		codecName = flag.String("codec", rqm.CodecPredictionName, codecNames)
		predName  = flag.String("predictor", "lorenzo", "lorenzo|lorenzo2|interpolation|interpolation-cubic|regression")
		mode      = flag.String("mode", "rel", "abs|rel|pwrel (default error-bound mode)")
		eb        = flag.Float64("eb", 1e-3, "default error bound (mode semantics)")
		lossless  = flag.String("lossless", "none", "none|rle|lz77|flate")
		workers   = flag.Int("workers", 0, "engine worker count (0 = GOMAXPROCS)")
		inflight  = flag.Int("max-inflight", 0, "concurrent heavy requests before 429 (0 = 4x workers)")
		cacheSize = flag.Int("cache", 128, "profile LRU cache entries")
		sample    = flag.Float64("sample", 0, "model sampling rate for profiles (0 = paper default 1%)")
		storeDir  = flag.String("store-dir", "",
			"host the persistent dataset archive at this directory (empty disables /v1/datasets)")
		pprofAddr = flag.String("pprof-addr", "",
			"serve net/http/pprof on this address (e.g. localhost:6060); empty disables")
	)
	flag.Parse()

	if *pprofAddr != "" {
		go servePprof(*pprofAddr)
	}

	eng, err := buildEngine(*codecName, *predName, *mode, *eb, *lossless, *workers)
	if err != nil {
		fatal(err)
	}
	var st *store.Store
	if *storeDir != "" {
		if st, err = store.Open(*storeDir); err != nil {
			fatal(err)
		}
		_, n := st.Bytes()
		log.Printf("rqserved: dataset store at %s (%d datasets)", *storeDir, n)
	}
	svc, err := service.New(service.Config{
		Engine:           eng,
		Model:            rqm.ModelOptions{SampleRate: *sample},
		MaxInflight:      *inflight,
		ProfileCacheSize: *cacheSize,
		Store:            st,
	})
	if err != nil {
		fatal(err)
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           svc,
		ReadHeaderTimeout: 10 * time.Second,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("rqserved: listening on %s (codec %s, %s %g, cache %d profiles)",
		*addr, eng.Codec().Name(), *mode, *eb, *cacheSize)

	select {
	case err := <-errc:
		fatal(err)
	case <-ctx.Done():
	}
	// Flip readiness before closing the listener: routers probing /healthz
	// see 503 "draining" and stop sending new work here while in-flight
	// requests finish.
	svc.BeginDrain()
	log.Printf("rqserved: draining in-flight requests")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal(err)
	}
	log.Printf("rqserved: stopped")
}

// buildEngine resolves the flag set into a configured engine.
func buildEngine(codecName, predName, mode string, eb float64, lossless string, workers int) (*rqm.Engine, error) {
	kind, err := rqm.ParsePredictorKind(predName)
	if err != nil {
		return nil, err
	}
	m, err := rqm.ParseErrorMode(mode)
	if err != nil {
		return nil, err
	}
	ll, err := rqm.ParseLosslessKind(lossless)
	if err != nil {
		return nil, err
	}
	opts := []rqm.EngineOption{
		rqm.WithCodecName(codecName),
		rqm.WithPredictor(kind),
		rqm.WithMode(m),
		rqm.WithErrorBound(eb),
		rqm.WithLossless(ll),
	}
	if workers > 0 {
		opts = append(opts, rqm.WithConcurrency(workers))
	}
	return rqm.NewEngine(opts...)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rqserved:", err)
	os.Exit(1)
}
