package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/service"
)

// serverConfig is cmd/placed's default configuration: 2 workers, 1024
// cache entries, degradation on, presolve on, the always-on in-memory
// tracer, and the access log sent to a discard writer. The traced
// replay decodes requests with this same Config, so its options and
// digests match the server's.
func serverConfig() service.Config {
	return service.Config{
		Workers:         2,
		CacheEntries:    1024,
		MaxInFlight:     64,
		DefaultTimeout:  10 * time.Second,
		MaxTimeout:      time.Minute,
		DefaultPresolve: core.PresolveOn,
		Registry:        obs.NewRegistry(),
		Tracer:          obs.NewTracer(obs.TracerConfig{}),
		AccessLog:       io.Discard,
		SLOLatency:      500 * time.Millisecond,
		SLOWindow:       time.Hour,
		Degrade:         true,
		MaxSessions:     256,
		SessionTTL:      15 * time.Minute,
	}
}

// env is one in-process placed: the real service handler behind an
// http.Server on a loopback TCP listener.
type env struct {
	svc    *service.Server
	srv    *http.Server
	base   string
	served chan error
	// setupS is how long starting this server and preparing the
	// workload on it took.
	setupS float64
}

func startEnv() (*env, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	svc := service.New(serverConfig())
	e := &env{
		svc:    svc,
		srv:    &http.Server{Handler: svc.Handler(), ReadHeaderTimeout: 10 * time.Second},
		base:   "http://" + ln.Addr().String(),
		served: make(chan error, 1),
	}
	go func() { e.served <- e.srv.Serve(ln) }()
	return e, nil
}

// close shuts the listener and the worker pool down and waits for the
// serving goroutine to return.
func (e *env) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = e.srv.Shutdown(ctx) // a timeout here still closes the listener; Serve returns below
	<-e.served
	e.svc.Close()
}

// newClient returns one closed-loop caller with its own connection.
func (e *env) newClient(seed int64) (*client.Client, *http.Transport) {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}
	return client.New(e.base, client.Options{
		Seed:       seed,
		HTTPClient: &http.Client{Timeout: 2 * time.Minute, Transport: tr},
	}), tr
}

// stats reads /v1/stats over HTTP, as an operator would.
func (e *env) stats() (service.StatsResponse, error) {
	var st service.StatsResponse
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	resp, err := (&http.Client{Timeout: time.Minute, Transport: tr}).Get(e.base + "/v1/stats")
	if err != nil {
		return st, fmt.Errorf("stats: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("stats: status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, fmt.Errorf("stats body: %w", err)
	}
	return st, nil
}
