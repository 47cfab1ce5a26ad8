package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/service"
)

const (
	// hotSet is the number of Table-I instances repeated as cache hits:
	// instance seeds 1..hotSet, the same fixed set offline-table1
	// solves. The first half travel as generate specs, the rest as
	// explicit tile lists. A hit's cost grows with its instance's
	// modules, so a hot set drawn from the workload seed moved
	// op_p50_ms between seeds; the workload seed draws the request
	// sequence instead.
	hotSet = 8
	// coldEvery is the block of requests in which a client sends exactly
	// one cold request, at a position drawn from the workload seed; the
	// rest, 90 %, are hits.
	coldEvery = 10
	// smallFabric hosts the cold instances: a homogeneous catalog
	// device on which every small batch is feasible.
	smallFabric = "spartan-like-24x16"
	// coldPool is the number of small instances the cold requests cycle
	// through: small instance seeds 1..coldPool. Each request carries a
	// timeoutMs of its own, which is part of the cache key and is never
	// reached, so every one is a cold solve of the same search. A fresh
	// instance per request made the set of solves differ between seeds,
	// which spread miss_p50_ms by 0.24 (IQR over median, five seeds).
	coldPool = 16
)

// hotOpts solves the hot set with a first-solution dive: a hit costs
// the same whatever the solve did, and a short warm-up keeps set-up
// small enough to repeat.
var hotOpts = service.OptionsSpec{FirstSolutionOnly: true, TimeoutMs: 10000}

// smallOpts are the cold instances' options; they cold-solve in tens
// of milliseconds.
var smallOpts = service.OptionsSpec{StallNodes: 100, TimeoutMs: 10000}

func smallSpec(seed int64) service.GenerateSpec {
	return service.GenerateSpec{Seed: seed, NumModules: 5, CLBMin: 10, CLBMax: 40, NoBRAM: true, Alternatives: 4}
}

// mixed is cached /v1/place traffic from two closed-loop clients: nine
// in ten requests repeat a fixed hot set solved during set-up, the rest
// are cold solves of small instances that compete for the same two
// cores. The workload seed draws the request sequence.
type mixed struct {
	seed  int64
	hot   []*instance
	forms []string
	body  [][]byte
	cold  []*instance
}

func (w *mixed) prepare(e *env) error {
	w.hot, w.forms, w.body, w.cold = nil, nil, nil, nil
	for k := int64(1); k <= coldPool; k++ {
		in, err := newInstance(smallFabric, smallSpec(k))
		if err != nil {
			return err
		}
		w.cold = append(w.cold, in)
	}
	for k := 0; k < hotSet; k++ {
		in, err := newInstance(tableIFabric, tableISpec(int64(k)+1))
		if err != nil {
			return err
		}
		form := formGenerate
		if k >= hotSet/2 {
			form = formExplicit
		}
		body, err := in.body(form, hotOpts)
		if err != nil {
			return err
		}
		w.hot, w.forms, w.body = append(w.hot, in), append(w.forms, form), append(w.body, body)
	}
	cl, conn := e.newClient(w.seed)
	defer conn.CloseIdleConnections()
	warm := &phase{}
	for k, in := range w.hot {
		sendPlace(cl, warm, nil, in, w.forms[k], w.body[k])
	}
	if len(warm.violations) > 0 || warm.failed() > 0 {
		return fmt.Errorf("warming the hot set: %v %v", warm.violations, warm.notes)
	}
	return nil
}

func (w *mixed) load(e *env, seconds time.Duration, tr *tracer) (*phase, error) {
	parts := make([]*phase, 2)
	errs := make([]error, 2)
	start := time.Now()
	var wg sync.WaitGroup
	for c := range parts {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			parts[c], errs[c] = w.client(e, c, start, seconds, tr)
		}(c)
	}
	wg.Wait()
	ph := &phase{elapsed: time.Since(start)}
	for c, p := range parts {
		if errs[c] != nil {
			return nil, errs[c]
		}
		ph.merge(p)
	}
	return ph, nil
}

func (w *mixed) client(e *env, c int, start time.Time, seconds time.Duration, tr *tracer) (*phase, error) {
	cl, conn := e.newClient(w.seed*10 + int64(c))
	defer conn.CloseIdleConnections()
	rng := rand.New(rand.NewSource(w.seed*10 + int64(c)))
	ph := &phase{}
	var order []int
	cold := 0
	for i, n := 0, int64(0); time.Since(start) < seconds; i++ {
		if i%coldEvery == 0 {
			cold = i + rng.Intn(coldEvery)
		}
		if i != cold {
			k := rng.Intn(len(w.hot))
			sendPlace(cl, ph, tr, w.hot[k], w.forms[k], w.body[k])
			continue
		}
		if len(order) == 0 {
			order = rng.Perm(len(w.cold))
		}
		in := w.cold[order[0]]
		order = order[1:]
		n++
		// A timeout of its own per (client, request): never cached.
		opts := smallOpts
		opts.TimeoutMs += 2*n + int64(c)
		form := [2]string{formGenerate, formExplicit}[rng.Intn(2)]
		body, err := in.body(form, opts)
		if err != nil {
			return nil, err
		}
		sendPlace(cl, ph, tr, in, form, body)
	}
	return ph, nil
}

func (w *mixed) replay(ph *phase, tr *tracer, lay *layers) error {
	for _, c := range ph.calls {
		if _, err := replayPlace(c, tr, lay); err != nil {
			return err
		}
	}
	return nil
}
