package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"time"

	"repro/internal/service"
)

// tableIFabric is the paper's evaluation device (experiments.TableIDevice).
const tableIFabric = "virtex4-like-72x60"

// tableISpec is the paper's Table-I module batch: 30 modules of 20–100
// CLBs and 0–4 BRAMs, four design alternatives each.
func tableISpec(seed int64) service.GenerateSpec {
	return service.GenerateSpec{Seed: seed, NumModules: 30, CLBMin: 20, CLBMax: 100, BRAMMax: 4, Alternatives: 4}
}

// offlineInstances is the size of the fixed Table-I instance set:
// instance seeds 1..8, the first runs of the paper's protocol. The set
// does not depend on the workload seed because per-solve cost varies
// about 6x across instance seeds (0.5–3.5 s); a seed-dependent set of
// about ten solves per run would spread run-to-run by more than any
// useful bound. The workload seed sets the order of every pass and
// which wire form each request uses.
const offlineInstances = 8

// offlinePin names the BENCH_solver.json scenario the traced replay of
// instance seed 1 must reproduce exactly.
const offlinePin = "table1-alternatives-presolve-on"

// offline is the paper's protocol: one client solves each Table-I
// instance once per pass, with stallNodes 800 and a deadline no solve
// reaches. Passes repeat until the run length is used up, and the
// run always ends on a whole pass, so every run measures the same
// multiset of solves. Each pass sends a distinct timeoutMs (still
// unreachable): the timeout is part of the cache key, so every request
// is a cache miss, while the search is unchanged.
type offline struct {
	seed  int64
	insts []*instance
}

func (w *offline) prepare(e *env) error {
	w.insts = w.insts[:0]
	for s := int64(1); s <= offlineInstances; s++ {
		in, err := newInstance(tableIFabric, tableISpec(s))
		if err != nil {
			return err
		}
		w.insts = append(w.insts, in)
	}
	return nil
}

func (w *offline) load(e *env, seconds time.Duration, tr *tracer) (*phase, error) {
	cl, conn := e.newClient(w.seed)
	defer conn.CloseIdleConnections()
	rng := rand.New(rand.NewSource(w.seed))
	forms := [2]string{formGenerate, formExplicit}
	ph := &phase{}
	start := time.Now()
	for pass := 0; ; pass++ {
		opts := service.OptionsSpec{StallNodes: 800, TimeoutMs: int64(60000 - pass)}
		for _, i := range rng.Perm(len(w.insts)) {
			form := forms[(i+pass+int(w.seed&1))%2]
			body, err := w.insts[i].body(form, opts)
			if err != nil {
				return nil, err
			}
			sendPlace(cl, ph, tr, w.insts[i], form, body)
		}
		if time.Since(start) >= seconds || pass == 999 {
			break
		}
	}
	ph.elapsed = time.Since(start)
	return ph, nil
}

// replay re-solves every traced request and cross-checks instance seed
// 1 against the benchgate's pinned nodes, backtracks and height.
func (w *offline) replay(ph *phase, tr *tracer, lay *layers) error {
	pin, err := loadPin(offlinePin)
	if err != nil {
		return err
	}
	for _, c := range ph.calls {
		res, err := replayPlace(c, tr, lay)
		if err != nil {
			return err
		}
		if res == nil || c.in.gen.Seed != 1 {
			continue
		}
		if res.Nodes != pin.Nodes || res.Backtracks != pin.Backtracks || res.Height != pin.Height {
			lay.pinFailures = append(lay.pinFailures, fmt.Sprintf(
				"instance seed 1: nodes/backtracks/height %d/%d/%d, %s pins %d/%d/%d",
				res.Nodes, res.Backtracks, res.Height, offlinePin, pin.Nodes, pin.Backtracks, pin.Height))
		}
	}
	return nil
}

type pinRecord struct {
	Name       string `json:"name"`
	Height     int    `json:"height"`
	Nodes      int64  `json:"nodes"`
	Backtracks int64  `json:"backtracks"`
}

// loadPin reads one scenario of the benchgate baseline from the root of
// the checkout the benchmark runs in.
func loadPin(name string) (pinRecord, error) {
	raw, err := os.ReadFile("BENCH_solver.json")
	if err != nil {
		return pinRecord{}, fmt.Errorf("benchgate baseline: %w", err)
	}
	var f struct {
		Scenarios []pinRecord `json:"scenarios"`
	}
	if err := json.Unmarshal(raw, &f); err != nil {
		return pinRecord{}, fmt.Errorf("benchgate baseline: %w", err)
	}
	for _, s := range f.Scenarios {
		if s.Name == name {
			return s, nil
		}
	}
	return pinRecord{}, fmt.Errorf("benchgate baseline has no scenario %q", name)
}
