package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/grid"
	"repro/internal/module"
	"repro/internal/service"
	"repro/internal/workload"
)

// Wire forms of a /v1/place request.
const (
	formGenerate = "generate"
	formExplicit = "explicit"
)

// instance is one placement problem, held client-side with everything
// the correctness gate needs to check an answer from outside.
type instance struct {
	fabric string
	region *fabric.Region
	gen    service.GenerateSpec
	mods   []*module.Module
	// byName indexes mods. Answers index shapes in the order of the
	// request that was solved; every request this benchmark sends for
	// an instance lists the shapes in generation order.
	byName map[string]*module.Module
}

// genConfig mirrors the service's expansion of a generate spec.
func genConfig(g service.GenerateSpec) workload.Config {
	return workload.Config{
		NumModules: g.NumModules,
		CLBMin:     g.CLBMin, CLBMax: g.CLBMax,
		BRAMMin: g.BRAMMin, BRAMMax: g.BRAMMax,
		NoBRAM:       g.NoBRAM,
		DSPMax:       g.DSPMax,
		Alternatives: g.Alternatives,
		NoRotation:   g.NoRotation,
	}
}

func newInstance(fab string, gen service.GenerateSpec) (*instance, error) {
	dev, err := fabric.ByName(fab)
	if err != nil {
		return nil, err
	}
	mods, err := workload.Generate(genConfig(gen), rand.New(rand.NewSource(gen.Seed)))
	if err != nil {
		return nil, fmt.Errorf("generate seed %d: %w", gen.Seed, err)
	}
	in := &instance{fabric: fab, region: dev.FullRegion(), gen: gen, mods: mods,
		byName: make(map[string]*module.Module, len(mods))}
	for _, m := range mods {
		in.byName[m.Name()] = m
	}
	return in, nil
}

// body renders the request in one wire form.
func (in *instance) body(form string, opts service.OptionsSpec) ([]byte, error) {
	req := service.PlaceRequest{Fabric: in.fabric, Options: opts}
	switch form {
	case formGenerate:
		g := in.gen
		req.Generate = &g
	case formExplicit:
		req.Modules = make([]service.ModuleSpec, len(in.mods))
		for i, m := range in.mods {
			req.Modules[i] = service.ModuleSpecFor(m)
		}
	default:
		return nil, fmt.Errorf("unknown wire form %q", form)
	}
	return json.Marshal(req)
}

// checkPlace is the correctness gate for one /v1/place answer. A
// refused or approximate answer is an error (it counts as failed); an
// answer that is not a valid placement of the request's modules is a
// violation, reported through invalid.
func checkPlace(in *instance, res *client.Result) (resp *service.PlaceResponse, invalid, err error) {
	if res.Status != http.StatusOK {
		return nil, nil, fmt.Errorf("status %d: %.200s", res.Status, res.Body)
	}
	if q := res.Header.Get("X-Placement-Quality"); q != service.QualityExact {
		return nil, nil, fmt.Errorf("placement quality %q", q)
	}
	resp = &service.PlaceResponse{}
	if err := json.Unmarshal(res.Body, resp); err != nil {
		return nil, fmt.Errorf("answer body: %w", err), nil
	}
	return resp, validateAnswer(in, resp), nil
}

// validateAnswer rebuilds a core.Result from the wire answer and checks
// it with core.Result.Validate against the request's region: every
// module placed once, each on its own shape, inside the region, on
// matching resources, without overlap, at the reported height and
// utilization.
func validateAnswer(in *instance, resp *service.PlaceResponse) error {
	if !resp.Found {
		return fmt.Errorf("no placement found for a feasible instance")
	}
	if resp.Fabric != in.fabric {
		return fmt.Errorf("answer for fabric %q, asked %q", resp.Fabric, in.fabric)
	}
	if len(resp.Placements) != len(in.mods) {
		return fmt.Errorf("%d placements for %d modules", len(resp.Placements), len(in.mods))
	}
	res := &core.Result{Found: true, Height: resp.Height, Utilization: resp.Utilization}
	seen := make(map[string]bool, len(resp.Placements))
	for _, p := range resp.Placements {
		m, ok := in.byName[p.Module]
		if !ok || seen[p.Module] {
			return fmt.Errorf("unknown or repeated module %q", p.Module)
		}
		seen[p.Module] = true
		if p.Shape < 0 || p.Shape >= m.NumShapes() {
			return fmt.Errorf("module %s: shape %d out of range", p.Module, p.Shape)
		}
		if s := m.Shape(p.Shape); s.W() != p.W || s.H() != p.H {
			return fmt.Errorf("module %s: box %dx%d, shape %d is %dx%d", p.Module, p.W, p.H, p.Shape, s.W(), s.H())
		}
		res.Placements = append(res.Placements, core.Placement{Module: m, ShapeIndex: p.Shape, At: grid.Pt(p.X, p.Y)})
	}
	return res.Validate(in.region)
}

// placeCall is one /v1/place request kept for the traced replay.
type placeCall struct {
	in   *instance
	form string
	body []byte
	lat  time.Duration
	miss bool
	req  uint64
}

// sendPlace issues one request and records it in ph: latency, outcome,
// the gate's verdict and, when traced, the call for replay.
func sendPlace(cl *client.Client, ph *phase, tr *tracer, in *instance, form string, body []byte) {
	start := time.Now()
	res, err := cl.Do(context.Background(), "/v1/place", body)
	lat := time.Since(start)
	op := opRec{kind: "place", lat: lat}
	if res != nil {
		ph.retries += res.Retries
		op.miss = res.Header.Get("X-Cache") == "miss"
	}
	ph.arrivals++
	if err == nil {
		resp, invalid, rerr := checkPlace(in, res)
		switch {
		case invalid != nil:
			ph.violate("place %s: %v", in.name(), invalid)
		case rerr != nil:
			ph.note("place %s: %v", in.name(), rerr)
		default:
			op.ok = true
			ph.admitted++
			ph.util = append(ph.util, resp.Utilization)
		}
	} else {
		ph.note("place %s: %v", in.name(), err)
	}
	if tr != nil {
		op.req = tr.root("client.place", start, lat, map[string]any{"form": form, "miss": op.miss, "ok": op.ok})
		ph.calls = append(ph.calls, placeCall{in: in, form: form, body: body, lat: lat, miss: op.miss, req: op.req})
	}
	ph.ops = append(ph.ops, op)
}

func (in *instance) name() string { return fmt.Sprintf("%s/seed%d", in.fabric, in.gen.Seed) }

// replayPlace runs one recorded request's exact inputs through the
// serving layers in-process: DecodeRequest (which runs workload.Generate
// for generate-form bodies), Generate on its own, Digest and — for a
// cache miss — the sequential solve the worker ran. It returns the
// solve's result, nil for a hit.
func replayPlace(c placeCall, tr *tracer, lay *layers) (*core.Result, error) {
	cfg := serverConfig()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	creq, err := service.DecodeRequest(bytes.NewReader(c.body), cfg)
	dec := time.Since(t0)
	runtime.ReadMemStats(&ms1)
	if err != nil {
		return nil, fmt.Errorf("replay decode: %w", err)
	}
	tr.child(c.req, "service.decode", t0, dec, map[string]any{"form": c.form})
	lay.add("decode_ms."+c.form, ms(dec))
	lay.add("decode_alloc_kb."+c.form, float64(ms1.TotalAlloc-ms0.TotalAlloc)/1024)

	if c.form == formGenerate {
		t := time.Now()
		if _, err := workload.Generate(genConfig(c.in.gen), rand.New(rand.NewSource(c.in.gen.Seed))); err != nil {
			return nil, fmt.Errorf("replay generate: %w", err)
		}
		d := time.Since(t)
		tr.child(c.req, "workload.generate", t, d, nil)
		lay.add("generate_ms", ms(d))
	}

	t1 := time.Now()
	if _, err := creq.Digest(); err != nil {
		return nil, fmt.Errorf("replay digest: %w", err)
	}
	dig := time.Since(t1)
	tr.child(c.req, "canon.digest", t1, dig, nil)
	lay.add("digest_ms", ms(dig))

	if !c.miss {
		lay.add("residual_ms", ms(c.lat-dec-dig))
		return nil, nil
	}
	// The worker solves the decoded request exactly as
	// service.solvePlacement does: the full catalog region, the
	// request's options, the modules in request order.
	res, solve, err := lay.solve(tr, c.req, c.in.region, creq.Modules, creq.Options.Options())
	if err != nil {
		return nil, err
	}
	lay.add("miss_residual_ms", ms(c.lat-dec-dig-solve))
	return res, nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
