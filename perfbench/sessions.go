package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/grid"
	"repro/internal/metrics"
	"repro/internal/module"
	"repro/internal/obs"
	"repro/internal/online"
	"repro/internal/service"
	"repro/internal/workload"
)

const (
	// warmArrivals tasks bring a fresh session to saturation off the
	// clock: on both streams the device first rejects an arrival
	// between the 147th and the 163rd task, and the residency levels
	// off at about 60 modules.
	warmArrivals = 140
	// windowArrivals tasks follow on the clock: one measured window per
	// client and round, holding six CP replans between the two.
	windowArrivals = 40
	// defragsPer and arrivalsPer are cmd/loadgen's session mix, which
	// sends 55 arrivals, 35 departures and 10 defrags per 100
	// operations. Departures here follow event time; defrags keep
	// loadgen's ratio to arrivals, one per 5.5 arrivals of a window.
	defragsPer, arrivalsPer = 10, 55
)

// sessionManager is the free-space manager every session uses.
const sessionManager = "mer-best-fit"

// replanSpec budgets a session's CP replans and defrags.
var replanSpec = service.OptionsSpec{StallNodes: 200, TimeoutMs: 5000}

// replanOptions is replanSpec as the server expands it: a place request
// carrying it, decoded with the server's Config.
func replanOptions() (core.Options, error) {
	body, err := json.Marshal(service.PlaceRequest{Fabric: tableIFabric, Options: replanSpec,
		Generate: &service.GenerateSpec{Seed: 1, NumModules: 1, CLBMin: 10, CLBMax: 10, NoBRAM: true}})
	if err != nil {
		return core.Options{}, err
	}
	creq, err := service.DecodeRequest(bytes.NewReader(body), serverConfig())
	if err != nil {
		return core.Options{}, fmt.Errorf("expanding the replan options: %w", err)
	}
	return creq.Options.Options(), nil
}

// sessionStream is one round of BenchmarkOnlineManagers' saturating
// recipe: 10–60 CLBs, at most 3 BRAMs, four alternatives, mean
// interarrival 2, mean residency 120 — more demand than the Table-I
// device holds. The streams are fixed, stream seeds 1 and 2: a window
// spends most of its time in replans and defrags of about half a
// second each, and a seed-dependent stream changes how many of them it
// holds, which moved ops_per_s between seeds by 40 % (IQR over median).
func sessionStream(stream int64) ([]arrival, error) {
	cfg := online.StreamConfig{Tasks: warmArrivals + windowArrivals, MeanInterarrival: 2, MeanDuration: 120,
		Library: workload.Config{NumModules: 1, CLBMin: 10, CLBMax: 60, BRAMMax: 3, Alternatives: 4}}
	tasks, err := online.GenerateStream(cfg, rand.New(rand.NewSource(stream)))
	if err != nil {
		return nil, err
	}
	out := make([]arrival, len(tasks))
	for i, t := range tasks {
		spec := service.ModuleSpecFor(t.Module)
		body, err := json.Marshal(service.SessionPlaceRequest{Task: int64(t.ID), Module: &spec})
		if err != nil {
			return nil, err
		}
		out[i] = arrival{task: t, body: body}
	}
	return out, nil
}

// defragDue reports whether a defrag follows the n-th arrival of a
// window: whenever n arrivals have earned another of loadgen's defrags.
func defragDue(n int) bool {
	return n*defragsPer/arrivalsPer > (n-1)*defragsPer/arrivalsPer
}

// arrival is one task of a stream with its request body, rendered
// during set-up so the clients spend the run on requests.
type arrival struct {
	task online.Task
	body []byte
}

// sessions is online reconfiguration traffic: two clients, one
// /v1/sessions session each, replaying fixed arrival streams in rounds.
// A round opens a fresh session per client and brings it to saturation
// with the first warmArrivals tasks, off the clock; then both clients
// replay the next windowArrivals tasks together, on the clock.
// Departures are released when due in event time, a defrag follows
// every 5.5 arrivals of a window, and the session's stats are
// cross-checked against the client's shadow after every defrag and at
// the end of the window. Rounds repeat until the measured windows add up
// to the run length, so every run measures whole copies of the same
// operations. The workload seed assigns the two streams to the two
// clients and seeds the clients' retry jitter; it leaves the work
// unchanged.
type sessions struct {
	seed    int64
	streams [2][]arrival
	clients [2]*sessionClient
	conns   [2]*http.Transport
}

// prepare renders both streams and opens and warms the first round's
// sessions.
func (w *sessions) prepare(e *env) error {
	dev, err := fabric.ByName(tableIFabric)
	if err != nil {
		return err
	}
	for c := range w.streams {
		if w.conns[c] != nil {
			w.conns[c].CloseIdleConnections() // the previous set-up's
		}
		if w.streams[c], err = sessionStream(1 + (int64(c)+w.seed)%2); err != nil {
			return err
		}
		cl, conn := e.newClient(w.seed*10 + int64(c))
		w.clients[c] = &sessionClient{cl: cl, ph: &phase{}, region: dev.FullRegion(), c: c}
		w.conns[c] = conn
	}
	w.eachClient(func(c int, sc *sessionClient) { sc.startRound(0, w.streams[c]) })
	for _, sc := range w.clients {
		if sc.ph.violations != nil {
			return fmt.Errorf("warming the sessions: %v", sc.ph.violations)
		}
	}
	return nil
}

// eachClient runs f for both clients at once and waits for both.
func (w *sessions) eachClient(f func(c int, sc *sessionClient)) {
	var wg sync.WaitGroup
	for c, sc := range w.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f(c, sc)
		}()
	}
	wg.Wait()
}

func (w *sessions) load(e *env, seconds time.Duration, tr *tracer) (*phase, error) {
	defer func() {
		for _, conn := range w.conns {
			conn.CloseIdleConnections()
		}
	}()
	var elapsed time.Duration
	for round := 0; ; round++ {
		if round > 0 {
			w.eachClient(func(c int, sc *sessionClient) { sc.startRound(round, w.streams[c]) })
		}
		t := time.Now()
		w.eachClient(func(c int, sc *sessionClient) {
			sc.tr = tr
			sc.window(w.streams[c][warmArrivals:])
			sc.tr = nil
		})
		elapsed += time.Since(t)
		w.eachClient(func(c int, sc *sessionClient) { sc.closeSession() })
		if elapsed >= seconds || w.clients[0].ph.violations != nil || w.clients[1].ph.violations != nil {
			break
		}
	}
	ph := &phase{elapsed: elapsed}
	for _, sc := range w.clients {
		ph.merge(sc.ph)
	}
	return ph, nil
}

func createBody() ([]byte, error) {
	return json.Marshal(service.SessionCreateRequest{
		Fabric: tableIFabric, Manager: sessionManager, UseAlternatives: true, Replan: replanSpec,
	})
}

// shadowResident is the client's record of one module it placed.
type shadowResident struct {
	mod *module.Module
	pts []grid.Point
}

type departure struct {
	at   int64
	task int64
}

// sessOp is one state-changing session operation kept for the traced
// replay, with the server's answer to compare the replay against.
type sessOp struct {
	kind string // "place", "release" or "defrag"
	task int64
	mod  *module.Module
	req  uint64
	// placed is the server's answer: the arrival was admitted, or the
	// defrag succeeded.
	placed bool
	shape  int
	at     grid.Point
	// warm marks the off-clock operations that saturate the session.
	warm bool
}

// sessionLog is the operation sequence of one session.
type sessionLog struct {
	round int
	ops   []sessOp
}

// sessionClient drives one session per round and keeps a shadow of it:
// its own occupancy bitmap and resident set. Every answer is replayed
// onto the shadow through online.ValidatePlacement, so an overlapping
// placement, a move onto occupied tiles or a forgotten release is
// caught from outside, with no access to server state.
type sessionClient struct {
	cl     *client.Client
	ph     *phase
	tr     *tracer
	region *fabric.Region
	c      int

	id    string
	round int
	occ   *grid.Bitmap
	res   map[int64]shadowResident
	deps  []departure
	log   *sessionLog
}

// startRound opens a fresh session and saturates it with the first
// warmArrivals tasks of the stream. Nothing of it counts in the
// metrics: its operations go to a scratch phase, which passes on its
// violations; a failed warm-up operation is reported as one too.
func (s *sessionClient) startRound(round int, stream []arrival) {
	real := s.ph
	s.ph = &phase{}
	defer func() {
		warm := s.ph
		s.ph = real
		s.ph.violations = append(s.ph.violations, warm.violations...)
		if n := warm.failed(); n > 0 {
			s.ph.violate("%d warm-up operations failed: %v", n, warm.notes)
		}
	}()
	body, err := createBody()
	if err != nil {
		s.ph.violate("marshal create: %v", err)
		return
	}
	res, _ := s.call("create", http.MethodPost, "/v1/sessions", body)
	var info service.SessionInfo
	if res == nil || json.Unmarshal(res.Body, &info) != nil || info.Session == "" {
		s.ph.violate("create session failed")
		return
	}
	s.open(info.Session, round)
	real.sessions = append(real.sessions, s.log)
	for _, a := range stream[:warmArrivals] {
		s.arrive(a)
	}
	for i := range s.log.ops {
		s.log.ops[i].warm = true
	}
}

func (s *sessionClient) open(id string, round int) {
	s.id, s.round = id, round
	s.occ = grid.NewBitmap(s.region.W(), s.region.H())
	s.res = map[int64]shadowResident{}
	s.deps = s.deps[:0]
	s.log = &sessionLog{round: round}
}

// window replays the measured tasks on the warmed session and
// cross-checks the final state.
func (s *sessionClient) window(stream []arrival) {
	for n, a := range stream {
		if s.ph.violations != nil {
			return
		}
		s.arrive(a)
		if defragDue(n + 1) {
			s.defrag()
			s.checkStats()
		}
	}
	s.checkStats()
}

// closeSession deletes the round's session, off the clock.
func (s *sessionClient) closeSession() {
	real := s.ph
	s.ph = &phase{}
	s.call("delete", http.MethodDelete, "/v1/sessions/"+s.id, nil)
	if s.ph.failed() > 0 {
		real.violate("delete session: %v", s.ph.notes)
	}
	s.ph = real
}

// call issues one timed operation. It returns the response when the
// status was 200, and the index of the operation's record.
func (s *sessionClient) call(kind, method, path string, body []byte) (*client.Result, int) {
	start := time.Now()
	res, err := s.cl.DoMethod(context.Background(), method, path, body)
	lat := time.Since(start)
	op := opRec{kind: kind, lat: lat, ok: err == nil && res.Status == http.StatusOK,
		bookkeeping: kind != "place" && kind != "defrag"}
	if res != nil {
		s.ph.retries += res.Retries
	}
	switch {
	case err != nil:
		s.ph.note("%s: %v", kind, err)
	case res.Status != http.StatusOK:
		s.ph.note("%s: status %d: %.200s", kind, res.Status, res.Body)
	}
	if s.tr != nil {
		op.req = s.tr.root("client."+kind, start, lat, map[string]any{"session": s.c, "round": s.round})
	}
	s.ph.ops = append(s.ph.ops, op)
	if !op.ok {
		return nil, len(s.ph.ops) - 1
	}
	return res, len(s.ph.ops) - 1
}

// releaseDue sends a DELETE for every resident whose departure time has
// come by event time now, earliest first.
func (s *sessionClient) releaseDue(now int64) {
	sort.Slice(s.deps, func(i, j int) bool {
		if s.deps[i].at != s.deps[j].at {
			return s.deps[i].at < s.deps[j].at
		}
		return s.deps[i].task < s.deps[j].task
	})
	n := 0
	for n < len(s.deps) && s.deps[n].at <= now {
		s.release(s.deps[n].task)
		n++
	}
	s.deps = append(s.deps[:0], s.deps[n:]...)
}

func (s *sessionClient) release(task int64) {
	res, i := s.call("release", http.MethodDelete, "/v1/sessions/"+s.id+"/modules/"+strconv.FormatInt(task, 10), nil)
	s.log.ops = append(s.log.ops, sessOp{kind: "release", task: task, req: s.ph.ops[i].req})
	if res == nil {
		return
	}
	var resp service.SessionReleaseResponse
	if err := json.Unmarshal(res.Body, &resp); err != nil || !resp.Released {
		s.ph.violate("release %d: server says not resident, shadow holds it (%v)", task, err)
		s.ph.ops[i].ok = false
		return
	}
	s.occ.SetPoints(s.res[task].pts, false)
	delete(s.res, task)
}

func (s *sessionClient) arrive(a arrival) {
	t, body := a.task, a.body
	s.releaseDue(t.Arrive)
	task := int64(t.ID)
	s.ph.arrivals++
	res, i := s.call("place", http.MethodPost, "/v1/sessions/"+s.id+"/place", body)
	op := sessOp{kind: "place", task: task, mod: t.Module, req: s.ph.ops[i].req}
	defer func() {
		s.log.ops = append(s.log.ops, op)
		s.ph.util = append(s.ph.util, metrics.OverallUtilization(s.region, s.occ))
	}()
	if res == nil {
		return
	}
	var resp service.SessionPlaceResponse
	if err := json.Unmarshal(res.Body, &resp); err != nil {
		s.ph.violate("place body: %v", err)
		s.ph.ops[i].ok = false
		return
	}
	s.ph.ops[i].miss = resp.Replanned || !resp.Placed
	if q := res.Header.Get("X-Placement-Quality"); q != service.QualityExact {
		// Degraded to greedy-only placement: counted as failed, but the
		// answer still changed the session, so the shadow follows it.
		s.ph.ops[i].ok = false
		s.ph.note("place %d: quality %q", task, q)
	}
	if !resp.Placed {
		return
	}
	if !s.applyMoves(resp.Moves) {
		s.ph.ops[i].ok = false
		return
	}
	p := online.Placement{Shape: resp.Shape, At: grid.Pt(resp.X, resp.Y)}
	pts, err := online.ValidatePlacement(s.region, s.occ, t.Module, p)
	if err != nil {
		s.ph.violate("place %d fails shadow validation: %v", task, err)
		s.ph.ops[i].ok = false
		return
	}
	s.occ.SetPoints(pts, true)
	s.res[task] = shadowResident{mod: t.Module, pts: pts}
	s.deps = append(s.deps, departure{at: t.Arrive + t.Duration, task: task})
	s.ph.admitted++
	op.placed, op.shape, op.at = true, p.Shape, p.At
}

// applyMoves replays a relocation schedule onto the shadow in the
// server's order: each move must be priced and land on tiles that are
// free once its own module vacates.
func (s *sessionClient) applyMoves(moves []service.MoveSpec) bool {
	for _, mv := range moves {
		r, ok := s.res[mv.Task]
		if !ok {
			s.ph.violate("move names unknown resident %d", mv.Task)
			return false
		}
		if mv.Frames <= 0 || mv.ReconfigMs <= 0 {
			s.ph.violate("unpriced move %+v", mv)
			return false
		}
		s.occ.SetPoints(r.pts, false)
		pts, err := online.ValidatePlacement(s.region, s.occ, r.mod, online.Placement{Shape: mv.Shape, At: grid.Pt(mv.X, mv.Y)})
		if err != nil {
			s.ph.violate("move of %d fails shadow validation: %v", mv.Task, err)
			return false
		}
		s.occ.SetPoints(pts, true)
		r.pts = pts
		s.res[mv.Task] = r
	}
	return true
}

func (s *sessionClient) defrag() {
	res, i := s.call("defrag", http.MethodPost, "/v1/sessions/"+s.id+"/defrag", nil)
	s.log.ops = append(s.log.ops, sessOp{kind: "defrag", req: s.ph.ops[i].req, placed: res != nil})
	if res == nil {
		// A refused defrag (500 when no safe move order exists) leaves
		// the session unchanged; the next stats cross-check confirms it.
		return
	}
	var resp service.SessionDefragResponse
	if err := json.Unmarshal(res.Body, &resp); err != nil {
		s.ph.violate("defrag body: %v", err)
		s.ph.ops[i].ok = false
		return
	}
	if !s.applyMoves(resp.Moves) {
		s.ph.ops[i].ok = false
	}
}

// checkStats cross-checks the server's view of the session against the
// shadow: resident count, occupied tiles and utilization.
func (s *sessionClient) checkStats() {
	res, i := s.call("stats", http.MethodGet, "/v1/sessions/"+s.id+"/stats", nil)
	if res == nil {
		return
	}
	var st service.SessionStatsResponse
	if err := json.Unmarshal(res.Body, &st); err != nil {
		s.ph.violate("stats body: %v", err)
		s.ph.ops[i].ok = false
		return
	}
	util := metrics.OverallUtilization(s.region, s.occ)
	if st.Residents != len(s.res) || st.OccupiedTiles != s.occ.Count() || math.Abs(st.Utilization-util) > 1e-9 {
		s.ph.violate("server/shadow divergence: server %d residents, %d tiles, util %v; shadow %d, %d, %v",
			st.Residents, st.OccupiedTiles, st.Utilization, len(s.res), s.occ.Count(), util)
		s.ph.ops[i].ok = false
	}
}

// replay feeds each logged session, in order, to an in-process
// online.State configured like the server's, timing the online layer's
// public calls. The State's replan and compaction solves report their
// phase timers to a registry of the session's own, through
// core.Options.Metrics. Only the first round is replayed: later rounds
// repeat its inputs.
func (w *sessions) replay(ph *phase, tr *tracer, lay *layers) error {
	dev, err := fabric.ByName(tableIFabric)
	if err != nil {
		return err
	}
	region := dev.FullRegion()
	opts, err := replanOptions()
	if err != nil {
		return err
	}
	for _, lg := range ph.sessions {
		if lg.round > 0 {
			continue // every round repeats the first one's operations
		}
		reg := obs.NewRegistry()
		opts.Metrics = reg
		st, err := online.NewState(region, online.StateConfig{Manager: sessionManager, UseAlternatives: true, Replan: opts})
		if err != nil {
			return err
		}
		// The warm-up only rebuilds the state: its samples go to scratch.
		scratch := newLayers()
		var warm online.StateStats
		for i, op := range lg.ops {
			rec, rtr := lay, tr
			if op.warm {
				rec, rtr = scratch, nil
			} else if i == 0 || lg.ops[i-1].warm {
				warm = st.Stats()
			}
			if err := replaySessionOp(st, region, reg, op, rtr, rec); err != nil {
				return err
			}
		}
		lay.divergences += scratch.divergences
		stats := st.Stats()
		lay.add("online_reconfig_ms", ms(stats.TotalReconfig-warm.TotalReconfig))
		lay.add("online_admitted", float64(stats.Placed-warm.Placed))
	}
	return nil
}

func replaySessionOp(st *online.State, region *fabric.Region, reg *obs.Registry, op sessOp, tr *tracer, lay *layers) error {
	switch op.kind {
	case "release":
		t := time.Now()
		st.Release(online.TaskID(op.task))
		d := time.Since(t)
		tr.child(op.req, "online.release", t, d, nil)
		lay.add("online_release_us", us(d))
	case "place":
		occ := occupancy(region, st.Residents())
		t := time.Now()
		online.MaximalEmptyRects(region, occ)
		d := time.Since(t)
		tr.child(op.req, "online.mer", t, d, nil)
		lay.add("online_mer_us", us(d))

		before := readPhases(reg)
		t = time.Now()
		out, err := st.Place(online.TaskID(op.task), op.mod)
		d = time.Since(t)
		if err != nil {
			return fmt.Errorf("replay place %d: %w", op.task, err)
		}
		// Greedy placement either admits or falls back to a CP replan;
		// every rejection comes out of a failed replan.
		replanned := out.Replanned || !out.Placed
		tr.child(op.req, "online.place", t, d, map[string]any{"replan": replanned, "placed": out.Placed})
		if replanned {
			lay.add("online_replan_ms", ms(d))
			lay.add("online_replan_admitted", b2f(out.Placed))
			lay.addSolves(before, readPhases(reg))
		} else {
			lay.add("online_place_us", us(d))
		}
		if out.Placed != op.placed || (out.Placed && (out.Placement.Shape != op.shape || out.Placement.At != op.at)) {
			lay.divergences++
		}
	case "defrag":
		before := readPhases(reg)
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		t := time.Now()
		out, err := st.Defrag()
		d := time.Since(t)
		runtime.ReadMemStats(&ms1)
		lay.addSolves(before, readPhases(reg))
		allocMB := float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20)
		tr.child(op.req, "online.defrag", t, d, map[string]any{"moves": len(out.Moves), "ok": err == nil, "alloc_mb": allocMB})
		lay.add("online_defrag_ms", ms(d))
		lay.add("online_defrag_ok", b2f(err == nil))
		lay.add("place_alloc_mb", allocMB)
		lay.add("place_allocs", float64(ms1.Mallocs-ms0.Mallocs))
		if err == nil {
			lay.add("online_defrag_moves", float64(len(out.Moves)))
			lay.add("online_frag_after", out.FragAfter)
		}
		if (err == nil) != op.placed {
			lay.divergences++
		}
	}
	return nil
}

// occupancy paints the residents into a fresh bitmap.
func occupancy(region *fabric.Region, res []online.Resident) *grid.Bitmap {
	occ := grid.NewBitmap(region.W(), region.H())
	for _, r := range res {
		for _, p := range r.Module.Shape(r.Shape).Points() {
			occ.Set(p.X+r.At.X, p.Y+r.At.Y, true)
		}
	}
	return occ
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
