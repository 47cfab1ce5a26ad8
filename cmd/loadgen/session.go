package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/fabric"
	"repro/internal/grid"
	"repro/internal/online"
	"repro/internal/service"
	"repro/internal/workload"
)

// Session mode drives the daemon's stateful online API instead of the
// stateless /v1/place batch endpoint. Each worker owns one session and
// replays a seeded arrive/depart/defrag mix against it while keeping a
// client-side shadow of the fabric: its own occupancy bitmap plus the
// modules it believes are resident. Every server answer is replayed
// onto the shadow through online.ValidatePlacement — the same validity
// oracle the server audits itself with — so any disagreement (an
// overlapping placement, a move onto occupied tiles, a release the
// server forgot) is an invariant violation, caught from the outside
// with no access to server state.
//
// The mix is deterministic per (seed, worker): worker w seeds its PRNG
// with seed+w and cycles through the session managers, so a run
// exercises every greedy policy.

// sessionWorker drives one session and its shadow state.
type sessionWorker struct {
	c      *client.Client
	o      cliOpts
	agg    *counters
	worker int
	rng    *rand.Rand
	region *fabric.Region
	id     string
	occ    *grid.Bitmap
	res    map[int64]online.Resident
	nextID int64
}

// runSessions is the session-mode driver behind -mode sessions.
func runSessions(o cliOpts, out io.Writer) (*summary, error) {
	if o.concurrency <= 0 {
		o.concurrency = 1
	}
	dev, err := fabric.ByName(o.fabric)
	if err != nil {
		return nil, err
	}
	agg := &counters{out: out, vrb: o.verbose}
	agg.sum.Statuses = map[string]int64{}

	opsPerWorker := o.requests / o.concurrency
	if opsPerWorker < 1 {
		opsPerWorker = 1
	}
	deadline := time.Time{}
	if o.duration > 0 {
		deadline = time.Now().Add(o.duration)
	}

	start := time.Now()
	var wg sync.WaitGroup
	for wi := 0; wi < o.concurrency; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			w := &sessionWorker{
				c: client.New(o.addr, client.Options{
					Seed:       o.seed + int64(wi),
					HTTPClient: &http.Client{Timeout: o.timeout},
				}),
				o:      o,
				agg:    agg,
				worker: wi,
				rng:    rand.New(rand.NewSource(o.seed + int64(wi))),
				region: dev.FullRegion(),
				occ:    grid.NewBitmap(dev.Bounds().W(), dev.Bounds().H()),
				res:    map[int64]online.Resident{},
			}
			w.drive(opsPerWorker, deadline)
		}(wi)
	}
	wg.Wait()

	agg.sum.ElapsedMs = float64(time.Since(start).Microseconds()) / 1e3
	line, err := json.MarshalIndent(&agg.sum, "", "  ")
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(out, string(line))
	return &agg.sum, nil
}

// count records one op's terminal status and retry tally.
func (w *sessionWorker) count(res *client.Result, err error) {
	w.agg.mu.Lock()
	w.agg.sum.Requests++
	if res != nil {
		w.agg.sum.Retries += int64(res.Retries)
		w.agg.sum.Statuses[fmt.Sprintf("%d", res.Status)]++
	}
	if err != nil {
		w.agg.sum.Transport++
	}
	w.agg.mu.Unlock()
}

// faultStatus reports a status the fault injector is documented to
// produce on the session path; the shadow stays unchanged because the
// fault fires at handler entry, before any session mutation.
func faultStatus(status int) bool {
	return status == http.StatusTooManyRequests ||
		status == http.StatusServiceUnavailable ||
		status == http.StatusGatewayTimeout
}

func (w *sessionWorker) drive(ops int, deadline time.Time) {
	if !w.create() {
		return
	}
	for i := 0; i < ops; i++ {
		if !deadline.IsZero() && !time.Now().Before(deadline) {
			break
		}
		r := w.rng.Float64()
		switch {
		case r < 0.55 || len(w.res) == 0:
			w.arrive()
		case r < 0.90:
			w.depart()
		default:
			w.defrag()
		}
	}
	w.verifyStats()
	res, err := w.c.Delete(context.Background(), "/v1/sessions/"+w.id)
	w.count(res, err)
}

// create opens the worker's session; the manager cycles through the
// catalog so a concurrent run covers every greedy policy.
func (w *sessionWorker) create() bool {
	managers := online.SessionManagers()
	body, err := json.Marshal(service.SessionCreateRequest{
		Fabric:  w.o.fabric,
		Manager: managers[w.worker%len(managers)],
		Replan:  service.OptionsSpec{StallNodes: 200, TimeoutMs: 5000},
	})
	if err != nil {
		w.agg.violation(int64(w.worker), "marshal create: %v", err)
		return false
	}
	res, err := w.c.Do(context.Background(), "/v1/sessions", body)
	w.count(res, err)
	if err != nil {
		return false
	}
	if res.Status != http.StatusOK {
		if !faultStatus(res.Status) {
			w.agg.violation(int64(w.worker), "create session: status %d: %s", res.Status, res.Body)
		}
		return false
	}
	var info service.SessionInfo
	if err := json.Unmarshal(res.Body, &info); err != nil || info.Session == "" {
		w.agg.violation(int64(w.worker), "create session body: %v: %s", err, res.Body)
		return false
	}
	w.id = info.Session
	return true
}

// arrive generates one module, asks the session to place it, and
// commits the server's answer to the shadow — after revalidating every
// relocation and the newcomer's tiles against the shadow occupancy.
func (w *sessionWorker) arrive() {
	mods, err := workload.Generate(workload.Config{
		NumModules: 1, CLBMin: 4, CLBMax: 6, NoBRAM: true, Alternatives: 2,
	}, w.rng)
	if err != nil {
		w.agg.violation(int64(w.worker), "workload: %v", err)
		return
	}
	mod := mods[0]
	task := w.nextID
	w.nextID++
	spec := service.ModuleSpecFor(mod)
	body, err := json.Marshal(service.SessionPlaceRequest{Task: task, Module: &spec})
	if err != nil {
		w.agg.violation(task, "marshal place: %v", err)
		return
	}
	res, err := w.c.Do(context.Background(), "/v1/sessions/"+w.id+"/place", body)
	w.count(res, err)
	if err != nil {
		return
	}
	if res.Status != http.StatusOK {
		if !faultStatus(res.Status) {
			w.agg.violation(task, "place: status %d: %s", res.Status, res.Body)
		}
		return
	}
	quality := res.Header.Get("X-Placement-Quality")
	if quality != service.QualityExact && quality != service.QualityApproximate {
		w.agg.violation(task, "place quality %q", quality)
		return
	}
	var resp service.SessionPlaceResponse
	if err := json.Unmarshal(res.Body, &resp); err != nil {
		w.agg.violation(task, "place body: %v", err)
		return
	}
	if !resp.Placed {
		w.agg.mu.Lock()
		w.agg.sum.Infeasible++
		w.agg.mu.Unlock()
		return
	}
	if !w.applyMoves(task, resp.Moves) {
		return
	}
	r := online.Resident{ID: online.TaskID(task), Module: mod, Shape: resp.Shape, At: grid.Pt(resp.X, resp.Y)}
	pts, err := online.ValidatePlacement(w.region, w.occ, mod, online.Placement{Shape: r.Shape, At: r.At})
	if err != nil {
		w.agg.violation(task, "placement fails shadow validation (%s): %v", quality, err)
		return
	}
	w.occ.SetPoints(pts, true)
	w.res[task] = r
	w.agg.mu.Lock()
	if quality == service.QualityApproximate {
		w.agg.sum.Approximate++
	} else {
		w.agg.sum.Exact++
	}
	w.agg.mu.Unlock()
}

// applyMoves replays a relocation schedule onto the shadow in the
// server's order: each move must be priced and must land on tiles that
// are free once its own module vacates — exactly the invariant the
// ordered schedule promises.
func (w *sessionWorker) applyMoves(seq int64, moves []service.MoveSpec) bool {
	for _, mv := range moves {
		r, ok := w.res[mv.Task]
		if !ok {
			w.agg.violation(seq, "move names unknown resident %d", mv.Task)
			return false
		}
		if mv.Frames <= 0 || mv.ReconfigMs <= 0 {
			w.agg.violation(seq, "unpriced move %+v", mv)
			return false
		}
		w.occ.SetPointsAt(r.Module.Shape(r.Shape).Points(), r.At, false)
		r.Shape, r.At = mv.Shape, grid.Pt(mv.X, mv.Y)
		pts, err := online.ValidatePlacement(w.region, w.occ, r.Module, online.Placement{Shape: r.Shape, At: r.At})
		if err != nil {
			w.agg.violation(seq, "move of %d fails shadow validation: %v", mv.Task, err)
			return false
		}
		w.occ.SetPoints(pts, true)
		w.res[mv.Task] = r
	}
	return true
}

// depart releases one random shadow resident; the server must agree it
// was resident.
func (w *sessionWorker) depart() {
	ids := make([]int64, 0, len(w.res))
	for id := range w.res {
		ids = append(ids, id)
	}
	// Map order is random; sort so the seeded pick is deterministic.
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	task := ids[w.rng.Intn(len(ids))]
	res, err := w.c.Delete(context.Background(), fmt.Sprintf("/v1/sessions/%s/modules/%d", w.id, task))
	w.count(res, err)
	if err != nil {
		return
	}
	if res.Status != http.StatusOK {
		if !faultStatus(res.Status) {
			w.agg.violation(task, "release: status %d: %s", res.Status, res.Body)
		}
		return
	}
	var resp service.SessionReleaseResponse
	if err := json.Unmarshal(res.Body, &resp); err != nil {
		w.agg.violation(task, "release body: %v", err)
		return
	}
	if !resp.Released {
		w.agg.violation(task, "server claims task %d was not resident; shadow disagrees", task)
		return
	}
	r := w.res[task]
	w.occ.SetPointsAt(r.Module.Shape(r.Shape).Points(), r.At, false)
	delete(w.res, task)
}

// defrag asks the session to compact and replays the move schedule on
// the shadow. A defrag blocked by a relocation cycle is a normal
// outcome, but it must move nothing.
func (w *sessionWorker) defrag() {
	res, err := w.c.Do(context.Background(), "/v1/sessions/"+w.id+"/defrag", nil)
	w.count(res, err)
	if err != nil {
		return
	}
	if res.Status != http.StatusOK {
		if !faultStatus(res.Status) {
			w.agg.violation(int64(w.worker), "defrag: status %d: %s", res.Status, res.Body)
		}
		return
	}
	var resp service.SessionDefragResponse
	if err := json.Unmarshal(res.Body, &resp); err != nil {
		w.agg.violation(int64(w.worker), "defrag body: %v", err)
		return
	}
	if resp.Blocked > 0 && len(resp.Moves) > 0 {
		w.agg.violation(int64(w.worker), "defrag blocked by %d modules yet moved %d", resp.Blocked, len(resp.Moves))
		return
	}
	w.applyMoves(int64(w.worker), resp.Moves)
}

// verifyStats cross-checks the server's view of the session against
// the shadow at the end of the run: same resident count, same number
// of occupied tiles.
func (w *sessionWorker) verifyStats() {
	res, err := w.c.Get(context.Background(), "/v1/sessions/"+w.id+"/stats")
	w.count(res, err)
	if err != nil {
		return
	}
	if res.Status != http.StatusOK {
		if !faultStatus(res.Status) && res.Status != http.StatusNotFound {
			w.agg.violation(int64(w.worker), "stats: status %d", res.Status)
		}
		return
	}
	var st service.SessionStatsResponse
	if err := json.Unmarshal(res.Body, &st); err != nil {
		w.agg.violation(int64(w.worker), "stats body: %v", err)
		return
	}
	if st.Residents != len(w.res) || st.OccupiedTiles != w.occ.Count() {
		w.agg.violation(int64(w.worker),
			"server/shadow divergence: server %d residents / %d tiles, shadow %d / %d",
			st.Residents, st.OccupiedTiles, len(w.res), w.occ.Count())
	}
}
