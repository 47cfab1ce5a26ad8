package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"repro/internal/client"
	"repro/internal/fabric"
	"repro/internal/service"
)

// The correctness gate must fire on corrupted answers: these tests take
// a real answer from the in-process service, corrupt it, and expect the
// gate to reject it.

func startTestEnv(t *testing.T) *env {
	t.Helper()
	e, err := startEnv()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.close)
	return e
}

func TestPlaceGateRejectsCorruptedPlacement(t *testing.T) {
	e := startTestEnv(t)
	in, err := newInstance(smallFabric, smallSpec(7))
	if err != nil {
		t.Fatal(err)
	}
	body, err := in.body(formExplicit, smallOpts)
	if err != nil {
		t.Fatal(err)
	}
	cl, conn := e.newClient(1)
	defer conn.CloseIdleConnections()
	ph := &phase{}
	sendPlace(cl, ph, nil, in, formExplicit, body)
	if len(ph.violations) > 0 || ph.failed() > 0 {
		t.Fatalf("valid answer rejected: %v %v", ph.violations, ph.notes)
	}
	var resp service.PlaceResponse
	res, err := cl.Do(context.Background(), "/v1/place", body)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(res.Body, &resp); err != nil {
		t.Fatal(err)
	}

	corrupt := map[string]func(r *service.PlaceResponse){
		"overlap": func(r *service.PlaceResponse) {
			r.Placements[1].X, r.Placements[1].Y = r.Placements[0].X, r.Placements[0].Y
		},
		"outside region": func(r *service.PlaceResponse) { r.Placements[0].X = -1 },
		"wrong shape": func(r *service.PlaceResponse) {
			r.Placements[0].Shape = (r.Placements[0].Shape + 1) % in.mods[0].NumShapes()
		},
		"missing module": func(r *service.PlaceResponse) { r.Placements = r.Placements[1:] },
		"wrong height":   func(r *service.PlaceResponse) { r.Height++ },
		"wrong util":     func(r *service.PlaceResponse) { r.Utilization += 0.01 },
	}
	for name, f := range corrupt {
		bad := resp
		bad.Placements = append([]service.PlacementSpec(nil), resp.Placements...)
		f(&bad)
		if err := validateAnswer(in, &bad); err == nil {
			t.Errorf("%s: gate accepted a corrupted answer", name)
		}
	}
}

func TestSessionGateRejectsCorruptedMoveAndStats(t *testing.T) {
	e := startTestEnv(t)
	cl, conn := e.newClient(1)
	defer conn.CloseIdleConnections()
	id, err := createSession(cl)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := sessionStream(1)
	if err != nil {
		t.Fatal(err)
	}
	dev, err := fabric.ByName(tableIFabric)
	if err != nil {
		t.Fatal(err)
	}
	ph := &phase{}
	s := &sessionClient{cl: cl, ph: ph, region: dev.FullRegion()}
	s.open(id, 0)
	s.arrive(stream[0])
	s.arrive(stream[1])
	s.checkStats()
	if len(ph.violations) > 0 || len(s.res) != 2 {
		t.Fatalf("valid session rejected: %v, %d residents", ph.violations, len(s.res))
	}

	// A move of task 1 onto task 0's tiles must fail shadow validation.
	r0 := s.res[0]
	at := r0.pts[0].Sub(r0.mod.Shape(0).Points()[0])
	if s.applyMoves([]service.MoveSpec{{Task: 1, Shape: 0, X: at.X, Y: at.Y, Frames: 1, ReconfigMs: 1}}) {
		t.Error("gate accepted a move onto occupied tiles")
	}
	if len(ph.violations) == 0 || !strings.Contains(ph.violations[0], "shadow validation") {
		t.Errorf("violations = %v", ph.violations)
	}

	// A shadow that disagrees with the server must trip the stats check.
	ph.violations = nil
	delete(s.res, 1)
	s.checkStats()
	if len(ph.violations) == 0 {
		t.Error("stats cross-check accepted a server/shadow divergence")
	}
}

func createSession(cl *client.Client) (string, error) {
	body, err := createBody()
	if err != nil {
		return "", err
	}
	res, err := cl.Do(context.Background(), "/v1/sessions", body)
	if err != nil {
		return "", fmt.Errorf("create session: %w", err)
	}
	var info service.SessionInfo
	if res.Status != http.StatusOK {
		return "", fmt.Errorf("create session: status %d: %.200s", res.Status, res.Body)
	}
	if err := json.Unmarshal(res.Body, &info); err != nil || info.Session == "" {
		return "", fmt.Errorf("create session body %.200q: %v", res.Body, err)
	}
	return info.Session, nil
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q != [3]float64{2.75, 5.5, 8.25} {
		t.Errorf("quartiles = %v", q)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q := quartiles([]float64{1, 2}); q != [3]float64{0.75, 1.5, 2.25} {
		t.Errorf("quartiles = %v", q)
	}
}

func TestJudge(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	worse := make([]float64, len(base))
	faster := make([]float64, len(base))
	for i, v := range base {
		worse[i], faster[i] = v*1.3, v*0.8
	}
	bq := quartiles(base)
	if v := judge(base, worse, bq, quartiles(worse), "lower", 0.1, 0, 10); v != "regression" {
		t.Errorf("30%% slower: %s", v)
	}
	if v := judge(base, faster, bq, quartiles(faster), "lower", 0.1, 10, 10); v != "better" {
		t.Errorf("20%% faster: %s", v)
	}
	if v := judge(base, base, bq, bq, "lower", 0.1, 0, 10); v != "same" {
		t.Errorf("unchanged: %s", v)
	}
	noisy := []float64{50, 150, 60, 140, 100, 100, 70, 130, 90, 110}
	if v := judge(noisy, noisy, quartiles(noisy), quartiles(noisy), "lower", 0.1, 0, 10); v != "unresolved" {
		t.Errorf("noisy: %s", v)
	}
}
