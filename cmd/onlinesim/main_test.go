package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
)

func baseOpts() cliOpts {
	return cliOpts{
		device:   "spartan-like-24x16",
		tasks:    30,
		seed:     1,
		interarr: 3,
		duration: 60,
		clbMin:   4,
		clbMax:   10,
	}
}

func TestRunAllManagers(t *testing.T) {
	if err := run(baseOpts()); err != nil {
		t.Fatal(err)
	}
}

func TestRunSingleManager(t *testing.T) {
	o := baseOpts()
	o.tasks = 20
	o.manager = "first-fit"
	if err := run(o); err != nil {
		t.Fatal(err)
	}
}

func TestRunRegionFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "r.spec")
	if err := os.WriteFile(path, []byte("region t 20 10\nbramcols 4\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	o := baseOpts()
	o.device = ""
	o.regionPath = path
	o.tasks = 15
	o.seed = 2
	o.bramMax = 1
	if err := run(o); err != nil {
		t.Fatal(err)
	}
}

// TestRunMetrics checks the online-simulation instrumentation: the
// replan manager reports per-request latency histograms and replan
// counts through the -metrics surface.
func TestRunMetrics(t *testing.T) {
	metricsPath := filepath.Join(t.TempDir(), "metrics.prom")
	o := baseOpts()
	o.tasks = 25
	o.manager = "first-fit+cp-replan"
	o.obs = obs.Config{MetricsPath: metricsPath}
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	for _, want := range []string{
		"online_requests_total",
		`online_place_latency_seconds_bucket{outcome="accepted",le=`,
		"online_service_level",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q:\n%s", want, text)
		}
	}
}

// TestRunUnknownManagerListsValidNames checks that a bad -manager,
// including the retired occupied-space policy, fails before any run
// and names every manager the command accepts.
func TestRunUnknownManagerListsValidNames(t *testing.T) {
	for _, name := range []string{"bogus-manager", "occupied-space"} {
		o := baseOpts()
		o.manager = name
		err := run(o)
		if err == nil {
			t.Fatalf("%s: unknown manager accepted", name)
		}
		for _, valid := range []string{"first-fit", "first-fit+alternatives", "mer-best-fit", "mer-best-fit+alternatives", "1d-slots", "first-fit+cp-replan"} {
			if !strings.Contains(err.Error(), valid) {
				t.Errorf("%s: error %q does not list %s", name, err, valid)
			}
		}
	}
}

func TestRunErrors(t *testing.T) {
	o := baseOpts()
	o.device = "bogus"
	if err := run(o); err == nil {
		t.Error("unknown device accepted")
	}
	o = baseOpts()
	o.device = ""
	o.regionPath = "/nonexistent"
	if err := run(o); err == nil {
		t.Error("missing region file accepted")
	}
}
