package perfbench

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"github.com/haechi-qos/haechi/internal/cluster"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// TestAttributeFixture checks the attribution rules on a hand-written
// `go tool pprof -traces` listing with known answers.
func TestAttributeFixture(t *testing.T) {
	b, err := os.ReadFile("testdata/fixture.traces")
	if err != nil {
		t.Fatal(err)
	}
	l, err := Attribute(string(b))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		// memmove and growslice count against the rdma caller.
		"rdma": 0.070,
		// math.Pow counts against the workload caller.
		"workload": 0.020,
		// A GC assist counts against the allocating layer.
		"core": 0.010,
		// internal/sim/shard is part of the sim layer.
		"sim": 0.020,
		// The background mark worker has no module frame.
		"unattributed": 1.050,
	}
	if len(l.Module) != len(want) {
		t.Errorf("modules %v, want %v", l.Module, want)
	}
	var sum float64
	for mod, s := range l.Module {
		sum += s
		if !near(s, want[mod]) {
			t.Errorf("%s = %v s, want %v", mod, s, want[mod])
		}
	}
	if !near(l.Total, 1.17) || !near(sum, l.Total) {
		t.Errorf("total %v, module sum %v, want 1.17 for both", l.Total, sum)
	}
	if !near(l.Copy, 0.030) || !near(l.Alloc, 0.040) {
		t.Errorf("copy %v alloc %v, want 0.03 and 0.04 (the GC assist is neither)", l.Copy, l.Alloc)
	}
}

func TestAttributeRejectsBadInput(t *testing.T) {
	for name, in := range map[string]string{
		"empty":     "File: x\nType: cpu\n",
		"bad value": "-----------+---\n      ten   runtime.memmove\n",
		"no frame":  "-----------+---\n      10ms\n",
	} {
		if _, err := Attribute(in); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
}

// TestAttributeProfile runs the bundled pprof on a real profile of one
// simulated period, so a change in its output format shows here.
func TestAttributeProfile(t *testing.T) {
	w := Workloads[0]
	specs, err := w.Specs()
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cluster.New(w.Config(1), specs)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	stop, err := startProfile(path)
	if err != nil {
		t.Fatal(err)
	}
	_, runErr := cl.Run(0, 1)
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	if runErr != nil {
		t.Fatal(runErr)
	}
	traces, err := PprofTraces(path)
	if err != nil {
		t.Fatal(err)
	}
	l, err := Attribute(traces)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, s := range l.Module {
		sum += s
	}
	if !near(sum, l.Total) {
		t.Errorf("module sum %v != total %v", sum, l.Total)
	}
	if l.Module["sim"]+l.Module["rdma"]+l.Module["workload"] == 0 {
		t.Errorf("no samples charged to sim, rdma or workload: %v", l.Module)
	}
}
