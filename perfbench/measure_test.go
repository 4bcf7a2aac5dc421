package perfbench

// Host-clock and profiling code. It lives in a test file so the
// simulator's determinism lint (which bans the wall clock from non-test
// packages) needs no waiver; the perfbench module is separate from the
// root module, so `go test ./...` at the root never builds or runs it.

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/haechi-qos/haechi/internal/cluster"
)

var (
	workloadFlag = flag.String("perfbench.workload", "", "workload to measure (see Workloads); empty skips TestMeasure")
	seedFlag     = flag.Int64("perfbench.seed", 1, "workload seed, passed to cluster.Config.Seed")
	modeFlag     = flag.String("perfbench.mode", "plain", "plain | sanitize | trace | profile")
	outFlag      = flag.String("perfbench.out", "", "write the measurement as JSON to this file")
)

// measurement is one child run's raw record; run.py aggregates them.
type measurement struct {
	Mode       string             `json:"mode"`
	Error      string             `json:"error,omitempty"`
	Digest     string             `json:"digest,omitempty"`
	SetupS     float64            `json:"setup_s"`
	RunS       float64            `json:"run_s"`
	Mallocs    uint64             `json:"mallocs"`
	AllocBytes uint64             `json:"alloc_bytes"`
	GCCPUS     float64            `json:"gc_cpu_s"`
	HeapGrowth int64              `json:"heap_growth"`
	Clients    int                `json:"clients"`
	PeakRSSMB  float64            `json:"peak_rss_mb"`
	Simulated  map[string]float64 `json:"simulated,omitempty"`
	Counts     map[string]float64 `json:"counts,omitempty"`
	Stages     map[string]float64 `json:"stages,omitempty"`
	CPU        map[string]float64 `json:"cpu,omitempty"`
}

// TestMeasure builds and runs one cluster of the named workload and
// records host time, allocation and memory around the two public calls.
// run.py starts one process per measurement so peak RSS is per run.
func TestMeasure(t *testing.T) {
	if *workloadFlag == "" {
		t.Skip("no -perfbench.workload given; perfbench/run.py drives this test")
	}
	m := measurement{Mode: *modeFlag}
	if err := measure(&m, *workloadFlag, *seedFlag); err != nil {
		m.Error = err.Error()
	}
	if *outFlag != "" {
		b, err := json.Marshal(&m)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(*outFlag, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if m.Error != "" {
		t.Fatal(m.Error)
	}
}

func measure(m *measurement, workload string, seed int64) error {
	w, err := Lookup(workload)
	if err != nil {
		return err
	}
	cfg := w.Config(seed)
	specs, err := w.Specs()
	if err != nil {
		return err
	}
	var profile string
	switch m.Mode {
	case "plain":
	case "sanitize":
		cfg.Sanitize = true
	case "trace":
		// The stage histograms cover every span; the ring only bounds
		// what an export would keep.
		cfg.Observe = &cluster.Observe{FlightSpans: 1024}
	case "profile":
		if *outFlag == "" {
			return fmt.Errorf("profile mode needs -perfbench.out")
		}
		profile = *outFlag + ".pprof"
	default:
		return fmt.Errorf("unknown mode %q", m.Mode)
	}
	m.Clients = len(specs)

	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	heap0 := ms.HeapAlloc
	t0 := time.Now()
	cl, err := cluster.New(cfg, specs)
	m.SetupS = time.Since(t0).Seconds()
	if err != nil {
		return err
	}
	runtime.GC()
	runtime.ReadMemStats(&ms)
	m.HeapGrowth = int64(ms.HeapAlloc) - int64(heap0)
	mallocs0, bytes0, gc0 := ms.Mallocs, ms.TotalAlloc, gcCPUSeconds()

	var stop func() error
	if profile != "" {
		if stop, err = startProfile(profile); err != nil {
			return err
		}
	}
	t1 := time.Now()
	res, runErr := cl.Run(w.Warmup, w.Measure)
	m.RunS = time.Since(t1).Seconds()
	if stop != nil {
		if err := stop(); err != nil {
			return err
		}
	}
	m.GCCPUS = gcCPUSeconds() - gc0
	runtime.ReadMemStats(&ms)
	m.Mallocs, m.AllocBytes = ms.Mallocs-mallocs0, ms.TotalAlloc-bytes0
	if m.PeakRSSMB, err = peakRSSMB(); err != nil {
		return err
	}
	if runErr != nil {
		return runErr
	}
	if err := Check(cl, res); err != nil {
		return err
	}
	if m.Digest, err = Digest(res); err != nil {
		return err
	}
	m.Simulated = Simulated(cl, res)
	m.Counts = Counts(cl, res)
	switch {
	case cfg.Observe != nil:
		m.Stages, err = Stages(res)
	case profile != "":
		m.CPU, err = profileLayers(profile)
	}
	return err
}

func startProfile(path string) (func() error, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

// profileLayers attributes a CPU profile to layers, in seconds keyed by
// metric name.
func profileLayers(path string) (map[string]float64, error) {
	traces, err := PprofTraces(path)
	if err != nil {
		return nil, err
	}
	l, err := Attribute(traces)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{
		"profile.cpu_s":       l.Total,
		"runtime.copy_cpu_s":  l.Copy,
		"runtime.alloc_cpu_s": l.Alloc,
	}
	for mod, s := range l.Module {
		out[mod+".cpu_s"] = s
	}
	return out, os.Remove(filepath.Clean(path))
}

// gcCPUSeconds is the process's cumulative GC CPU time estimate.
func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
