// Package perfbench is the repository's end-to-end benchmark. It builds
// clusters through cluster.New, runs them with Cluster.Run, and reads
// each layer's public counters afterwards. This file holds the pure,
// deterministic half: workload definitions, the Results digest, the
// output checks and the per-layer counts. Host timing and profiling live
// in measure_test.go, and run.py drives repeated measurements.
package perfbench

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"

	"github.com/haechi-qos/haechi/internal/cluster"
	"github.com/haechi-qos/haechi/internal/kvstore"
	"github.com/haechi-qos/haechi/internal/trace"
	"github.com/haechi-qos/haechi/internal/workload"
)

// scale is the fabric rate divisor every workload runs at: the
// experiments' default, so one run is seconds of host time while the
// protocol's dimensionless ratios stay the paper's.
const scale = 10

// capacity is C_G per QoS period at this scale (1570K at full scale).
const capacity = 1_570_000 / scale

// Workload is one benchmark input: a cluster configuration, its tenants
// and its run window. Every run is sequential and unsharded.
type Workload struct {
	Name    string
	Records int
	Warmup  int
	Measure int
	specs   func() ([]cluster.ClientSpec, error)
	tune    func(*cluster.Config)
}

// Workloads lists the suite. Why each exists is recorded in
// BENCHMARK.json next to the metrics it is meant to move.
var Workloads = []Workload{
	{
		Name: "burst_zipf_qos", Records: 4096, Warmup: 2, Measure: 5,
		specs: burstZipfSpecs,
	},
	{
		Name: "steady_uniform_rw", Records: 1 << 16, Warmup: 2, Measure: 5,
		specs: steadyUniformSpecs,
	},
	{
		Name: "fleet_1k_qpcache", Records: 4096, Warmup: 1, Measure: 2,
		specs: fleetSpecs,
		tune: func(cfg *cluster.Config) {
			// Set 6's QP-context cache settings.
			cfg.Fabric.QPCacheSize = 1024
			cfg.Fabric.QPCacheMissPenalty = 0.25
		},
	},
}

// Lookup returns the named workload.
func Lookup(name string) (Workload, error) {
	names := make([]string, len(Workloads))
	for i, w := range Workloads {
		if w.Name == name {
			return w, nil
		}
		names[i] = w.Name
	}
	return Workload{}, fmt.Errorf("perfbench: unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// Config returns the cluster configuration for one run of w. The seed is
// the benchmark's argument; everything random in the run derives from it.
func (w Workload) Config(seed int64) cluster.Config {
	cfg := cluster.NewDefaultConfig()
	cfg.Mode = cluster.Haechi
	cfg.Scale = scale
	storeCap := 1
	for storeCap < w.Records {
		storeCap <<= 1
	}
	cfg.Store = kvstore.Options{Capacity: storeCap, RecordSize: 4096}
	cfg.Records = w.Records
	cfg.Seed = seed
	if w.tune != nil {
		w.tune(&cfg)
	}
	return cfg
}

// Specs returns the tenants of w.
func (w Workload) Specs() ([]cluster.ClientSpec, error) { return w.specs() }

// burstZipfSpecs is the Fig. 9(b) shape: 10 tenants with Zipf-group
// reservations totalling 90% of C_G, each demanding R_i plus the whole
// pool, posted at period start over zipfian keys.
func burstZipfSpecs() ([]cluster.ClientSpec, error) {
	parts, err := workload.ZipfGroupSplit(9*capacity/10, 10, 5, 0.6)
	if err != nil {
		return nil, err
	}
	pool := uint64(capacity) - workload.Sum(parts)
	specs := make([]cluster.ClientSpec, len(parts))
	for i, r := range parts {
		specs[i] = cluster.ClientSpec{
			Reservation: int64(r),
			Demand:      cluster.ConstantDemand(r + pool),
			Pattern:     workload.Burst{},
		}
	}
	return specs, nil
}

// steadyUniformSpecs keeps queues shallow: 10 tenants reserving 50% of
// C_G in total and demanding 80% of it, spread evenly over each period,
// half of the requests 4 KB writes over uniform keys (YCSB-A).
func steadyUniformSpecs() ([]cluster.ClientSpec, error) {
	const n = 10
	parts := workload.UniformSplit(capacity/2, n)
	extra := uint64(3*capacity/10) / n
	specs := make([]cluster.ClientSpec, n)
	for i, r := range parts {
		specs[i] = cluster.ClientSpec{
			Reservation:    int64(r),
			Demand:         cluster.ConstantDemand(r + extra),
			Pattern:        workload.ConstantRate{},
			Keys:           &workload.UniformKeys{N: 1 << 16},
			UpdateFraction: 0.5,
		}
	}
	return specs, nil
}

// fleetSpecs is Set 6's first point: 1000 tenants sharing a 60% uniform
// reservation split, each demanding R_i plus an equal pool share (at
// least one I/O), posted at period start.
func fleetSpecs() ([]cluster.ClientSpec, error) {
	const n = 1000
	parts := workload.UniformSplit(6*capacity/10, n)
	share := (uint64(capacity) - workload.Sum(parts)) / n
	specs := make([]cluster.ClientSpec, n)
	for i, r := range parts {
		d := r + share
		if d == 0 {
			d = 1
		}
		specs[i] = cluster.ClientSpec{
			Reservation: int64(r),
			Demand:      cluster.ConstantDemand(d),
			Pattern:     workload.Burst{},
		}
	}
	return specs, nil
}

// Digest is the SHA-256 of the Results JSON with the flight recorder's
// stage rows dropped, so traced and untraced runs of one seed compare
// equal. Any change to the simulated outcome changes it.
func Digest(res *cluster.Results) (string, error) {
	r := *res
	r.Stages = nil
	b, err := json.Marshal(&r)
	if err != nil {
		return "", fmt.Errorf("perfbench: marshal results: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// Check verifies a finished run's outputs beyond what the sanitizer
// covers: per-client totals add up, generators never complete more than
// they issued, the run did work, and every record still holds its key's
// low byte, which the update mix writes back (a write landing on another
// record almost always breaks that).
func Check(cl *cluster.Cluster, res *cluster.Results) error {
	var total uint64
	for i, cr := range res.Clients {
		total += cr.Total
		g := cl.Clients()[i].Gen
		if g.Completed() > g.Issued() {
			return fmt.Errorf("perfbench: client %d completed %d of %d issued", i, g.Completed(), g.Issued())
		}
	}
	if total != res.TotalCompleted {
		return fmt.Errorf("perfbench: client totals sum to %d, Results.TotalCompleted is %d", total, res.TotalCompleted)
	}
	if res.TotalCompleted == 0 || res.AggregateLatency.Count == 0 {
		return fmt.Errorf("perfbench: run completed no I/O")
	}
	st := cl.Store()
	for key := 0; key < cl.Config().Records; key++ {
		v, ok := st.Get(uint64(key))
		if !ok || len(v) == 0 || v[0] != byte(key) {
			return fmt.Errorf("perfbench: record %d lost or overwritten by another key", key)
		}
	}
	return nil
}

// Simulated returns the deterministic end-to-end outcome of a run, keyed
// by metric name: the metrics a pure performance change must leave
// identical. Throughput and latency are full-scale equivalents, since a
// scaled run divides rates and stretches simulated durations by Scale.
func Simulated(cl *cluster.Cluster, res *cluster.Results) map[string]float64 {
	periodS := cl.Config().Params.Period.Seconds()
	var pairs, missed int
	for _, cr := range res.Clients {
		if cr.Reservation <= 0 {
			continue
		}
		for _, done := range cr.Periods {
			pairs++
			if int64(done) < cr.Reservation {
				missed++
			}
		}
	}
	m := map[string]float64{
		"sim_kiops":        res.ThroughputPerPeriod * res.Scale / periodS / 1000,
		"sim_res_met_frac": 1,
		"sim_io_p50_ms":    res.AggregateLatency.P50.Seconds() * 1000 / res.Scale,
		"sim_io_p999_ms":   res.AggregateLatency.P999.Seconds() * 1000 / res.Scale,
		"io_samples":       float64(res.AggregateLatency.Count),
		"events":           float64(res.EventsExecuted),
	}
	if pairs > 0 {
		m["sim_res_met_frac"] = 1 - float64(missed)/float64(pairs)
	}
	return m
}

// Counts returns the deterministic per-layer work counts of a finished
// Haechi-mode run, read from Results and the layers' public accessors.
// The run must have passed Check, so it completed at least one I/O.
func Counts(cl *cluster.Cluster, res *cluster.Results) map[string]float64 {
	a := res.Attribution
	o := res.Overhead
	m := map[string]float64{
		"sim.events":             float64(res.EventsExecuted),
		"sim.cancelled":          float64(cl.Kernel().Cancelled()),
		"rdma.reads":             float64(a.Reads),
		"rdma.writes":            float64(a.Writes),
		"rdma.fetch_adds":        float64(a.FetchAdds),
		"rdma.sends":             float64(a.Sends),
		"rdma.sched_dispatches":  float64(a.SchedDispatches),
		"rdma.credit_grants":     float64(a.CreditGrants),
		"rdma.ctrl_verbs_per_io": float64(o.FAAs+o.ControlWrites+o.ControlSends) / float64(res.TotalCompleted),
		"rdma.nic_ctrl_frac":     o.NICFraction,
		// Without a modelled QP-context cache no lookup can miss.
		"rdma.qp_cache_hit_rate": 1,
	}
	if lookups := a.QPCacheHits + a.QPCacheMisses; lookups > 0 {
		m["rdma.qp_cache_hit_rate"] = float64(a.QPCacheHits) / float64(lookups)
	}
	var issued, completed, gets, puts, probes uint64
	var faa, reports, throttled uint64
	var yielded int64
	for _, c := range cl.Clients() {
		issued += c.Gen.Issued()
		completed += c.Gen.Completed()
		gets += c.KV.OneSidedGets()
		puts += c.KV.OneSidedPuts()
		probes += c.KV.ProbeReads()
		st := c.Engine.Stats()
		faa += st.FAAIssued
		reports += st.ReportsSent
		yielded += st.TokensYielded
		throttled += st.LimitThrottled
	}
	m["sim.events_per_io"] = float64(res.EventsExecuted) / float64(completed)
	m["workload.issued"] = float64(issued)
	m["workload.completed"] = float64(completed)
	m["kvstore.gets"] = float64(gets)
	m["kvstore.puts"] = float64(puts)
	m["kvstore.probe_reads"] = float64(probes)
	m["core.faa_issued"] = float64(faa)
	m["core.reports_sent"] = float64(reports)
	m["core.tokens_yielded"] = float64(yielded)
	m["core.limit_throttled"] = float64(throttled)
	m["core.conversions"] = float64(cl.Monitor().ConversionCount)
	return m
}

// stageMetric names each flight-recorder stage's per-layer metric.
var stageMetric = map[string]string{
	"credit-wait":    "stage.credit_wait_us",
	"init-nic":       "stage.init_nic_us",
	"wire":           "stage.wire_us",
	"target-queue":   "stage.target_queue_us",
	"target-service": "stage.target_service_us",
	"deliver":        "stage.deliver_us",
}

// Stages returns the mean simulated time a data I/O spends in each
// modelled component, in full-scale microseconds, from a traced run's
// flight recorder, plus core.token_wait_us: the mean I/O latency (which
// includes the wait for a token) minus the mean span total.
func Stages(res *cluster.Results) (map[string]float64, error) {
	sum := map[string]float64{}
	cnt := map[string]float64{}
	for _, row := range res.Stages {
		n := float64(row.Summary.Count)
		sum[row.Stage] += n * float64(row.Summary.Mean)
		cnt[row.Stage] += n
	}
	mean := func(stage string) (float64, error) {
		if cnt[stage] == 0 {
			return 0, fmt.Errorf("perfbench: traced run recorded no %s spans", stage)
		}
		return sum[stage] / cnt[stage] / 1000 / res.Scale, nil
	}
	m := map[string]float64{}
	for _, stage := range trace.StageNames {
		v, err := mean(stage)
		if err != nil {
			return nil, err
		}
		switch name, ok := stageMetric[stage]; {
		case ok:
			m[name] = v
		case stage == "total":
			m["core.token_wait_us"] = float64(res.AggregateLatency.Mean)/1000/res.Scale - v
		default:
			return nil, fmt.Errorf("perfbench: no metric for flight-recorder stage %q", stage)
		}
	}
	return m, nil
}
