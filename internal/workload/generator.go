package workload

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/haechi-qos/haechi/internal/metrics"
	"github.com/haechi-qos/haechi/internal/sim"
)

// InfiniteDemand makes a client backlogged for the whole run (used when
// profiling saturation throughput, Experiments 1A/1B).
const InfiniteDemand = uint64(math.MaxUint32)

// Submit delivers one request to the I/O path (the Haechi QoS engine, or
// a bare sender). The I/O path hands ticket back to Generator.Complete
// exactly once, when the I/O completes.
type Submit func(key uint64, ticket uint32)

// Pattern is a temporal request pattern: how a period's demand is spread
// over the period.
type Pattern interface {
	fmt.Stringer
	newDriver(g *Generator) driver
}

// driver is the per-generator issuing state machine for a pattern.
type driver interface {
	beginPeriod(demand uint64)
	onCompletion()
	stop()
}

// Interface compliance.
var (
	_ Pattern = Burst{}
	_ Pattern = ConstantRate{}
	_ Pattern = Poisson{}
)

// Burst is the paper's burst request pattern. With Window > 0 it is the
// closed-loop form used for saturation profiling (Experiment 1A: "a
// client sends an initial burst of 64 requests ... and subsequently keeps
// 64 requests outstanding at all times"). With Window == 0 the entire
// period demand is submitted at the start of the period, the form the QoS
// experiments assume (Example 2: "all clients send a burst of R_i
// requests at t = 0") — the QoS engine then owns the queueing. Window 0
// requires finite demand (not InfiniteDemand).
type Burst struct {
	// Window is the number of outstanding requests (0 = submit the whole
	// demand up front).
	Window int
}

// String names the pattern.
func (b Burst) String() string {
	if b.Window <= 0 {
		return "burst(all)"
	}
	return fmt.Sprintf("burst(%d)", b.Window)
}

func (b Burst) newDriver(g *Generator) driver {
	if b.Window <= 0 {
		return &burstAllDriver{g: g}
	}
	return &burstDriver{g: g, window: b.Window}
}

// burstAllDriver submits the period's entire demand immediately.
type burstAllDriver struct {
	g *Generator
}

func (d *burstAllDriver) beginPeriod(demand uint64) {
	for i := uint64(0); i < demand; i++ {
		d.g.issue()
	}
}

func (d *burstAllDriver) onCompletion() {}

func (d *burstAllDriver) stop() {}

type burstDriver struct {
	g           *Generator
	window      int
	target      uint64
	issued      uint64
	outstanding int
}

func (d *burstDriver) beginPeriod(demand uint64) {
	d.target = demand
	d.issued = 0
	d.fill()
}

func (d *burstDriver) fill() {
	for d.outstanding < d.window && d.issued < d.target {
		d.issued++
		d.outstanding++
		d.g.issue()
	}
}

func (d *burstDriver) onCompletion() {
	d.outstanding--
	d.fill()
}

func (d *burstDriver) stop() { d.target = 0 }

// ConstantRate is the paper's constant-rate request pattern: the period's
// demand is issued open-loop at equal time intervals across the period.
type ConstantRate struct{}

// String names the pattern.
func (ConstantRate) String() string { return "constant-rate" }

func (ConstantRate) newDriver(g *Generator) driver {
	return &constantRateDriver{g: g}
}

type constantRateDriver struct {
	g      *Generator
	ticker *sim.Ticker
	issued uint64
	target uint64
}

func (d *constantRateDriver) beginPeriod(demand uint64) {
	d.stop()
	if demand == 0 {
		return
	}
	d.issued = 0
	d.target = demand
	interval := d.g.periodLen / sim.Time(demand)
	if interval <= 0 {
		interval = 1
	}
	t, err := d.g.k.Every(0, interval, func() {
		if d.issued >= d.target {
			d.stop()
			return
		}
		d.issued++
		d.g.issue()
	})
	if err == nil {
		d.ticker = t
	}
}

func (d *constantRateDriver) onCompletion() {}

func (d *constantRateDriver) stop() {
	if d.ticker != nil {
		d.ticker.Stop()
		d.ticker = nil
	}
}

// Generator drives one client's workload: it draws keys, issues requests
// according to its pattern, and records completion latency (submission to
// completion, including any token-wait queueing at the QoS engine — the
// paper's Fig. 15 latencies include client-side queueing).
type Generator struct {
	k         *sim.Kernel
	rng       *rand.Rand
	keys      KeyChooser
	submit    Submit
	periodLen sim.Time

	drv driver

	Latency metrics.Histogram

	// In-flight requests live in a slot pool indexed by ticket: starts
	// holds each slot's submission time and free the reusable tickets.
	// Unlike a FIFO of start times this stays correct when completions
	// cross (multiserver routes one generator's keys to independent
	// engines), and the pool stops allocating once it reaches the
	// high-water outstanding count.
	starts []sim.Time
	free   []uint32

	issuedTotal         uint64
	completedTotal      uint64
	completedThisPeriod uint64
}

// NewGenerator builds a generator. periodLen is the QoS period length T.
func NewGenerator(k *sim.Kernel, seed int64, keys KeyChooser, pattern Pattern, periodLen sim.Time, submit Submit) (*Generator, error) {
	if k == nil || keys == nil || pattern == nil || submit == nil {
		return nil, fmt.Errorf("workload: NewGenerator requires kernel, keys, pattern and submit")
	}
	if periodLen <= 0 {
		return nil, fmt.Errorf("workload: period length must be positive, got %v", periodLen)
	}
	g := &Generator{
		k:         k,
		rng:       rand.New(rand.NewSource(seed)),
		keys:      keys,
		submit:    submit,
		periodLen: periodLen,
	}
	g.drv = pattern.newDriver(g)
	return g, nil
}

// BeginPeriod starts a new QoS period with the given demand (number of
// requests the client wants served this period).
func (g *Generator) BeginPeriod(demand uint64) {
	g.drv.beginPeriod(demand)
}

// Stop ceases issuing.
func (g *Generator) Stop() { g.drv.stop() }

// Issued returns the total number of requests submitted.
func (g *Generator) Issued() uint64 { return g.issuedTotal }

// Completed returns the total number of requests completed.
func (g *Generator) Completed() uint64 { return g.completedTotal }

// TakePeriodCompleted returns and resets the completions since the last
// call; the cluster harvests it at each period boundary.
func (g *Generator) TakePeriodCompleted() uint64 {
	c := g.completedThisPeriod
	g.completedThisPeriod = 0
	return c
}

func (g *Generator) issue() {
	key := g.keys.Next(g.rng)
	var t uint32
	if n := len(g.free); n > 0 {
		t = g.free[n-1]
		g.free = g.free[:n-1]
		g.starts[t] = g.k.Now()
	} else {
		t = uint32(len(g.starts))
		g.starts = append(g.starts, g.k.Now())
	}
	g.issuedTotal++
	g.submit(key, t)
}

// Complete finishes the request holding ticket: it records the request's
// latency and frees the ticket for reuse. Completions may arrive in any
// order; each ticket must complete exactly once per submission.
func (g *Generator) Complete(ticket uint32) {
	g.Latency.Record(g.k.Now() - g.starts[ticket])
	g.free = append(g.free, ticket)
	g.completedTotal++
	g.completedThisPeriod++
	g.drv.onCompletion()
}

// Poisson is an open-loop pattern with exponentially distributed
// inter-arrival times at rate demand/T — an extension beyond the paper's
// two patterns, for workloads without periodic structure. The period's
// demand sets the mean rate; the actual count per period varies.
type Poisson struct{}

// String names the pattern.
func (Poisson) String() string { return "poisson" }

func (Poisson) newDriver(g *Generator) driver {
	return &poissonDriver{g: g}
}

type poissonDriver struct {
	g       *Generator
	timer   sim.Timer
	rate    float64 // arrivals per nanosecond
	stopped bool
}

func (d *poissonDriver) beginPeriod(demand uint64) {
	d.stop()
	d.stopped = false
	if demand == 0 {
		return
	}
	d.rate = float64(demand) / float64(d.g.periodLen)
	d.schedule()
}

func (d *poissonDriver) schedule() {
	gap := sim.Time(d.g.rng.ExpFloat64() / d.rate)
	if gap < 1 {
		gap = 1
	}
	d.timer = d.g.k.Schedule(gap, func() {
		if d.stopped {
			return
		}
		d.g.issue()
		d.schedule()
	})
}

func (d *poissonDriver) onCompletion() {}

func (d *poissonDriver) stop() {
	d.stopped = true
	d.timer.Cancel()
	d.timer = sim.Timer{}
}
