package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"

	"github.com/haechi-qos/haechi/internal/cluster"
	"github.com/haechi-qos/haechi/internal/core"
)

// goldenCase is one pinned replay: an experiment at a shard count.
// Unsharded cases cover experiment Sets 1-5: saturation and latency
// curves (Set 1: fig6-8), reservation attainment and conversion (Set 2:
// fig9-12), isolation (Set 3: fig13), over/under-provisioning (Set 4:
// fig16/18) and the failure scenario (Set 5). Sharded cases pin the
// per-shard warm-up/measure schedule on a bare+QoS sweep (fig6), a
// reservation run (fig9) and chaos (set5) at Shards 3 / ShardWorkers 2,
// so the race detector sees two workers drive the quanta. Every cluster
// run each experiment performs reports its Results through the Observe
// hook; the concatenated, RunTag-ordered JSON is the byte-identity
// surface the hot-path refactors must preserve.
//
// An observed case additionally records flight spans and samples
// metrics. Its JSON runs to tens of megabytes, so only its SHA-256 is
// committed; it covers the merged per-shard recorders and metrics
// tickers.
type goldenCase struct {
	id       string
	shards   int
	observed bool
}

var goldenCases = []goldenCase{
	{id: "fig6"}, {id: "fig7"}, {id: "fig8"}, // Set 1
	{id: "fig9"}, {id: "fig10"}, {id: "fig12"}, // Set 2
	{id: "fig13"},                // Set 3
	{id: "fig16"}, {id: "fig18"}, // Set 4
	{id: "set5"}, // Set 5
	{id: "fig6", shards: 3},
	{id: "fig9", shards: 3},
	{id: "set5", shards: 3},
	{id: "fig9", shards: 3, observed: true},
}

// name is the subtest name and golden file stem.
func (g goldenCase) name() string {
	switch {
	case g.observed:
		return "sharded-observed-" + g.id
	case g.shards > 1:
		return "sharded-" + g.id
	}
	return g.id
}

// path is the committed golden: the Results JSON, or its hex SHA-256
// for observed cases.
func (g goldenCase) path() string {
	ext := ".json"
	if g.observed {
		ext = ".sha256"
	}
	return filepath.Join("testdata", "golden", g.name()+ext)
}

// goldenOptions shrinks the runs (the shapes, not the dimensions, are
// what the differential pins): high scale divisor, short windows, few
// clients. Parallel exercises the sweep machinery. Shard placement
// (stable-ID hashing) is part of the experiment definition, so the
// sharded goldens pin it too.
func goldenOptions(g goldenCase, capture func(*cluster.Results)) Options {
	opts := Options{
		Scale:          100,
		WarmupPeriods:  1,
		MeasurePeriods: 2,
		Clients:        10, // the paper's testbed width; reservations are sized per client against C_L
		Records:        512,
		Seed:           42,
		Parallel:       4,
		Observe:        &cluster.Observe{OnResults: capture},
	}
	if g.shards > 1 {
		opts.Shards = g.shards
		opts.ShardWorkers = 2
	}
	if g.observed {
		opts.Observe.FlightSpans = 256
		opts.Observe.MetricsInterval = cluster.DefaultMetricsInterval(core.NewDefaultParams().Period)
	}
	return opts
}

// TestGoldenResultsByteIdentical replays Sets 1-5 and compares every
// cluster run's Results JSON against the goldens: the unsharded ones
// generated at the seed commit (before the struct-of-arrays/batched-
// station refactor), the sharded ones before the unsharded and sharded
// run paths were merged into one.
// Regenerate with HAECHI_UPDATE_GOLDEN=1 after an intentional
// model-behavior change — and say why in the commit.
func TestGoldenResultsByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("golden differential is not -short")
	}
	update := os.Getenv("HAECHI_UPDATE_GOLDEN") != ""
	for _, g := range goldenCases {
		g := g
		t.Run(g.name(), func(t *testing.T) {
			var mu sync.Mutex
			var runs []*cluster.Results
			opts := goldenOptions(g, func(res *cluster.Results) {
				mu.Lock()
				runs = append(runs, res)
				mu.Unlock()
			})
			if _, err := Run(g.id, opts); err != nil {
				t.Fatalf("running %s: %v", g.id, err)
			}
			sort.SliceStable(runs, func(i, j int) bool { return runs[i].RunTag < runs[j].RunTag })
			// Observed runs stream into the digest instead of a buffer.
			var buf bytes.Buffer
			digest := sha256.New()
			var w io.Writer = &buf
			if g.observed {
				w = digest
			}
			size := 0
			for i, res := range runs {
				fmt.Fprintf(w, "run %d mode=%s\n", res.RunTag, res.Mode)
				b, err := json.MarshalIndent(res, "", " ")
				if err != nil {
					t.Fatalf("marshaling run %d: %v", res.RunTag, err)
				}
				w.Write(b)
				w.Write([]byte{'\n'})
				size += len(b)
				runs[i] = nil
			}
			got := buf.Bytes()
			if g.observed {
				got = []byte(hex.EncodeToString(digest.Sum(nil)) + "\n")
			}
			path := g.path()
			if update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("wrote %s (%d runs, %d bytes of JSON)", path, len(runs), size)
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden %s (regenerate with HAECHI_UPDATE_GOLDEN=1): %v", path, err)
			}
			if !bytes.Equal(want, got) {
				if g.observed {
					t.Fatalf("%s: Results digest %s diverged from the golden %s (%d runs, %d bytes of JSON)",
						g.name(), bytes.TrimSpace(got), bytes.TrimSpace(want), len(runs), size)
				}
				gotPath := filepath.Join(t.TempDir(), g.name()+".json")
				os.WriteFile(gotPath, got, 0o644)
				t.Fatalf("%s: Results diverged from the golden (%d runs, got %d bytes want %d); inspect with diff %s %s",
					g.name(), len(runs), len(got), len(want), path, gotPath)
			}
		})
	}
}
