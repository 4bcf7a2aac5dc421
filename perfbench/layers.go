package perfbench

import (
	"bufio"
	"fmt"
	"os/exec"
	"strings"
	"time"
)

// modulePrefix marks the frames that belong to one of the simulator's
// layers: github.com/haechi-qos/haechi/internal/<module>[/...].
const modulePrefix = "github.com/haechi-qos/haechi/internal/"

// Layers is a CPU profile split by layer, in seconds.
type Layers struct {
	// Module charges each sample to its innermost internal/<module>
	// frame, so runtime work (copies, allocation, math) counts against
	// the layer that called it. Samples with no such frame (GC workers,
	// the scheduler, the harness) are under "unattributed".
	Module map[string]float64
	// Copy and Alloc are a cross-cut over the same samples, by the
	// runtime frames at the top of the stack: value copies (memmove,
	// duffcopy) and allocation (mallocgc, memclr, growslice). GC work
	// done as an allocation assist counts as neither.
	Copy  float64
	Alloc float64
	// Total is the whole profile.
	Total float64
}

// PprofTraces renders a CPU profile with the toolchain's bundled pprof
// (`go tool pprof -traces`), one block per distinct stack.
func PprofTraces(profile string) (string, error) {
	out, err := exec.Command("go", "tool", "pprof", "-traces", profile).Output()
	if err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			return "", fmt.Errorf("perfbench: go tool pprof: %v: %s", err, ee.Stderr)
		}
		return "", fmt.Errorf("perfbench: go tool pprof: %w", err)
	}
	return string(out), nil
}

// Attribute parses `go tool pprof -traces` output and splits its samples
// by layer. Each block is a separator line, then the sample value and the
// innermost frame on one line, then the callers one per line.
func Attribute(traces string) (Layers, error) {
	l := Layers{Module: map[string]float64{}}
	var value float64
	var stack []string
	flush := func() {
		if stack == nil {
			return
		}
		l.Total += value
		l.Module[moduleOf(stack)] += value
		switch crossCut(stack) {
		case "copy":
			l.Copy += value
		case "alloc":
			l.Alloc += value
		}
		stack = nil
	}
	inBlocks := false
	sc := bufio.NewScanner(strings.NewReader(traces))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inBlocks = true
			continue
		}
		if !inBlocks || strings.TrimSpace(line) == "" {
			continue
		}
		fields := strings.Fields(line)
		if stack == nil {
			if len(fields) < 2 {
				return Layers{}, fmt.Errorf("perfbench: malformed pprof sample line %q", line)
			}
			d, err := time.ParseDuration(fields[0])
			if err != nil {
				return Layers{}, fmt.Errorf("perfbench: pprof sample value %q: %w", fields[0], err)
			}
			value = d.Seconds()
			fields = fields[1:]
		}
		stack = append(stack, fields[0])
	}
	if err := sc.Err(); err != nil {
		return Layers{}, err
	}
	flush()
	if l.Total == 0 {
		return Layers{}, fmt.Errorf("perfbench: profile holds no samples")
	}
	return l, nil
}

// moduleOf returns the module of the innermost internal/<module> frame.
func moduleOf(stack []string) string {
	for _, fn := range stack {
		if rest, ok := strings.CutPrefix(fn, modulePrefix); ok {
			if i := strings.IndexAny(rest, "/."); i > 0 {
				return rest[:i]
			}
		}
	}
	return "unattributed"
}

// crossCut classifies a sample by the runtime frames above its first
// non-runtime caller, innermost first.
func crossCut(stack []string) string {
	for _, fn := range stack {
		if !strings.HasPrefix(fn, "runtime.") {
			return ""
		}
		switch {
		case strings.HasPrefix(fn, "runtime.gcAssist"), strings.HasPrefix(fn, "runtime.gcDrain"):
			return ""
		case fn == "runtime.memmove", fn == "runtime.duffcopy", fn == "runtime.typedmemmove":
			return "copy"
		case strings.HasPrefix(fn, "runtime.mallocgc"), strings.HasPrefix(fn, "runtime.memclr"),
			fn == "runtime.growslice", fn == "runtime.newobject", fn == "runtime.makeslice":
			return "alloc"
		}
	}
	return ""
}
