// Command perfbench is the repository's benchmark: it boots a two-broker
// Liquid stack in-process, runs one seeded workload (live, serve or
// rewind), checks the workload's outputs against a reference and prints
// every metric by name and unit. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}. With
// --trace 1 the metrics are the per-layer ones, read from spans around the
// benchmark's calls into each layer and from the stack's own counters.
// See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"
)

// workDir is where runs keep data directories, span files and the last
// untraced result, relative to the checkout root the command runs from.
const workDir = ".perfbench"

// bench is one workload: set up a stack with its preloaded state, measure,
// and tear down.
type bench interface {
	setup(dir string) (phases, error)
	measure() (*report, error)
	close()
}

var workloads = map[string]func(*env) bench{
	"live":   func(e *env) bench { return &live{e: e} },
	"serve":  func(e *env) bench { return &serve{e: e} },
	"rewind": func(e *env) bench { return &rewind{e: e} },
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: live, serve or rewind")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "length of the measured phase in seconds")
	trace := flag.Int("trace", 0, "1 records spans and prints per-layer metrics")
	flag.Parse()
	mk, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload live|serve|rewind --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	if err := run(*name, mk, *seed, time.Duration(*seconds)*time.Second, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, mk func(*env) bench, seed int64, seconds time.Duration, traced bool) error {
	e := &env{seed: seed, seconds: seconds}
	if traced {
		e.tr = &tracer{epoch: time.Now()}
	}
	e.fsync = &fsyncProbe{tr: e.tr}
	base := filepath.Join(workDir, "data", fmt.Sprintf("%s-%d", name, os.Getpid()))
	if err := os.MkdirAll(base, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(base)

	// Set up several times and keep the last: setup_s is the median.
	var ps []phases
	var b bench
	for i := 0; i < setups; i++ {
		settle()
		b = mk(e)
		dir := filepath.Join(base, fmt.Sprint(i))
		ph, err := b.setup(dir)
		if err != nil {
			b.close()
			return fmt.Errorf("setup: %w", err)
		}
		ps = append(ps, ph)
		if i < setups-1 {
			b.close()
			if err := os.RemoveAll(dir); err != nil {
				return err
			}
		}
	}
	defer b.close()
	var setupS []float64
	for _, p := range ps {
		setupS = append(setupS, p.total().Seconds())
	}
	fp := fingerprint(base, seed, seconds)

	settle()
	r, err := b.measure()
	if err != nil {
		return fmt.Errorf("measure: %w", err)
	}
	r.addE2E("setup_s", median(setupS))
	r.addE2E("peak_rss_mb", peakRSSMB())
	for i, p := range ps {
		r.detail("setup %d: %.3f s (start %.3f, preload %.3f, materialize %.3f)",
			i, p.total().Seconds(), p.start.Seconds(), p.preload.Seconds(), p.materialize.Seconds())
	}
	r.detail("error_rate: %d failed / %d attempted = %g", r.failed, r.attempted, per(r.failed, max(r.attempted, 1)))
	setupLayers(r, ps)
	for k, v := range r.offered {
		fp[k] = v
	}

	out := resultOut{
		Correct:   r.failed == 0,
		Attempted: max(r.attempted, 1),
		Failed:    r.failed,
		Metrics:   make(map[string]metricOut),
	}
	pick, specs := r.e2e, e2eSpecs
	if traced {
		pick, specs = r.layer, layerSpecs
	}
	for _, v := range pick {
		if specs[v.name].inResult {
			out.Metrics[v.name] = metricOut{Value: v.v, Unit: v.unit}
		}
	}

	fpLine, err := json.Marshal(map[string]any{"environment": fp})
	if err != nil {
		return err
	}
	fmt.Println(string(fpLine))
	for _, d := range r.details {
		fmt.Println("#", d)
	}
	for _, v := range sortedValues(r.e2e) {
		fmt.Printf("# e2e %-22s %14.4f %s\n", v.name, v.v, v.unit)
	}
	lastPath := filepath.Join(workDir, "last-untraced-"+name+".json")
	if traced {
		for _, v := range sortedValues(r.layer) {
			fmt.Printf("# layer %-34s %16.4f %s\n", v.name, v.v, v.unit)
		}
		printOverhead(lastPath, r.e2e)
		spans := filepath.Join(workDir, "trace", name+".tsv.gz")
		if err := e.tr.write(spans); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
		fmt.Printf("# spans: %d written to %s\n", e.tr.n, spans)
	} else {
		saveUntraced(lastPath, r.e2e)
	}

	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// settle starts a set-up or the measured phase from the same state: the
// previous set-up's garbage collected and returned to the OS, and dirty
// pages of its deleted data directory no longer in writeback.
func settle() {
	debug.FreeOSMemory()
	syscall.Sync()
}

// saveUntraced keeps the untraced run's end-to-end metrics so a later
// traced run of the same workload can report its own overhead.
func saveUntraced(path string, e2e []value) {
	m := make(map[string]float64, len(e2e))
	for _, v := range e2e {
		m[v.name] = v.v
	}
	b, err := json.Marshal(m)
	if err == nil {
		err = os.WriteFile(path, b, 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: keeping untraced result:", err)
	}
}

// printOverhead prints each end-to-end metric of the traced run against
// the last untraced run of the same workload.
func printOverhead(path string, e2e []value) {
	b, err := os.ReadFile(path)
	var base map[string]float64
	if err == nil {
		err = json.Unmarshal(b, &base)
	}
	if err != nil {
		fmt.Println("# tracing overhead: no untraced run on record; run with --trace 0 first")
		return
	}
	for _, v := range sortedValues(e2e) {
		u, ok := base[v.name]
		if !ok || u == 0 {
			continue
		}
		fmt.Printf("# tracing overhead %-18s traced %12.4f untraced %12.4f (%+.1f%%)\n",
			v.name, v.v, u, (v.v-u)/u*100)
	}
}

// fingerprint records the environment a result was measured in.
func fingerprint(dataDir string, seed int64, seconds time.Duration) map[string]any {
	// run.sh sets the revision: the git commit, or a digest of the Go
	// sources when the checkout is not a git repository.
	rev := os.Getenv("PERFBENCH_REV")
	if rev == "" {
		rev = "unknown"
	}
	return map[string]any{
		"nproc":          runtime.NumCPU(),
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"go":             runtime.Version(),
		"git_rev":        rev,
		"data_dir_fs":    fsType(dataDir),
		"fsync_barrier":  barrier.String(),
		"seed":           seed,
		"measured_s":     seconds.Seconds(),
		"brokers":        brokers,
		"replication":    replicas,
		"setups_per_run": setups,
		"durability":     "group commit",
	}
}
