// Command perfbench is the repository's end-to-end benchmark: the live
// Fig 4 path over real sockets, from a file landing in the watched
// directory to its record being returned by the portal's /api/search,
// split by layer, plus portal reads under catalog writes.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	bash perfbench/run.sh --workload hyperspectral-wire --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh compare OLD.jsonl NEW.jsonl
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Lines before it are a human
// summary and the host stamp. Every run also appends its full record
// (host stamp included) to .bench_out/runs.jsonl, which the compare
// subcommand reads. See README.md in this directory.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// outDir holds everything a run leaves behind, relative to the
// repository root: scratch trees (removed at the end of each run), span
// files and the run log.
const outDir = ".bench_out"

// workload is one named set of inputs. run executes one measured pass
// of seconds; tr is nil for the untraced pass.
type workload struct {
	name string
	why  string
	run  func(env runEnv, tr *tracer) (*passResult, error)
}

// runEnv is what a pass needs to know about its invocation.
type runEnv struct {
	root    string // repository root
	bin     string // directory holding the built shipped commands
	work    string // per-run scratch directory under root/outDir
	seed    int64
	seconds int
}

// passResult is the outcome of one pass: operation accounting, the
// end-to-end metrics, the per-layer metrics, and human notes (sample
// counts) printed before the JSON line.
type passResult struct {
	ledger
	e2e   map[string]float64
	layer map[string]float64
	notes []string
}

var workloads = []workload{
	{name: "hyperspectral-wire", why: "transfer-bound pipeline (Fig 4A shape)", run: runHyperspectral},
	{name: "spatiotemporal-wire", why: "conversion-heavy pipeline (Fig 4B shape)", run: runSpatiotemporal},
	{name: "portal-read-ingest", why: "portal reads beside catalog writes", run: runPortalReadIngest},
}

// metricDef is one reported metric with its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the untraced run's metrics, in print order.
var endToEnd = []metricDef{
	{"visible_p50_ms", "ms"},
	{"visible_p90_ms", "ms"},
	{"drain_files_per_s", "files/s"},
	{"query_p50_ms", "ms"},
	{"query_p90_ms", "ms"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists the traced run's metrics, in print order. Every
// workload prints every one; a layer the workload does not exercise
// reports 0.
func perLayer() []metricDef {
	defs := []metricDef{
		{"failed_frac", "frac"},
		{"watcher.settle_ms", "ms"},
		{"watcher.batch_wait_ms", "ms"},
		{"watcher.files_per_batch", "count"},
		{"flows.queue_ms", "ms"},
		{"flows.run_ms", "ms"},
		{"flows.overhead_ms", "ms"},
		{"transfer.queue_ms", "ms"},
		{"transfer.active_ms", "ms"},
		{"transfer.mb_per_s", "MB/s"},
		{"transfer.copy_amplification", "ratio"},
		{"transfer.attempts", "count"},
		{"compute.wait_ms", "ms"},
		{"compute.active_ms", "ms"},
		{"search.publish_ms", "ms"},
		{"search.visible_lag_ms", "ms"},
		{"search.ingest_batch_ms", "ms"},
	}
	for _, t := range portalTargets() {
		defs = append(defs, metricDef{"portal.query_ms." + t.name, "ms"})
	}
	defs = append(defs,
		metricDef{"portal.query_p99_ms", "ms"},
		metricDef{"portal.cache_hit_frac", "frac"},
		metricDef{"portal.status_5xx", "count"},
		metricDef{"bench.generator_lag_ms", "ms"},
		metricDef{"bench.visible_samples", "count"},
		metricDef{"bench.query_samples", "count"},
	)
	for _, l := range traceLayers {
		defs = append(defs, metricDef{"trace.self_ms." + l, "ms"})
	}
	return append(defs,
		metricDef{"trace.run_share.transfer", "frac"},
		metricDef{"trace.run_share.compute", "frac"},
		metricDef{"trace.spans", "count"},
		metricDef{"trace.overhead_ms", "ms"},
	)
}

// metric is one value of the JSON line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runRecord is one line of .bench_out/runs.jsonl.
type runRecord struct {
	Workload string     `json:"workload"`
	Trace    bool       `json:"trace"`
	Host     hostStamp  `json:"host"`
	Problems []string   `json:"problems,omitempty"`
	Result   resultLine `json:"result"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compareMain(os.Args[2:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench compare:", err)
			os.Exit(2)
		}
		return
	}
	if err := benchMain(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func benchMain(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 20, "measured seconds per pass")
	traced := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	root := fs.String("root", ".", "repository root")
	bin := fs.String("bin", ".bench_build/bin", "directory of the built picoprobe-watch, -facilityd and -portal commands (relative to --root)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		names := make([]string, len(workloads))
		for i, w := range workloads {
			names[i] = w.name
		}
		return fmt.Errorf("unknown workload %q (have %s)", *name, strings.Join(names, ", "))
	}
	if *seconds < 1 {
		return errors.New("--seconds must be at least 1")
	}
	rootAbs, err := filepath.Abs(*root)
	if err != nil {
		return err
	}
	if _, err := os.Stat(filepath.Join(rootAbs, "go.mod")); err != nil {
		return fmt.Errorf("%s is not the repository root: %w", rootAbs, err)
	}
	work := filepath.Join(rootAbs, outDir, fmt.Sprintf("run-%s-%d-%d", wl.name, *seed, os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(work)
	env := runEnv{root: rootAbs, bin: filepath.Join(rootAbs, *bin), work: work, seed: *seed, seconds: *seconds}

	host := stampHost(rootAbs, *seed, *seconds)
	res, err := runWorkload(wl, env, *traced == 1)
	if err != nil {
		return err
	}

	line := resultLine{
		Correct:   res.failed == 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   map[string]metric{},
	}
	defs, values := endToEnd, res.e2e
	if *traced == 1 {
		defs, values = perLayer(), res.layer
	}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return fmt.Errorf("workload %s did not report %s", wl.name, d.name)
		}
		line.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	rec := runRecord{Workload: wl.name, Trace: *traced == 1, Host: host,
		Problems: res.problemList(), Result: line}
	if err := appendRecord(filepath.Join(rootAbs, outDir, "runs.jsonl"), rec); err != nil {
		return err
	}

	printSummary(stdout, wl, res, host)
	raw, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", raw)
	return err
}

// runWorkload runs the untraced pass. A traced run instead runs two
// passes of half the length each, untraced then traced, so it takes as
// long as an untraced run; it reports the traced pass's per-layer
// metrics and the tracing overhead: the traced pass's headline latency
// minus the untraced one's.
func runWorkload(wl *workload, env runEnv, traced bool) (*passResult, error) {
	if traced {
		env.seconds = max(1, env.seconds/2)
	}
	plain, err := wl.run(env, nil)
	if err != nil {
		return nil, err
	}
	if !traced {
		return plain, nil
	}
	tr := &tracer{}
	res, err := wl.run(env, tr)
	if err != nil {
		return nil, err
	}
	res.ledger.merge(plain.ledger)
	headline := "visible_p50_ms"
	if wl.name == "portal-read-ingest" {
		headline = "query_p50_ms"
	}
	for k, v := range traceMetrics(tr.snapshot()) {
		res.layer[k] = v
	}
	res.layer["trace.overhead_ms"] = res.e2e[headline] - plain.e2e[headline]
	res.layer["failed_frac"] = res.failedFrac()
	spanPath := filepath.Join(env.root, outDir, fmt.Sprintf("spans-%s-%d.jsonl", wl.name, env.seed))
	if err := tr.write(spanPath); err != nil {
		return nil, err
	}
	res.notes = append(res.notes, "spans written to "+filepath.Join(outDir, filepath.Base(spanPath)))
	return res, nil
}

func printSummary(w io.Writer, wl *workload, res *passResult, host hostStamp) {
	fmt.Fprintf(w, "workload %s (%s), seed %d, %ds\n", wl.name, wl.why, host.Seed, host.Seconds)
	for _, n := range res.notes {
		fmt.Fprintf(w, "  %s\n", n)
	}
	fmt.Fprintf(w, "  failed_frac %.6f (%d of %d operations)\n", res.failedFrac(), res.failed, res.attempted)
	for _, p := range res.problemList() {
		fmt.Fprintf(w, "  problem: %s\n", p)
	}
	for _, d := range endToEnd {
		fmt.Fprintf(w, "  %-20s %12.4f %s\n", d.name, res.e2e[d.name], d.unit)
	}
	if len(res.layer) > 0 {
		for _, d := range perLayer() {
			fmt.Fprintf(w, "  %-58s %12.4f %s\n", d.name, res.layer[d.name], d.unit)
		}
	}
	raw, _ := json.Marshal(host)
	fmt.Fprintf(w, "host %s\n", raw)
}

func appendRecord(path string, rec runRecord) error {
	raw, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(raw, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ledger counts operations (files in the pipeline workloads, requests
// in the portal workload) and the checks they failed. An operation
// fails at most once however many of its checks fail; every failed
// check is kept by reason.
type ledger struct {
	attempted, failed int
	problems          map[string]int
}

// op records one operation and the problems its checks found.
func (l *ledger) op(problems ...string) {
	l.attempted++
	if len(problems) == 0 {
		return
	}
	l.failed++
	if l.problems == nil {
		l.problems = map[string]int{}
	}
	for _, p := range problems {
		l.problems[p]++
	}
}

func (l *ledger) merge(o ledger) {
	l.attempted += o.attempted
	l.failed += o.failed
	for p, n := range o.problems {
		if l.problems == nil {
			l.problems = map[string]int{}
		}
		l.problems[p] += n
	}
}

func (l *ledger) failedFrac() float64 {
	if l.attempted == 0 {
		return 0
	}
	return float64(l.failed) / float64(l.attempted)
}

func (l *ledger) problemList() []string {
	out := make([]string, 0, len(l.problems))
	for p, n := range l.problems {
		out = append(out, fmt.Sprintf("%s ×%d", p, n))
	}
	sort.Strings(out)
	return out
}

// settleHost clears what input generation left behind before anything
// is timed: its dirty pages go to disk now rather than competing with
// the program's own writes and fsyncs mid-run, and its garbage is
// collected now rather than on the program's time.
//
// It also resets the resident-set high-water mark, so peak_rss_mb
// covers set-up and the measured phases, not input generation.
func settleHost() {
	syscall.Sync()
	debug.FreeOSMemory()
	// Writing 5 to clear_refs resets VmHWM to the current RSS (Linux).
	os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// since is a helper for elapsed wall time in seconds.
func since(t time.Time) float64 { return time.Since(t).Seconds() }

// timeline records how long each stage of a pass took, for the human
// summary (where a run's wall time goes, measured or not).
type timeline struct {
	last  time.Time
	parts []string
}

func newTimeline() *timeline { return &timeline{last: time.Now()} }

func (t *timeline) mark(stage string) {
	now := time.Now()
	t.parts = append(t.parts, fmt.Sprintf("%s %.1fs", stage, now.Sub(t.last).Seconds()))
	t.last = now
}

func (t *timeline) String() string { return strings.Join(t.parts, ", ") }
