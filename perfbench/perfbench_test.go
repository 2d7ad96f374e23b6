package main

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"picoprobe/internal/metadata"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentileInterpolates(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3} // unsorted on purpose
	for _, c := range []struct{ p, want float64 }{
		{50, 3}, {100, 5}, {0, 1}, {25, 2}, {90, 4.6},
	} {
		if got := percentile(xs, c.p); !near(got, c.want) {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of an empty sample should be NaN")
	}
	if xs[0] != 5 {
		t.Error("percentile sorted its input in place")
	}
}

func TestSampleCountsBeyondPercentile(t *testing.T) {
	for _, c := range []struct {
		n      int
		p      float64
		beyond int
	}{
		{100, 90, 10}, {120, 90, 12}, {99, 90, 9}, {1000, 99, 10}, {10, 50, 5},
	} {
		if got := beyond(c.n, c.p); got != c.beyond {
			t.Errorf("beyond(%d, p%v) = %d, want %d", c.n, c.p, got, c.beyond)
		}
	}
	// The highest percentile with at least ten samples beyond it.
	for _, c := range []struct {
		n    int
		want float64
	}{
		{120, 90}, {100, 90}, {99, 75}, {1000, 99}, {10000, 99.9}, {15, 0}, {200, 95},
	} {
		if got := supportedTail(c.n, 10); got != c.want {
			t.Errorf("supportedTail(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

// Reference values from Python: statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{10, 20, 30, 40, 50}, 15, 30, 45},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

// at builds a span from millisecond offsets.
func at(id, parent int, name string, start, end int64) span {
	return span{Trace: "f", ID: id, Parent: parent, Name: name,
		Start: start * int64(time.Millisecond), End: end * int64(time.Millisecond)}
}

func TestSelfTimeSubtractsUnionOfOverlappingChildren(t *testing.T) {
	spans := []span{
		at(1, 0, "flows.run", 0, 100),
		at(2, 1, "transfer", 10, 40),
		at(3, 1, "compute", 30, 60),         // overlaps transfer by 10
		at(4, 1, "compute", 35, 50),         // inside the previous child
		at(5, 1, "search.publish", 90, 130), // sticks out of the parent
		at(6, 2, "transfer.chunk", 15, 20),
	}
	self := selfTimes(spans)
	// Children cover [10,60] and [90,100]: 60 ms of the parent's 100.
	if got := self[1]; got != 40*time.Millisecond {
		t.Errorf("flows.run self = %v, want 40ms", got)
	}
	if got := self[2]; got != 25*time.Millisecond {
		t.Errorf("transfer self = %v, want 25ms", got)
	}
	if got := self[3]; got != 30*time.Millisecond {
		t.Errorf("leaf self = %v, want its duration", got)
	}
	for id, d := range self {
		if d < 0 {
			t.Errorf("span %d has negative self time %v", id, d)
		}
	}
}

func TestTraceMetricsRunShares(t *testing.T) {
	spans := []span{
		at(1, 0, "file", 0, 200),
		at(2, 1, "watcher.settle", 0, 50),
		at(3, 1, "flows.run", 50, 150),
		at(4, 3, "transfer", 50, 110),
		at(5, 3, "compute.wait", 110, 115),
		at(6, 3, "compute", 115, 135),
	}
	m := traceMetrics(spans)
	if !near(m["trace.run_share.transfer"], 0.6) || !near(m["trace.run_share.compute"], 0.2) {
		t.Errorf("run shares = %v / %v, want 0.6 / 0.2", m["trace.run_share.transfer"], m["trace.run_share.compute"])
	}
	if !near(m["trace.self_ms.compute"], 25) { // compute.wait + compute
		t.Errorf("compute self = %v ms, want 25", m["trace.self_ms.compute"])
	}
	if !near(m["trace.self_ms.flows"], 15) {
		t.Errorf("flows self = %v ms, want 15", m["trace.self_ms.flows"])
	}
	if m["trace.self_ms.portal"] != 0 || m["trace.spans"] != 6 {
		t.Errorf("unexercised layer or span count wrong: %v", m)
	}
}

func TestTracerBeginEndAndNil(t *testing.T) {
	var off *tracer
	if id := off.add("x", 0, "file", time.Now(), time.Now()); id != 0 {
		t.Error("nil tracer recorded a span")
	}
	tr := &tracer{}
	t0 := time.Now()
	root := tr.begin("f1", 0, "file", t0)
	tr.add("f1", root, "watcher.settle", t0, t0.Add(time.Millisecond))
	tr.begin("f2", 0, "file", t0) // never closed: the file never became visible
	tr.end(root, t0.Add(5*time.Millisecond))
	spans := tr.snapshot()
	if len(spans) != 2 || spans[0].dur() != 5*time.Millisecond || spans[1].Parent != root {
		t.Errorf("snapshot = %+v", spans)
	}
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := tr.write(path); err != nil {
		t.Fatal(err)
	}
	raw, _ := os.ReadFile(path)
	if n := strings.Count(string(raw), "\n"); n != 2 {
		t.Errorf("span file has %d lines, want 2", n)
	}
}

func TestJudgeVerdicts(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(xs []float64, by float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x + by
		}
		return out
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	for _, c := range []struct {
		name     string
		old, new []float64
		better   string
		want     string
	}{
		{"latency down 20%", base, shift(base, -20), "lower", verdictBetter},
		{"latency up 30%", base, shift(base, 30), "lower", verdictWorse},
		{"latency up 5% within a 10% bound", base, shift(base, 5), "lower", verdictSame},
		{"throughput up 20%", base, shift(base, 20), "higher", verdictBetter},
		{"throughput down 30%", base, shift(base, -30), "higher", verdictWorse},
		{"spread wider than the bound", noisy, shift(noisy, 3), "lower", verdictUnresolved},
		{"wide spread but every new run better", noisy, shift(noisy, -200), "lower", verdictBetter},
		{"no change", base, base, "lower", verdictSame},
	} {
		if got := judge(c.old, c.new, c.better, 0.10); got.verdict != c.want {
			t.Errorf("%s: verdict %q, want %q (%+v)", c.name, got.verdict, c.want, got)
		}
	}
	// A gain needs 9 of 10 pair wins: 8 wins is not enough.
	old := []float64{10, 10, 10, 10, 10, 10, 10, 10, 10, 10}
	new := []float64{8, 8, 8, 8, 8, 8, 8, 8, 10, 10}
	if j := judge(old, new, "lower", 0.5); j.wins != 8 || j.verdict != verdictSame {
		t.Errorf("8/10 wins judged %q with %d wins", j.verdict, j.wins)
	}
}

func TestParseDefaults(t *testing.T) {
	usage := `Usage of picoprobe-watch:
  -batch-bytes int
    	max bytes per batch (0 = uncapped) (default 2147483648)
  -count int
    	exit after this many files (0 = forever)
  -linger duration
    	quiet period before a below-threshold batch flushes (default 500ms)
  -pattern string
    	file glob to react to (default "*.emdg")
  -cache
    	enable caching
`
	d := parseDefaults("picoprobe-watch", []byte(usage))
	g := &getter{d: d}
	if v := g.Int64("batch-bytes"); v != 2<<30 {
		t.Errorf("batch-bytes = %d", v)
	}
	if v := g.Int("count"); v != 0 {
		t.Errorf("count = %d", v)
	}
	if v := g.Duration("linger"); v != 500*time.Millisecond {
		t.Errorf("linger = %v", v)
	}
	if v := g.String("pattern"); v != "*.emdg" {
		t.Errorf("pattern = %q", v)
	}
	if v := g.Bool("cache"); v {
		t.Error("cache should default to false")
	}
	if g.err != nil {
		t.Fatal(g.err)
	}
	if g.Int("no-such-flag"); g.err == nil {
		t.Error("a missing flag must be an error, not a silent zero")
	}
}

// A forced check failure counts once per operation toward failed_frac.
func TestFailedFracCountsForcedCheckFailure(t *testing.T) {
	dir := t.TempDir()
	in := &stagedInputs{refSubjects: [][]string{{"Au", "Pb"}}}
	subjects := func(string) ([]string, bool) { return []string{"Au", "Pb"}, true }
	mk := func(name, content string) *benchFile {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		sum, _ := sha256File(filepath.Join(dir, name))
		return &benchFile{name: name, sample: "s-" + name, recordID: "r-" + name, sha: sum,
			visible: time.Now(), hitSample: "s-" + name, hitKind: metadata.KindHyperspectral,
			batch: &batchRun{}}
	}
	files := []*benchFile{mk("a", "alpha"), mk("b", "bravo"), mk("c", "charlie"), mk("d", "delta")}
	sums := map[string]string{}
	for _, f := range files {
		sums[f.name] = f.sha
	}
	// Force failures: c's landed bytes are corrupted after the source
	// was hashed; d's record never became visible.
	if err := os.WriteFile(filepath.Join(dir, "c"), []byte("charliE"), 0o644); err != nil {
		t.Fatal(err)
	}
	files[3].visible = time.Time{}

	var res passResult
	for _, f := range files {
		res.op(checkFile(f, metadata.KindHyperspectral, in, sums, dir, dir, subjects)...)
	}
	if res.attempted != 4 || res.failed != 2 || !near(res.failedFrac(), 0.5) {
		t.Fatalf("attempted %d failed %d frac %v, want 4/2/0.5", res.attempted, res.failed, res.failedFrac())
	}
	if res.problems["landed bytes differ from source"] != 1 || res.problems["record never visible in /api/search"] != 1 {
		t.Errorf("problems = %v", res.problems)
	}

	// A wrong analysis result is a failure too.
	wrong := func(string) ([]string, bool) { return []string{"Au"}, true }
	var res2 passResult
	res2.op(checkFile(files[0], metadata.KindHyperspectral, in, sums, dir, dir, wrong)...)
	if res2.failed != 1 || res2.problems["elements identified differ from reference"] != 1 {
		t.Errorf("wrong elements not counted: %+v", res2.ledger)
	}
}

func TestCheckBody(t *testing.T) {
	if p := checkBody("/api/search?q=x", []byte(`{"total":0,"hits":[]}`)); p != "" {
		t.Errorf("valid search body rejected: %s", p)
	}
	if p := checkBody("/api/search", []byte(`{"total":0,"hits":null}`)); p == "" {
		t.Error("null hits accepted")
	}
	if p := checkBody("/api/facets?field=kind", []byte(`{"field":"kind"`)); p == "" {
		t.Error("truncated facets body accepted")
	}
	if p := checkBody("/", []byte("<html><body>")); p == "" {
		t.Error("truncated page accepted")
	}
}

func TestTargetNames(t *testing.T) {
	for path, want := range map[string]string{
		"/":                       "root",
		"/api/search":             "api_search",
		"/api/search?q=gold+film": "api_search_q_gold_film",
		"/api/search?q=word-123+word-250+vacancy": "api_search_q_word_123_word_250_vacancy",
	} {
		if got := targetName(path); got != want {
			t.Errorf("targetName(%q) = %q, want %q", path, got, want)
		}
	}
	for _, d := range perLayer() {
		if len(d.name) > 64 {
			t.Errorf("metric name %q is longer than 64 characters", d.name)
		}
	}
}

func TestCompareReadsRunLogsAndPairsBySeed(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, recs []runRecord) string {
		path := filepath.Join(dir, name)
		for _, r := range recs {
			if err := appendRecord(path, r); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	rec := func(seed int64, latency float64, traced bool) runRecord {
		return runRecord{Workload: "w", Trace: traced, Host: hostStamp{Seed: seed},
			Result: resultLine{Correct: true, Attempted: 1, Metrics: map[string]metric{
				"visible_p50_ms": {Value: latency, Unit: "ms"},
			}}}
	}
	var old, new []runRecord
	for s := int64(10); s > 0; s-- { // written out of seed order on purpose
		old = append(old, rec(s, 100+float64(s), false))
		new = append(new, rec(s, 70+float64(s), false))
	}
	old = append(old, rec(99, 1e6, true)) // traced runs never enter the end-to-end verdicts
	oldRuns, err := readRuns(write("old.jsonl", old))
	if err != nil {
		t.Fatal(err)
	}
	newRuns, err := readRuns(write("new.jsonl", new))
	if err != nil {
		t.Fatal(err)
	}
	if got := valuesBySeed(oldRuns, "w", false, "visible_p50_ms"); len(got) != 10 || got[0] != 101 || got[9] != 110 {
		t.Fatalf("values not in seed order: %v", got)
	}
	var spec benchSpec
	spec.EndToEnd = append(spec.EndToEnd, struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}{"visible_p50_ms", "ms", "lower", 0.15})
	var out strings.Builder
	if err := writeComparison(&out, spec, oldRuns, newRuns); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "workload w") || !strings.Contains(out.String(), "better (bound 15%)") ||
		!strings.Contains(out.String(), "10/10") {
		t.Errorf("comparison output:\n%s", out.String())
	}
}
