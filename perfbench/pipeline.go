package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"picoprobe/internal/core"
	"picoprobe/internal/detect"
	"picoprobe/internal/flows"
	"picoprobe/internal/metadata"
	"picoprobe/internal/synth"
	"picoprobe/internal/transfer"
	"picoprobe/internal/watcher"
	"picoprobe/internal/wire"
)

// pipelineSpec fixes a pipeline workload's inputs: what kind of file,
// how many distinct acquisitions the files cycle through, and the
// arrival schedule. The seed picks the acquisitions and the jitter.
type pipelineSpec struct {
	prefix     string
	kind       string
	distinct   int
	steadyRate float64 // files per second in the open-loop steady phase
	steadyFrac float64 // share of --seconds the steady schedule spans
	burst      int     // files landing at once in the burst phase
	warmup     int     // files landed and awaited before measuring
	// sample generates distinct acquisition k and returns its writer.
	sample func(seed int64) (func(path string, acq *metadata.Acquisition) error, error)
}

// hyperspectralSpec: cubes in the BenchmarkFig2HyperspectralAnalysis
// shape, 64×64×256 float32 (~4 MB). Transfer-bound (Fig 4A).
var hyperspectralSpec = pipelineSpec{
	prefix: "hs", kind: metadata.KindHyperspectral, distinct: 4,
	steadyRate: 10, steadyFrac: 0.6, burst: 96, warmup: 2,
	sample: func(seed int64) (func(string, *metadata.Acquisition) error, error) {
		s, err := synth.GenerateHyperspectral(synth.HyperspectralConfig{Height: 64, Width: 64, Channels: 256, Seed: seed})
		if err != nil {
			return nil, err
		}
		return func(path string, acq *metadata.Acquisition) error {
			return s.WriteEMD(path, synth.DefaultMicroscope(), acq)
		}, nil
	},
}

// spatiotemporalSpec: nanoparticle series in the
// BenchmarkFig3SpatiotemporalInference shape, 24 frames of 96×96
// float64 (~1.8 MB). Conversion-heavy (Fig 4B).
var spatiotemporalSpec = pipelineSpec{
	prefix: "st", kind: metadata.KindSpatiotemporal, distinct: 4,
	steadyRate: 10, steadyFrac: 0.6, burst: 96, warmup: 2,
	sample: func(seed int64) (func(string, *metadata.Acquisition) error, error) {
		s := synth.GenerateSpatiotemporal(synth.SpatiotemporalConfig{Frames: 24, Height: 96, Width: 96, Particles: 8, Seed: seed})
		return func(path string, acq *metadata.Acquisition) error {
			return s.WriteEMD(path, synth.DefaultMicroscope(), acq)
		}, nil
	},
}

func runHyperspectral(env runEnv, tr *tracer) (*passResult, error) {
	return runPipeline(env, hyperspectralSpec, tr)
}

func runSpatiotemporal(env runEnv, tr *tracer) (*passResult, error) {
	return runPipeline(env, spatiotemporalSpec, tr)
}

// Pipeline phases.
const (
	phaseWarmup = iota
	phaseSteady
	phaseBurst
)

// benchFile is one input file and every timestamp the benchmark takes
// along its path. Fields after name are written under pipeline.mu.
type benchFile struct {
	name     string // base name in the watched directory
	sample   string
	recordID string
	base     int // which distinct acquisition
	sha      string
	phase    int
	staged   string

	due, landed, event, visible time.Time
	hitSample, hitKind          string
	batch                       *batchRun
	slot                        int // position in the batch (Analysis-NN)
	root                        int // trace root span
}

// batchRun is one watcher.Batch and its flow run.
type batchRun struct {
	raw                        watcher.Batch
	files                      []*benchFile
	phase                      int
	emitted, entered, returned time.Time
	rec                        flows.RunRecord
	err                        error
}

// pipeline is one deployment under test plus the benchmark's taps.
type pipeline struct {
	spec       pipelineSpec
	dir        string
	tr         *tracer
	daemon     *wire.Server
	dep        *core.LiveDeployment
	portal     *portalServer
	w          *watcher.Watcher
	b          *watcher.Batcher
	instrument string

	consumerDone chan struct{}
	// vOff converts the flow engine's clock to wall time: the engine
	// stamps states with its runtime's virtual clock, the transfer
	// service and the daemon with time.Now.
	vOff time.Duration

	mu       sync.Mutex
	byPath   map[string]*benchFile
	byRecord map[string]*benchFile
	batches  []*batchRun
	phase    int
}

// start constructs the deployment: daemon, acquisition-side wire
// deployment, portal, watcher and batcher, with the benchmark's taps
// between watcher and batcher and between batcher and flows.
func startPipeline(spec pipelineSpec, cfg shippedConfig, dir string, tr *tracer) (*pipeline, error) {
	p := &pipeline{spec: spec, dir: dir, tr: tr,
		instrument:   filepath.Join(dir, "instrument"),
		byPath:       map[string]*benchFile{},
		byRecord:     map[string]*benchFile{},
		consumerDone: make(chan struct{}),
	}
	var err error
	var addr string
	if p.daemon, addr, err = startDaemon(cfg, filepath.Join(dir, "facility")); err != nil {
		return nil, err
	}
	p.dep, err = core.NewWireDeployment(core.WireOptions{
		InstrumentRoot:     p.instrument,
		DaemonAddr:         addr,
		Secret:             cfg.secret,
		TransferChunkBytes: cfg.chunk,
		TransferStreams:    cfg.streams,
	})
	if err != nil {
		p.daemon.Close()
		return nil, err
	}
	p.vOff = time.Now().Sub(p.dep.Runtime.Now())
	if p.portal, err = startPortal(cfg, p.dep.Index, filepath.Join(dir, "facility", "analysis-out"), p.dep.Engine); err != nil {
		p.daemon.Close()
		return nil, err
	}
	if err := os.MkdirAll(filepath.Join(dir, "work"), 0o755); err != nil {
		p.close()
		return nil, err
	}
	p.w, err = watcher.New(p.instrument, watcher.Options{
		Pattern:        cfg.pattern,
		CheckpointPath: filepath.Join(dir, "work", "watch-checkpoint.json"),
	})
	if err != nil {
		p.portal.close()
		p.daemon.Close()
		return nil, err
	}
	p.w.Start()
	tap := make(chan watcher.Event, 64) // the watcher's own event buffer size
	go p.tapEvents(tap)
	p.b = watcher.NewBatcher(tap, watcher.BatchOptions{
		MaxBatchFiles: cfg.batchFiles,
		MaxBatchBytes: cfg.batchBytes,
		Linger:        cfg.linger,
		BudgetBytes:   cfg.inflight,
	})
	// Every batch of a run fits: a run emits at most a few hundred.
	queue := make(chan *batchRun, 1024)
	go p.receiveBatches(queue)
	go p.consume(queue)
	return p, nil
}

// tapEvents stamps each settled-file event and forwards it unchanged.
func (p *pipeline) tapEvents(out chan<- watcher.Event) {
	defer close(out)
	for ev := range p.w.Events() {
		now := time.Now()
		p.mu.Lock()
		if f := p.byPath[ev.Path]; f != nil {
			f.event = now
			p.tr.add(f.name, f.root, "watcher.settle", f.landed, now)
		}
		p.mu.Unlock()
		out <- ev
	}
}

// receiveBatches stamps each emitted batch and queues it for the flow
// consumer, so a batch's wait for the consumer shows as flows.queue.
func (p *pipeline) receiveBatches(queue chan<- *batchRun) {
	defer close(queue)
	for b := range p.b.Batches() {
		now := time.Now()
		br := &batchRun{raw: b, emitted: now}
		p.mu.Lock()
		br.phase = p.phase
		for i, ev := range b.Files {
			f := p.byPath[ev.Path]
			if f == nil {
				continue
			}
			f.batch, f.slot = br, i
			br.files = append(br.files, f)
			p.tr.add(f.name, f.root, "watcher.batch_wait", f.event, now)
		}
		p.mu.Unlock()
		queue <- br
	}
}

// consume runs one batch flow at a time, as picoprobe-watch does, and
// releases each batch's bytes from the batcher's budget when its run
// returns.
func (p *pipeline) consume(queue <-chan *batchRun) {
	defer close(p.consumerDone)
	for br := range queue {
		rels := make([]string, len(br.raw.Files))
		for i, ev := range br.raw.Files {
			rels[i] = filepath.Base(ev.Path)
		}
		br.entered = time.Now()
		rec, err := p.dep.RunBatch(p.spec.kind, rels)
		returned := time.Now()
		p.b.Done(br.raw)
		p.mu.Lock()
		br.returned, br.rec, br.err = returned, rec, err
		p.batches = append(p.batches, br)
		p.mu.Unlock()
		if p.tr != nil {
			p.traceBatch(br)
		}
	}
}

// traceBatch records, in each of the batch's file traces, the flow
// queue wait and the run with the layer windows its record reports.
func (p *pipeline) traceBatch(br *batchRun) {
	task, _ := p.transferTask(br)
	for _, f := range br.files {
		p.tr.add(f.name, f.root, "flows.queue", br.emitted, br.entered)
		run := p.tr.add(f.name, f.root, "flows.run", br.entered, br.returned)
		p.tr.add(f.name, run, "transfer", task.Started, task.Completed)
		if st, ok := stateRecord(br.rec, analysisState(f.slot)); ok {
			p.tr.add(f.name, run, "compute.wait", p.wall(st.InvokedAt), st.Started)
			p.tr.add(f.name, run, "compute", st.Started, st.Completed)
		}
		if st, ok := stateRecord(br.rec, "Publication"); ok {
			p.tr.add(f.name, run, "search.publish", p.wall(st.Started), p.wall(st.Completed))
		}
	}
}

// wall converts an engine timestamp to wall time.
func (p *pipeline) wall(t time.Time) time.Time {
	if t.IsZero() {
		return t
	}
	return t.Add(p.vOff)
}

func analysisState(slot int) string { return fmt.Sprintf("Analysis-%02d", slot) }

func stateRecord(rec flows.RunRecord, name string) (flows.StateRecord, bool) {
	for _, s := range rec.States {
		if s.Name == name {
			return s, true
		}
	}
	return flows.StateRecord{}, false
}

// transferTask finds the transfer task a batch's Transfer state ran.
func (p *pipeline) transferTask(br *batchRun) (transfer.TaskView, bool) {
	st, ok := stateRecord(br.rec, "Transfer")
	if !ok {
		return transfer.TaskView{}, false
	}
	for _, t := range p.dep.Transfer.Tasks() {
		if t.ID == st.ActionID {
			return t, true
		}
	}
	return transfer.TaskView{}, false
}

// stop shuts the watcher down, lets the batcher flush and the consumer
// finish every queued batch, then closes portal and daemon.
func (p *pipeline) stop(timeout time.Duration) error {
	p.w.Stop()
	var err error
	select {
	case <-p.consumerDone:
	case <-time.After(timeout):
		err = errors.New("flow consumer did not finish")
	}
	p.close()
	return err
}

func (p *pipeline) close() {
	if p.portal != nil {
		p.portal.close()
	}
	p.daemon.Close()
}

// land moves a staged file into the watched directory: one rename, so
// the file appears whole at a known instant.
func (p *pipeline) land(f *benchFile) error {
	path := filepath.Join(p.instrument, f.name)
	p.mu.Lock()
	p.byPath[path] = f
	p.byRecord[f.recordID] = f
	f.root = p.tr.begin(f.name, 0, "file", f.due)
	p.mu.Unlock()
	if err := os.Rename(f.staged, path); err != nil {
		return err
	}
	now := time.Now()
	p.mu.Lock()
	f.landed = now
	p.tr.add(f.name, f.root, "bench.land", f.due, now)
	p.mu.Unlock()
	return nil
}

// searchPage is the part of an /api/search body the poller reads.
type searchPage struct {
	Total int `json:"total"`
	Hits  []struct {
		ID     string            `json:"id"`
		Fields map[string]string `json:"fields"`
	} `json:"hits"`
}

// pollSample is one poller request.
type pollSample struct {
	phase    int
	lat      time.Duration // from the scheduled send
	status   int
	cacheHit bool
}

// poll queries /api/search on a fixed schedule (open loop, one
// connection) until stop closes, marking files visible when their
// record is returned. Newest records rank first in a match-all query
// (dates follow landing order), and at most one batch publishes per
// flow run, so a 100-hit page cannot miss a record between polls.
func (p *pipeline) poll(period time.Duration, stop <-chan struct{}, out *[]pollSample, problems *[]string) {
	c := newClient()
	defer c.CloseIdleConnections()
	url := "http://" + p.portal.addr + "/api/search?limit=100"
	start := time.Now()
	for k := 0; ; k++ {
		sched := start.Add(time.Duration(k) * period)
		if wait := time.Until(sched); wait > 0 {
			select {
			case <-stop:
				return
			case <-time.After(wait):
			}
		}
		select {
		case <-stop:
			return
		default:
		}
		r := get(c, url)
		done := time.Now()
		s := pollSample{lat: done.Sub(sched), status: r.status, cacheHit: r.cacheHit}
		var page searchPage
		switch {
		case r.err != nil:
			*problems = append(*problems, "portal poll transport error")
		case r.status != 200:
			*problems = append(*problems, fmt.Sprintf("portal poll status %d", r.status))
		case json.Unmarshal(r.body, &page) != nil:
			*problems = append(*problems, "portal poll body does not parse")
		}
		p.mu.Lock()
		s.phase = p.phase
		for _, h := range page.Hits {
			f := p.byRecord[h.ID]
			if f == nil || !f.visible.IsZero() || f.landed.IsZero() {
				continue
			}
			f.visible = done
			f.hitSample, f.hitKind = h.Fields["sample"], h.Fields["kind"]
			p.tr.end(f.root, done)
		}
		p.mu.Unlock()
		*out = append(*out, s)
	}
}

// waitVisible blocks until every file is visible or the deadline
// passes.
func (p *pipeline) waitVisible(files []*benchFile, deadline time.Time) {
	for time.Now().Before(deadline) {
		p.mu.Lock()
		all := true
		for _, f := range files {
			if f.visible.IsZero() {
				all = false
				break
			}
		}
		p.mu.Unlock()
		if all {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stagedInputs are a pass's generated files and reference results.
type stagedInputs struct {
	files []*benchFile
	// refSubjects / refCounts are the reference analysis of each
	// distinct acquisition (elements identified; detections per frame).
	refSubjects [][]string
	refCounts   [][]int
}

// stageInputs generates the pass's files under dir/staging and runs the
// reference analysis on one file of each distinct acquisition. This is
// input generation: it is not part of any measured time.
func stageInputs(env runEnv, spec pipelineSpec, dir string, nSteady int) (*stagedInputs, error) {
	staging := filepath.Join(dir, "staging")
	refOut := filepath.Join(dir, "reference")
	for _, d := range []string{staging, refOut} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	rng := rand.New(rand.NewSource(env.seed))
	writers := make([]func(string, *metadata.Acquisition) error, spec.distinct)
	for k := range writers {
		w, err := spec.sample(rng.Int63())
		if err != nil {
			return nil, err
		}
		writers[k] = w
	}
	in := &stagedInputs{
		refSubjects: make([][]string, spec.distinct),
		refCounts:   make([][]int, spec.distinct),
	}
	base := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	n := spec.warmup + nSteady + spec.burst
	for i := 0; i < n; i++ {
		f := &benchFile{
			name:   fmt.Sprintf("%s-s%d-%04d.emdg", spec.prefix, env.seed, i),
			sample: fmt.Sprintf("bench-%s-s%d-%04d", spec.prefix, env.seed, i),
			base:   i % spec.distinct,
			phase:  phaseSteady,
		}
		switch {
		case i < spec.warmup:
			f.phase = phaseWarmup
		case i >= spec.warmup+nSteady:
			f.phase = phaseBurst
		}
		// Collection dates follow landing order, so the newest records
		// rank first in a match-all search.
		collected := base.Add(time.Duration(i) * time.Second)
		f.recordID = metadata.RecordID(f.sample, collected)
		f.staged = filepath.Join(staging, f.name)
		acq := &metadata.Acquisition{SampleName: f.sample, Operator: "perfbench", Collected: collected}
		if err := writers[f.base](f.staged, acq); err != nil {
			return nil, err
		}
		sum, err := sha256File(f.staged)
		if err != nil {
			return nil, err
		}
		f.sha = sum
		in.files = append(in.files, f)
	}
	for k := 0; k < spec.distinct && k < n; k++ {
		path := in.files[k].staged
		switch spec.kind {
		case metadata.KindHyperspectral:
			out, err := core.AnalyzeHyperspectral(path, refOut)
			if err != nil {
				return nil, fmt.Errorf("reference analysis: %w", err)
			}
			in.refSubjects[k] = out.Experiment.Subjects
		default:
			out, err := core.AnalyzeSpatiotemporal(path, refOut, detect.DefaultParams())
			if err != nil {
				return nil, fmt.Errorf("reference analysis: %w", err)
			}
			in.refCounts[k] = out.Detections
		}
	}
	return in, os.RemoveAll(refOut)
}

func sha256File(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// setupRepeats is how many times a pass constructs its deployment; the
// median construction time is setup_s and the last one is measured.
const setupRepeats = 9

func runPipeline(env runEnv, spec pipelineSpec, tr *tracer) (*passResult, error) {
	cfg, err := loadShipped(env.bin)
	if err != nil {
		return nil, err
	}
	pass := "plain"
	if tr != nil {
		pass = "traced"
	}
	dir := filepath.Join(env.work, pass)
	defer os.RemoveAll(dir)
	tl := newTimeline()

	steadySpan := time.Duration(float64(env.seconds) * spec.steadyFrac * float64(time.Second))
	nSteady := int(spec.steadyRate * steadySpan.Seconds())
	in, err := stageInputs(env, spec, dir, nSteady)
	if err != nil {
		return nil, err
	}
	settleHost()
	tl.mark("inputs")

	// Set-up, several times: construction of daemon, deployment, portal
	// and watcher; every instance but the last is torn down at once.
	var setups []float64
	var p *pipeline
	for r := 0; r < setupRepeats; r++ {
		t0 := time.Now()
		q, err := startPipeline(spec, cfg, filepath.Join(dir, fmt.Sprintf("deploy-%d", r)), tr)
		if err != nil {
			return nil, err
		}
		setups = append(setups, since(t0))
		if r < setupRepeats-1 {
			if err := q.stop(10 * time.Second); err != nil {
				return nil, err
			}
			continue
		}
		p = q
	}
	tl.mark("setup")

	// Three waits of phaseTimeout plus the steady schedule keep a run
	// whose records never appear inside three minutes.
	const phaseTimeout = 30 * time.Second
	var polls []pollSample
	var pollProblems []string
	stopPoll := make(chan struct{})
	pollDone := make(chan struct{})
	go func() {
		defer close(pollDone)
		p.poll(20*time.Millisecond, stopPoll, &polls, &pollProblems)
	}()
	stopped := false
	shutdown := func() error {
		if stopped {
			return nil
		}
		stopped = true
		close(stopPoll)
		<-pollDone
		return p.stop(phaseTimeout)
	}
	defer shutdown()

	byPhase := func(ph int) []*benchFile {
		var out []*benchFile
		for _, f := range in.files {
			if f.phase == ph {
				out = append(out, f)
			}
		}
		return out
	}
	setPhase := func(ph int) {
		p.mu.Lock()
		p.phase = ph
		p.mu.Unlock()
	}
	landAll := func(files []*benchFile, due time.Time) error {
		for _, f := range files {
			f.due = due
			if err := p.land(f); err != nil {
				return err
			}
		}
		return nil
	}

	// Warm-up: wire sessions, compute pool and code paths settle before
	// anything is measured.
	warm := byPhase(phaseWarmup)
	if err := landAll(warm, time.Now()); err != nil {
		return nil, err
	}
	p.waitVisible(warm, time.Now().Add(phaseTimeout))
	tl.mark("warm-up")

	// Steady phase: open loop, evenly spaced arrivals with seeded
	// jitter of ±30% of the gap.
	setPhase(phaseSteady)
	steady := byPhase(phaseSteady)
	rng := rand.New(rand.NewSource(env.seed ^ 0x5eed))
	gap := time.Duration(float64(time.Second) / spec.steadyRate)
	t0 := time.Now().Add(50 * time.Millisecond)
	for i, f := range steady {
		jitter := time.Duration((rng.Float64()*0.6 - 0.3) * float64(gap))
		f.due = t0.Add(time.Duration(i)*gap + jitter)
	}
	for _, f := range steady {
		time.Sleep(time.Until(f.due))
		if err := p.land(f); err != nil {
			return nil, err
		}
	}
	p.waitVisible(steady, time.Now().Add(phaseTimeout))
	tl.mark("steady")

	// Burst phase: every burst file lands at once.
	setPhase(phaseBurst)
	burst := byPhase(phaseBurst)
	if err := landAll(burst, time.Now()); err != nil {
		return nil, err
	}
	p.waitVisible(burst, time.Now().Add(phaseTimeout))
	peakRSS := peakRSSMB()
	tl.mark("burst")

	if err := shutdown(); err != nil {
		return nil, err
	}
	tl.mark("teardown")

	res := &passResult{e2e: map[string]float64{}, layer: map[string]float64{}}
	res.e2e["setup_s"] = median(setups)
	res.e2e["peak_rss_mb"] = peakRSS
	p.check(in, res)
	for _, pr := range pollProblems {
		res.op(pr)
	}
	p.metrics(in, polls, res)
	if tr != nil {
		p.traceVisible(in)
	}
	tl.mark("checks")
	res.notes = append(res.notes, pass+" pass timeline: "+tl.String(),
		fmt.Sprintf("setup samples (s): %.5f", setups))
	return res, nil
}

// traceVisible adds each file's publish → visible span, known only
// once both its run record and its first sighting are in.
func (p *pipeline) traceVisible(in *stagedInputs) {
	for _, f := range in.files {
		if f.batch == nil {
			continue
		}
		if pub, ok := stateRecord(f.batch.rec, "Publication"); ok {
			p.tr.add(f.name, f.root, "search.visible", p.wall(pub.Completed), f.visible)
		}
	}
}

// check verifies every file after the run, outside any timed window:
// the record is visible with the right sample and kind, the flow
// succeeded, the transfer's checksum and a re-hash of the daemon's
// copy equal the source's SHA-256, and the analysis result equals the
// reference analysis of the same input.
func (p *pipeline) check(in *stagedInputs, res *passResult) {
	outDir := filepath.Join(p.dir, "facility", "analysis-out")
	for _, f := range in.files {
		res.op(checkFile(f, p.spec.kind, in, p.transferSums(f), filepath.Join(p.dir, "facility"), outDir, p.recordSubjects)...)
	}
}

// transferSums returns the whole-file digests the file's transfer task
// reported.
func (p *pipeline) transferSums(f *benchFile) map[string]string {
	if f.batch == nil {
		return nil
	}
	t, _ := p.transferTask(f.batch)
	return t.Checksums
}

// recordSubjects reads a published record's subjects from the catalog.
func (p *pipeline) recordSubjects(id string) ([]string, bool) {
	e, ok := p.dep.Index.Get(id, "")
	if !ok {
		return nil, false
	}
	var exp metadata.Experiment
	if json.Unmarshal(e.Payload, &exp) != nil {
		return nil, false
	}
	return exp.Subjects, true
}

// checkFile returns the problems found with one file; none means the
// operation succeeded.
func checkFile(f *benchFile, kind string, in *stagedInputs, sums map[string]string,
	daemonRoot, outDir string, subjects func(string) ([]string, bool)) []string {
	var probs []string
	if f.visible.IsZero() {
		return []string{"record never visible in /api/search"}
	}
	if f.hitSample != f.sample || f.hitKind != kind {
		probs = append(probs, "record has wrong sample or kind")
	}
	if f.batch == nil || f.batch.err != nil {
		return append(probs, "batch flow failed")
	}
	if sums[f.name] != f.sha {
		probs = append(probs, "transfer checksum differs from source SHA-256")
	}
	if got, err := sha256File(filepath.Join(daemonRoot, f.name)); err != nil || got != f.sha {
		probs = append(probs, "landed bytes differ from source")
	}
	switch kind {
	case metadata.KindHyperspectral:
		got, ok := subjects(f.recordID)
		if !ok || !slices.Equal(got, in.refSubjects[f.base]) {
			probs = append(probs, "elements identified differ from reference")
		}
	default:
		got, err := readCounts(filepath.Join(outDir, f.recordID, "counts.csv"))
		if err != nil || !slices.Equal(got, in.refCounts[f.base]) {
			probs = append(probs, "detections per frame differ from reference")
		}
	}
	return probs
}

// readCounts parses the analysis's counts.csv (frame,particles).
func readCounts(path string) ([]int, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	out := make([]int, 0, len(lines))
	for _, l := range lines[1:] {
		_, v, ok := strings.Cut(l, ",")
		n, err := strconv.Atoi(v)
		if !ok || err != nil {
			return nil, fmt.Errorf("bad counts row %q", l)
		}
		out = append(out, n)
	}
	return out, nil
}

// metrics computes the pass's end-to-end and per-layer metrics.
func (p *pipeline) metrics(in *stagedInputs, polls []pollSample, res *passResult) {
	var visible, settle, batchWait, visLag, lag []float64
	var computeWait, computeActive []float64
	var burstFirst, burstLast time.Time
	nBurst := 0
	for _, f := range in.files {
		if f.phase == phaseWarmup {
			continue
		}
		if f.phase == phaseSteady {
			lag = append(lag, ms(f.landed.Sub(f.due)))
			if !f.event.IsZero() {
				settle = append(settle, ms(f.event.Sub(f.landed)))
			}
			if !f.visible.IsZero() {
				visible = append(visible, ms(f.visible.Sub(f.due)))
			}
		}
		if f.phase == phaseBurst {
			if burstFirst.IsZero() || f.landed.Before(burstFirst) {
				burstFirst = f.landed
			}
			if !f.visible.IsZero() {
				nBurst++
				if f.visible.After(burstLast) {
					burstLast = f.visible
				}
			}
		}
		if f.batch != nil {
			batchWait = append(batchWait, ms(f.batch.emitted.Sub(f.event)))
			if !f.visible.IsZero() {
				visLag = append(visLag, ms(f.visible.Sub(f.batch.returned)))
			}
			if st, ok := stateRecord(f.batch.rec, analysisState(f.slot)); ok {
				computeWait = append(computeWait, ms(st.Started.Sub(p.wall(st.InvokedAt))))
				computeActive = append(computeActive, ms(st.Active()))
			}
		}
	}

	var runMs, overhead, queueBurst, publish, tQueue, tActive, attempts []float64
	var filesPerBatch []float64
	var moved, copied int64
	var activeSecs float64
	for _, br := range p.batches {
		if br.phase == phaseWarmup || br.err != nil {
			continue
		}
		filesPerBatch = append(filesPerBatch, float64(len(br.files)))
		runMs = append(runMs, ms(br.returned.Sub(br.entered)))
		overhead = append(overhead, ms(br.rec.TotalOverhead()))
		if br.phase == phaseBurst {
			queueBurst = append(queueBurst, ms(br.entered.Sub(br.emitted)))
		}
		if st, ok := stateRecord(br.rec, "Publication"); ok {
			publish = append(publish, ms(st.DetectedAt.Sub(st.EnteredAt)))
		}
		if task, ok := p.transferTask(br); ok {
			if st, ok := stateRecord(br.rec, "Transfer"); ok {
				tQueue = append(tQueue, ms(task.Started.Sub(p.wall(st.EnteredAt))))
			}
			active := task.Completed.Sub(task.Started)
			tActive = append(tActive, ms(active))
			activeSecs += active.Seconds()
			moved += task.BytesMoved
			copied += task.BytesCopied
			attempts = append(attempts, float64(task.Attempts))
		}
	}

	var qLat []float64
	var hits, fivexx int
	// Query latency covers the steady phase and the burst. Polls that
	// meet a flow run are several times slower than the rest; within the
	// steady phase alone they are rare enough that p90 falls on the edge
	// between the two groups and swings from run to run.
	for _, s := range polls {
		if s.phase == phaseWarmup {
			continue
		}
		qLat = append(qLat, ms(s.lat))
		if s.cacheHit {
			hits++
		}
		if s.status >= 500 {
			fivexx++
		}
	}

	drain := 0.0
	if nBurst > 0 && burstLast.After(burstFirst) {
		drain = float64(nBurst) / burstLast.Sub(burstFirst).Seconds()
	}
	res.e2e["visible_p50_ms"] = zeroIfNaN(percentile(visible, 50))
	res.e2e["visible_p90_ms"] = zeroIfNaN(percentile(visible, 90))
	res.e2e["drain_files_per_s"] = drain
	res.e2e["query_p50_ms"] = zeroIfNaN(percentile(qLat, 50))
	res.e2e["query_p90_ms"] = zeroIfNaN(percentile(qLat, 90))

	L := res.layer
	for _, d := range perLayer() {
		L[d.name] = 0
	}
	L["failed_frac"] = res.failedFrac()
	L["watcher.settle_ms"] = zeroIfNaN(median(settle))
	L["watcher.batch_wait_ms"] = zeroIfNaN(median(batchWait))
	L["watcher.files_per_batch"] = zeroIfNaN(mean(filesPerBatch))
	L["flows.queue_ms"] = zeroIfNaN(median(queueBurst))
	L["flows.run_ms"] = zeroIfNaN(median(runMs))
	L["flows.overhead_ms"] = zeroIfNaN(median(overhead))
	L["transfer.queue_ms"] = zeroIfNaN(median(tQueue))
	L["transfer.active_ms"] = zeroIfNaN(median(tActive))
	if activeSecs > 0 {
		L["transfer.mb_per_s"] = float64(moved) / 1e6 / activeSecs
	}
	if moved > 0 {
		L["transfer.copy_amplification"] = float64(copied) / float64(moved)
	}
	L["transfer.attempts"] = zeroIfNaN(mean(attempts))
	L["compute.wait_ms"] = zeroIfNaN(median(computeWait))
	L["compute.active_ms"] = zeroIfNaN(median(computeActive))
	L["search.publish_ms"] = zeroIfNaN(median(publish))
	L["search.visible_lag_ms"] = zeroIfNaN(median(visLag))
	L["portal.query_p99_ms"] = zeroIfNaN(percentile(qLat, 99))
	if len(qLat) > 0 {
		L["portal.cache_hit_frac"] = float64(hits) / float64(len(qLat))
	}
	L["portal.status_5xx"] = float64(fivexx)
	L["bench.generator_lag_ms"] = zeroIfNaN(percentile(lag, 99))
	L["bench.visible_samples"] = float64(len(visible))
	L["bench.query_samples"] = float64(len(qLat))

	res.notes = append(res.notes,
		fmt.Sprintf("visible latency: %d steady samples, %d beyond p90 (highest supported tail p%g)",
			len(visible), beyond(len(visible), 90), supportedTail(len(visible), 10)),
		fmt.Sprintf("burst: %d of %d files visible, drain %.3f files/s", nBurst, p.spec.burst, drain),
		fmt.Sprintf("portal polls: %d samples, %d beyond p90", len(qLat), beyond(len(qLat), 90)),
		fmt.Sprintf("batches: %d measured, %.2f files/batch", len(filesPerBatch), zeroIfNaN(mean(filesPerBatch))),
	)
}
