package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"math/rand"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"picoprobe/internal/loadgen"
	"picoprobe/internal/search"
)

// The portal-read-ingest workload: a campaign corpus served by the
// portal, read open-loop with loadgen's default request mix while a
// single writer re-ingests records through search.Index.IngestBatch at
// a fixed rate.
const (
	corpusSize    = 100_000
	readConns     = 2
	readRate      = 30  // requests per second across both connections
	churnRate     = 5.0 // IngestBatch calls per second
	churnBatch    = 20  // records per IngestBatch
	burstBatches  = 300 // back-to-back IngestBatch calls in the burst
	portalWarmup  = time.Second
	portalSetups  = 3
	visibleWithin = 5 * time.Second
)

// portalTarget is one entry of the request mix with a metric-safe name.
type portalTarget struct {
	name   string
	path   string
	weight int
}

// portalTargets is loadgen.DefaultTargets, each named after its path:
// "/api/search?q=gold+film" becomes "api_search_q_gold_film", "/"
// becomes "root".
func portalTargets() []portalTarget {
	var out []portalTarget
	for _, t := range loadgen.DefaultTargets() {
		out = append(out, portalTarget{name: targetName(t.Path), path: t.Path, weight: max(t.Weight, 1)})
	}
	return out
}

func targetName(path string) string {
	var b strings.Builder
	under := false
	for _, r := range path {
		if r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' {
			b.WriteRune(r)
			under = false
		} else if !under && b.Len() > 0 {
			b.WriteByte('_')
			under = true
		}
	}
	name := strings.TrimSuffix(b.String(), "_")
	if name == "" {
		return "root"
	}
	return name
}

// readSample is one timed portal read.
type readSample struct {
	k                int
	target           int
	sched, sent, end time.Time
	status           int
	cacheHit         bool
	problem          string
	burst            bool
}

// writeSample is one churn IngestBatch and its visibility check.
type writeSample struct {
	k                     int
	sched, start, written time.Time
	visible               time.Time
	problem               string
}

// checkBody validates a 2xx body: JSON that parses for the API routes,
// a complete HTML page for the landing page.
func checkBody(path string, body []byte) string {
	switch {
	case strings.HasPrefix(path, "/api/search"):
		var page searchPage
		if json.Unmarshal(body, &page) != nil || page.Hits == nil {
			return "search body does not parse"
		}
	case strings.HasPrefix(path, "/api/facets"):
		var f struct {
			Field  string         `json:"field"`
			Facets map[string]int `json:"facets"`
		}
		if json.Unmarshal(body, &f) != nil || f.Facets == nil {
			return "facets body does not parse"
		}
	default:
		if !bytes.Contains(body, []byte("</html>")) {
			return "page body is not a complete HTML document"
		}
	}
	return ""
}

// churnEntries builds write k's batch: the corpus records at picks,
// re-ingested with a token unique to the write, so a search for the
// token finds exactly this batch. Picks never repeat within a run, so
// no later write takes a record (and its token) away from an earlier
// one.
func churnEntries(corpus []search.Entry, picks []int, seed int64, k int) ([]search.Entry, string) {
	token := fmt.Sprintf("wk%dn%d", seed, k)
	out := make([]search.Entry, 0, len(picks))
	for _, i := range picks {
		e := corpus[i]
		e.Text = e.Text + " " + token
		e.Fields = maps.Clone(e.Fields)
		e.Date = e.Date.Add(time.Duration(k+1) * time.Millisecond)
		out = append(out, e)
	}
	return out, token
}

func runPortalReadIngest(env runEnv, tr *tracer) (*passResult, error) {
	cfg, err := loadShipped(env.bin)
	if err != nil {
		return nil, err
	}
	// Inputs, from the seed: the corpus (fixed), the request sequence
	// and the churn batches.
	corpus := loadgen.Campaign(corpusSize)
	targets := portalTargets()
	rng := rand.New(rand.NewSource(env.seed))
	var ring []int
	for i, t := range targets {
		for j := 0; j < t.weight; j++ {
			ring = append(ring, i)
		}
	}
	steadyFor := time.Duration(float64(env.seconds)*0.75*float64(time.Second)) - portalWarmup
	nReads := int((portalWarmup + steadyFor + 5*time.Second).Seconds() * readRate)
	// Every block of len(ring) requests holds each target exactly its
	// weight times, in a seeded order: every run sends the mix in exact
	// proportion, and an expensive target's requests are not bunched
	// together the way a walk of the ring in order would bunch them.
	seq := make([]int, 0, nReads+len(ring))
	for len(seq) < nReads {
		for _, j := range rng.Perm(len(ring)) {
			seq = append(seq, ring[j])
		}
	}
	nWrites := int(steadyFor.Seconds()*churnRate) + burstBatches
	writes := make([][]search.Entry, nWrites)
	tokens := make([]string, nWrites)
	perm := rng.Perm(len(corpus))
	for k := range writes {
		writes[k], tokens[k] = churnEntries(corpus, perm[k*churnBatch:(k+1)*churnBatch], env.seed, k)
	}

	settleHost()

	// Set-up, several times: index the corpus and start the portal.
	// Each instance but the last is torn down before the next is built,
	// so one index is live at a time.
	var setups []float64
	var ix *search.Index
	var ps *portalServer
	for r := 0; r < portalSetups; r++ {
		if ps != nil {
			ps.close()
			ix, ps = nil, nil
		}
		t0 := time.Now()
		ix = search.NewIndex()
		if err := ix.IngestBatch(corpus); err != nil {
			return nil, err
		}
		if ps, err = startPortal(cfg, ix, "", nil); err != nil {
			return nil, err
		}
		setups = append(setups, since(t0))
	}
	defer ps.close()
	base := "http://" + ps.addr

	// Readers: readConns workers claim ticks of one open-loop schedule
	// and time each request from its scheduled send.
	start := time.Now().Add(20 * time.Millisecond)
	measureFrom := start.Add(portalWarmup)
	var burstAt atomic.Int64 // UnixNano when the burst began (0 before)
	stop := make(chan struct{})
	var tick atomic.Int64
	interval := time.Second / readRate
	var rmu sync.Mutex
	var reads []readSample
	var wg sync.WaitGroup
	for w := 0; w < readConns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient()
			defer c.CloseIdleConnections()
			for {
				k := int(tick.Add(1) - 1)
				if k >= len(seq) {
					return
				}
				sched := start.Add(time.Duration(k) * interval)
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
				t := targets[seq[k]]
				s := readSample{k: k, target: seq[k], sched: sched, sent: time.Now()}
				r := get(c, base+t.path)
				s.end, s.status, s.cacheHit = time.Now(), r.status, r.cacheHit
				switch {
				case r.err != nil:
					s.problem = "read transport error"
				case r.status/100 != 2:
					s.problem = fmt.Sprintf("read status %d", r.status)
				default:
					s.problem = checkBody(t.path, r.body)
				}
				b := burstAt.Load()
				s.burst = b != 0 && sched.UnixNano() >= b
				if !sched.Before(measureFrom) {
					traceRead(tr, s)
					rmu.Lock()
					reads = append(reads, s)
					rmu.Unlock()
				}
			}
		}()
	}

	// The writer: churn at a fixed rate through the steady window, then
	// the burst; every write is followed by reads of its token through
	// the portal until the whole batch is returned.
	wc := newClient()
	defer wc.CloseIdleConnections()
	// A run that stops making writes visible gives up at giveUp rather
	// than waiting visibleWithin for every remaining write.
	giveUp := start.Add(time.Duration(env.seconds)*time.Second + 60*time.Second)
	awaitVisible := func(s *writeSample, token string) {
		u := base + "/api/search?limit=1&q=" + url.QueryEscape(token)
		deadline := time.Now().Add(visibleWithin)
		if giveUp.Before(deadline) {
			deadline = giveUp
		}
		for time.Now().Before(deadline) {
			r := get(wc, u)
			if r.err != nil || r.status != 200 {
				s.problem = "visibility read failed"
				return
			}
			var page searchPage
			if json.Unmarshal(r.body, &page) != nil {
				s.problem = "visibility read body does not parse"
				return
			}
			if page.Total == churnBatch {
				s.visible = time.Now()
				return
			}
			if page.Total > churnBatch {
				s.problem = "token matches more records than were written"
				return
			}
		}
		s.problem = "write not visible in /api/search"
	}
	var ws []writeSample
	nSteady := nWrites - burstBatches
	for k := 0; k < nSteady; k++ {
		s := writeSample{k: k, sched: measureFrom.Add(time.Duration(float64(k) / churnRate * float64(time.Second)))}
		time.Sleep(time.Until(s.sched))
		s.start = time.Now()
		if err := ix.IngestBatch(writes[k]); err != nil {
			s.problem = "IngestBatch failed: " + err.Error()
		}
		s.written = time.Now()
		if s.problem == "" {
			awaitVisible(&s, tokens[k])
		}
		traceWrite(tr, s)
		ws = append(ws, s)
	}
	time.Sleep(time.Until(measureFrom.Add(steadyFor)))

	// Burst: burstBatches writes back to back, reads still running.
	burstStart := time.Now()
	burstAt.Store(burstStart.UnixNano())
	var burst []writeSample
	for k := nSteady; k < nWrites; k++ {
		s := writeSample{k: k, sched: burstStart, start: time.Now()}
		if err := ix.IngestBatch(writes[k]); err != nil {
			s.problem = "IngestBatch failed: " + err.Error()
		}
		s.written = time.Now()
		burst = append(burst, s)
	}
	// The burst ends when the last write is returned; every earlier one
	// must be returned too, which is checked after. Only the last write's
	// visible time is a measurement, so only it is traced.
	for i := len(burst) - 1; i >= 0; i-- {
		if burst[i].problem == "" {
			awaitVisible(&burst[i], tokens[burst[i].k])
		}
		if i == len(burst)-1 {
			traceWrite(tr, burst[i])
		}
	}
	close(stop)
	wg.Wait()

	res := &passResult{e2e: map[string]float64{}, layer: map[string]float64{}}
	res.e2e["setup_s"] = median(setups)
	res.e2e["peak_rss_mb"] = peakRSSMB()
	portalMetrics(res, targets, reads, ws, burst, burstStart)
	return res, nil
}

func portalMetrics(res *passResult, targets []portalTarget, reads []readSample, ws, burst []writeSample, burstStart time.Time) {
	var qLat, lag []float64
	perTarget := make([][]float64, len(targets))
	var hits, fivexx int
	for _, s := range reads {
		if s.problem != "" {
			res.op(s.problem)
		} else {
			res.op()
		}
		if s.status >= 500 {
			fivexx++
		}
		if s.cacheHit {
			hits++
		}
		lag = append(lag, ms(s.sent.Sub(s.sched)))
		if s.burst {
			continue
		}
		l := ms(s.end.Sub(s.sched))
		qLat = append(qLat, l)
		perTarget[s.target] = append(perTarget[s.target], l)
	}
	var visible, ingest, visLag []float64
	for _, s := range ws {
		lag = append(lag, ms(s.start.Sub(s.sched)))
		ingest = append(ingest, ms(s.written.Sub(s.start)))
		if s.problem != "" {
			res.op(s.problem)
			continue
		}
		res.op()
		visible = append(visible, ms(s.visible.Sub(s.sched)))
		visLag = append(visLag, ms(s.visible.Sub(s.written)))
	}
	okBurst := 0
	for _, s := range burst {
		if s.problem != "" {
			res.op(s.problem)
			continue
		}
		res.op()
		okBurst++
	}
	drain := 0.0
	if n := len(burst); n > 0 && burst[n-1].problem == "" && burst[n-1].visible.After(burstStart) {
		drain = float64(okBurst*churnBatch) / burst[n-1].visible.Sub(burstStart).Seconds()
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
	L["search.ingest_batch_ms"] = zeroIfNaN(median(ingest))
	L["search.visible_lag_ms"] = zeroIfNaN(median(visLag))
	for i, t := range targets {
		L["portal.query_ms."+t.name] = zeroIfNaN(median(perTarget[i]))
	}
	L["portal.query_p99_ms"] = zeroIfNaN(percentile(qLat, 99))
	if len(reads) > 0 {
		L["portal.cache_hit_frac"] = float64(hits) / float64(len(reads))
	}
	L["portal.status_5xx"] = float64(fivexx)
	L["bench.generator_lag_ms"] = zeroIfNaN(percentile(lag, 99))
	L["bench.visible_samples"] = float64(len(visible))
	L["bench.query_samples"] = float64(len(qLat))

	res.notes = append(res.notes,
		fmt.Sprintf("portal reads: %d steady samples, %d beyond p90 (highest supported tail p%g)",
			len(qLat), beyond(len(qLat), 90), supportedTail(len(qLat), 10)),
		fmt.Sprintf("churn writes: %d visible samples, %d beyond p90", len(visible), beyond(len(visible), 90)),
		fmt.Sprintf("burst: %d of %d writes visible, %.1f records/s", okBurst, len(burst), drain),
	)
}

// traceRead records one read's spans: the wait for its scheduled send
// and the HTTP round trip.
func traceRead(tr *tracer, s readSample) {
	id := fmt.Sprintf("q-%06d", s.k)
	root := tr.add(id, 0, "portal.request", s.sched, s.end)
	tr.add(id, root, "bench.wait", s.sched, s.sent)
	tr.add(id, root, "portal.http", s.sent, s.end)
}

// traceWrite records one churn write's spans: the wait for its
// scheduled start, the IngestBatch call and the wait until the portal
// returns the whole batch.
func traceWrite(tr *tracer, s writeSample) {
	id := fmt.Sprintf("w-%06d", s.k)
	root := tr.add(id, 0, "churn", s.sched, s.visible)
	tr.add(id, root, "bench.wait", s.sched, s.start)
	tr.add(id, root, "search.ingest_batch", s.start, s.written)
	tr.add(id, root, "search.visible", s.written, s.visible)
}
