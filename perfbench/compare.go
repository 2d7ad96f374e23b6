package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// The comparator: stdlib-only stand-in for benchstat. Given two sets of
// runs (run logs as written to .bench_out/runs.jsonl), it prints each
// workload's metrics with median and quartiles on both sides and a
// verdict for every end-to-end metric, judged against the bound
// BENCHMARK.json fixes for it.

// benchSpec is the part of BENCHMARK.json the comparator reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// Verdicts.
const (
	verdictBetter     = "better"
	verdictWorse      = "worse"
	verdictSame       = "within bound"
	verdictUnresolved = "unresolved"
)

// sideStats summarizes one side's values of one metric.
type sideStats struct {
	q1, med, q3 float64
	spread      float64 // (q3 - q1) / |median|
}

func summarize(xs []float64) sideStats {
	var s sideStats
	s.q1, s.med, s.q3 = quartiles(xs)
	if len(xs) == 1 {
		s.med = xs[0]
	}
	if s.med != 0 {
		s.spread = (s.q3 - s.q1) / math.Abs(s.med)
	}
	return s
}

// judgement is the comparison of one metric on one workload.
type judgement struct {
	old, new    sideStats
	change      float64 // (new - old) / |old| median
	wins, pairs int
	verdict     string
}

// judge compares old and new runs of a metric whose better direction is
// "lower" or "higher", with bound the share of the old median by which
// it may get worse. Pairs are old[i] against new[i] (callers pass both
// sides in seed order). The rules, in order:
//
//   - better: every new run beats every old run;
//   - unresolved: either side's quartile spread is wider than the bound;
//   - worse: the new median is worse than the old by more than the bound;
//   - better: the new side wins at least 9 of every 10 pairs (ties count
//     for neither) and the medians differ by more than the old side's
//     own quartile spread;
//   - within bound otherwise.
func judge(old, new []float64, better string, bound float64) judgement {
	j := judgement{old: summarize(old), new: summarize(new)}
	lower := better == "lower"
	beats := func(a, b float64) bool { // a is better than b
		if lower {
			return a < b
		}
		return a > b
	}
	if j.old.med != 0 {
		j.change = (j.new.med - j.old.med) / math.Abs(j.old.med)
	}
	worsening := j.change
	if !lower {
		worsening = -j.change
	}
	j.pairs = min(len(old), len(new))
	for i := 0; i < j.pairs; i++ {
		if beats(new[i], old[i]) {
			j.wins++
		}
	}
	allBetter := len(old) > 0 && len(new) > 0
	for _, n := range new {
		for _, o := range old {
			if !beats(n, o) {
				allBetter = false
			}
		}
	}
	switch {
	case allBetter:
		j.verdict = verdictBetter
	case j.old.spread > bound || j.new.spread > bound:
		j.verdict = verdictUnresolved
	case worsening > bound:
		j.verdict = verdictWorse
	case j.pairs > 0 && j.wins*10 >= 9*j.pairs && worsening < 0 &&
		math.Abs(j.new.med-j.old.med) > j.old.q3-j.old.q1:
		j.verdict = verdictBetter
	default:
		j.verdict = verdictSame
	}
	return j
}

// readRuns loads run records from a run log.
func readRuns(path string) ([]runRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []runRecord
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r runRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// valuesBySeed returns a metric's values for one workload and trace
// mode, in seed order.
func valuesBySeed(runs []runRecord, workload string, traced bool, metric string) []float64 {
	var sel []runRecord
	for _, r := range runs {
		if r.Workload == workload && r.Trace == traced {
			if _, ok := r.Result.Metrics[metric]; ok {
				sel = append(sel, r)
			}
		}
	}
	sort.SliceStable(sel, func(i, j int) bool { return sel[i].Host.Seed < sel[j].Host.Seed })
	out := make([]float64, len(sel))
	for i, r := range sel {
		out[i] = r.Result.Metrics[metric].Value
	}
	return out
}

func compareMain(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	specPath := fs.String("bench", "BENCHMARK.json", "benchmark definition holding the bounds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return errors.New("usage: perfbench compare [-bench BENCHMARK.json] OLD.jsonl NEW.jsonl")
	}
	raw, err := os.ReadFile(*specPath)
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("%s: %w", *specPath, err)
	}
	old, err := readRuns(fs.Arg(0))
	if err != nil {
		return err
	}
	new, err := readRuns(fs.Arg(1))
	if err != nil {
		return err
	}
	return writeComparison(w, spec, old, new)
}

func writeComparison(w io.Writer, spec benchSpec, old, new []runRecord) error {
	seen := map[string]bool{}
	var names []string
	for _, r := range append(append([]runRecord(nil), old...), new...) {
		if !seen[r.Workload] {
			seen[r.Workload] = true
			names = append(names, r.Workload)
		}
	}
	sort.Strings(names)
	row := func(name, unit string, j judgement, verdict string) {
		fmt.Fprintf(w, "  %-46s %-7s %12.4g [%.4g, %.4g]  %12.4g [%.4g, %.4g]  %+7.1f%%  %2d/%-2d  %s\n",
			name, unit, j.old.med, j.old.q1, j.old.q3, j.new.med, j.new.q1, j.new.q3,
			100*j.change, j.wins, j.pairs, verdict)
	}
	for _, wl := range names {
		fmt.Fprintf(w, "workload %s\n", wl)
		fmt.Fprintf(w, "  %-46s %-7s %12s %-18s %12s %-18s %8s  %5s  %s\n",
			"metric", "unit", "old median", "[q1, q3]", "new median", "[q1, q3]", "change", "wins", "verdict")
		for _, m := range spec.EndToEnd {
			o, n := valuesBySeed(old, wl, false, m.Name), valuesBySeed(new, wl, false, m.Name)
			if len(o) == 0 || len(n) == 0 {
				continue
			}
			j := judge(o, n, m.Better, m.Bound)
			row(m.Name, m.Unit, j, fmt.Sprintf("%s (bound %.0f%%)", j.verdict, 100*m.Bound))
		}
		for _, m := range spec.PerLayer {
			o, n := valuesBySeed(old, wl, true, m.Name), valuesBySeed(new, wl, true, m.Name)
			if len(o) == 0 || len(n) == 0 {
				continue
			}
			row(m.Name, m.Unit, judge(o, n, m.Better, math.Inf(1)), "layer (no bound)")
		}
	}
	return nil
}
