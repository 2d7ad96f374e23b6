package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// flagDefaults are one shipped command's flag defaults, read from its
// own -h output, so the benchmark configures every component exactly
// as the command would and a change to a default is measured like any
// other change. A flag whose default is the zero value prints none and
// reads back as "".
type flagDefaults struct {
	cmd  string
	vals map[string]string
}

// readDefaults runs `bin/<cmd> -h` and parses flag.PrintDefaults output:
//
//	-linger duration
//	  	quiet period ... (default 500ms)
func readDefaults(binDir, cmd string) (flagDefaults, error) {
	out, err := exec.Command(filepath.Join(binDir, cmd), "-h").CombinedOutput()
	if err != nil && len(out) == 0 {
		return flagDefaults{}, fmt.Errorf("read %s defaults: %w", cmd, err)
	}
	d := parseDefaults(cmd, out)
	if len(d.vals) == 0 {
		return d, fmt.Errorf("read %s defaults: no flags in -h output", cmd)
	}
	return d, nil
}

func parseDefaults(cmd string, usage []byte) flagDefaults {
	d := flagDefaults{cmd: cmd, vals: map[string]string{}}
	cur := ""
	sc := bufio.NewScanner(bytes.NewReader(usage))
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "  -"); ok {
			cur, _, _ = strings.Cut(rest, " ")
			d.vals[cur] = ""
			line = rest
		}
		if cur == "" {
			continue
		}
		if i := strings.LastIndex(line, "(default "); i >= 0 && strings.HasSuffix(line, ")") {
			v := line[i+len("(default ") : len(line)-1]
			if uq, err := strconv.Unquote(v); err == nil {
				v = uq
			}
			d.vals[cur] = v
		}
	}
	return d
}

// getter reads typed defaults, keeping the first error so a
// configuration block reads as a list of assignments. It fails loudly
// on a flag the command no longer has: the benchmark must not silently
// fall back to a value of its own.
type getter struct {
	d   flagDefaults
	err error
}

func (g *getter) get(name string, parse func(string) error) {
	v, ok := g.d.vals[name]
	switch {
	case g.err != nil:
	case !ok:
		g.err = fmt.Errorf("%s has no -%s flag", g.d.cmd, name)
	case v != "":
		if err := parse(v); err != nil {
			g.err = fmt.Errorf("%s -%s default %q: %w", g.d.cmd, name, v, err)
		}
	}
}

func (g *getter) Int64(name string) (x int64) {
	g.get(name, func(v string) (err error) { x, err = strconv.ParseInt(v, 10, 64); return })
	return
}

func (g *getter) Int(name string) int { return int(g.Int64(name)) }

func (g *getter) Float(name string) (x float64) {
	g.get(name, func(v string) (err error) { x, err = strconv.ParseFloat(v, 64); return })
	return
}

func (g *getter) Duration(name string) (x time.Duration) {
	g.get(name, func(v string) (err error) { x, err = time.ParseDuration(v); return })
	return
}

func (g *getter) Bool(name string) (x bool) {
	g.get(name, func(v string) (err error) { x, err = strconv.ParseBool(v); return })
	return
}

func (g *getter) String(name string) (x string) {
	g.get(name, func(v string) error { x = v; return nil })
	return
}

// shippedConfig is every knob the benchmark takes from the shipped
// commands' defaults.
type shippedConfig struct {
	// picoprobe-watch
	pattern    string
	batchFiles int
	batchBytes int64
	linger     time.Duration
	inflight   int64
	chunk      int64
	streams    int
	// picoprobe-facilityd
	facilityID  string
	secret      string
	workers     int
	maxSessions int
	idleTimeout time.Duration
	// picoprobe-portal
	cache       bool
	events      bool
	metrics     bool
	limitRPS    float64
	limitBurst  float64
	maxInFlight int
}

func loadShipped(binDir string) (shippedConfig, error) {
	var c shippedConfig
	watch, err := readDefaults(binDir, "picoprobe-watch")
	if err != nil {
		return c, err
	}
	fac, err := readDefaults(binDir, "picoprobe-facilityd")
	if err != nil {
		return c, err
	}
	por, err := readDefaults(binDir, "picoprobe-portal")
	if err != nil {
		return c, err
	}
	g := &getter{d: watch}
	c.pattern = g.String("pattern")
	c.batchFiles = g.Int("batch-files")
	c.batchBytes = g.Int64("batch-bytes")
	c.linger = g.Duration("linger")
	c.inflight = g.Int64("inflight")
	c.chunk = g.Int64("chunk")
	c.streams = g.Int("streams")
	if g.err != nil {
		return c, g.err
	}
	g = &getter{d: fac}
	c.facilityID = g.String("id")
	c.secret = g.String("secret")
	c.workers = g.Int("workers")
	c.maxSessions = g.Int("max-sessions")
	c.idleTimeout = g.Duration("idle-timeout")
	if g.err != nil {
		return c, g.err
	}
	g = &getter{d: por}
	c.cache = g.Bool("cache")
	c.events = g.Bool("events")
	c.metrics = g.Bool("metrics")
	c.limitRPS = g.Float("limit-rps")
	c.limitBurst = g.Float("limit-burst")
	c.maxInFlight = g.Int("max-inflight")
	return c, g.err
}
