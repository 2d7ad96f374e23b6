package main

import (
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"picoprobe/internal/auth"
	"picoprobe/internal/compute"
	"picoprobe/internal/core"
	"picoprobe/internal/detect"
	"picoprobe/internal/flows"
	"picoprobe/internal/obs"
	"picoprobe/internal/portal"
	"picoprobe/internal/search"
	"picoprobe/internal/wire"
)

// startDaemon assembles a facility daemon the way picoprobe-facilityd
// does — compute pool running the real analysis functions, wire server
// on loopback — rooted at root.
func startDaemon(cfg shippedConfig, root string) (*wire.Server, string, error) {
	outDir := filepath.Join(root, "analysis-out")
	for _, dir := range []string{root, outDir} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, "", err
		}
	}
	issuer := auth.NewIssuer([]byte(cfg.secret), nil)
	registry := compute.NewRegistry()
	core.RegisterAnalysisFunctions(registry, outDir, detect.DefaultParams())
	csvc := compute.NewService(issuer, registry, compute.NewLocalExecutor(cfg.workers, nil), time.Now)
	ctoken, err := issuer.Issue("facilityd@"+cfg.facilityID, []string{auth.ScopeCompute}, 365*24*time.Hour)
	if err != nil {
		return nil, "", err
	}
	srv := &wire.Server{
		Root:     root,
		Facility: cfg.facilityID,
		Verify: func(token string) error {
			_, err := issuer.Verify(token, auth.ScopeTransfer)
			return err
		},
		Compute:      csvc,
		ComputeToken: ctoken,
		MaxSessions:  cfg.maxSessions,
		IdleTimeout:  cfg.idleTimeout,
		Logf:         log.Printf,
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	return srv, addr, nil
}

// portalServer is a portal served over loopback HTTP.
type portalServer struct {
	http *http.Server
	addr string
}

// startPortal serves the portal configured as picoprobe-portal's flag
// defaults configure it.
func startPortal(cfg shippedConfig, index *search.Index, artifacts string, engine *flows.Engine) (*portalServer, error) {
	pc := portal.Config{Index: index, ArtifactRoot: artifacts, Flows: engine}
	if cfg.cache {
		pc.Cache = &portal.CacheConfig{}
	}
	if cfg.limitRPS > 0 || cfg.maxInFlight > 0 {
		pc.Limits = &portal.LimitConfig{RatePerSec: cfg.limitRPS, Burst: cfg.limitBurst, MaxInFlight: cfg.maxInFlight}
	}
	if cfg.metrics {
		pc.Metrics = obs.NewRegistry()
	}
	if cfg.events {
		hub := portal.NewHub()
		pc.Events = hub
		if engine != nil {
			engine.SetEventSink(hub.FlowSink())
		}
	}
	srv, err := portal.NewServer(pc)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: srv}
	go hs.Serve(ln)
	p := &portalServer{http: hs, addr: ln.Addr().String()}
	// Ready means answering: one match-all search must come back 200.
	resp, err := http.Get("http://" + p.addr + "/api/search")
	if err != nil {
		hs.Close()
		return nil, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		hs.Close()
		return nil, fmt.Errorf("portal readiness probe: %s", resp.Status)
	}
	return p, nil
}

func (p *portalServer) close() { p.http.Close() }

// newClient returns an HTTP client pinned to one persistent connection,
// so a sequential caller is one portal user on one socket.
func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
		Timeout: 30 * time.Second,
	}
}

// getResult is one timed portal request.
type getResult struct {
	status   int
	body     []byte
	cacheHit bool
	err      error
}

// get issues one GET and reads the whole body.
func get(c *http.Client, url string) getResult {
	resp, err := c.Get(url)
	if err != nil {
		return getResult{err: err}
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	cache := resp.Header.Get("X-Pp-Cache")
	return getResult{status: resp.StatusCode, body: body, err: err,
		cacheHit: cache == "hit" || cache == "revalidated"}
}
