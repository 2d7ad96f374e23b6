package transfer

import (
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"picoprobe/internal/fsutil"
	"picoprobe/internal/wire"
)

// WireMover moves bytes to a remote facility daemon over the wire
// protocol. It runs the same chunk engine as LiveMover, with the same
// configuration fields, through a wire sink: chunks are hashed before
// they leave the machine and re-checked by the daemon at the door,
// resume verifies landed chunks with a remote range hash (32 bytes over
// the wire instead of the chunk), and the verified merge runs daemon-side
// in one request per file, up to Streams requests at once. Chunks are
// capped to fit one frame (see MaxFrame). The source endpoint's Root is
// a local directory; the DESTINATION endpoint's Root is the daemon's
// host:port.
// All resume state is client-side: a daemon that is SIGKILLed and
// restarted on the same storage root serves the resumed transfer with no
// recovery step, because the manifest plus remote range hashes
// reconstruct exactly which chunks survived.
type WireMover struct {
	// Checksum, ChunkBytes, Streams, Tuner, ManifestDir, KillAfterChunks
	// and FS configure the chunk engine (see LiveMover).
	Checksum        bool
	ChunkBytes      int64
	Streams         int
	Tuner           RouteTuner
	ManifestDir     string
	KillAfterChunks int
	FS              fsutil.FS

	// Token authenticates wire sessions (empty against open servers).
	Token string
	// Dial overrides the dialer on every wire client (nil = plain TCP);
	// the netfault tests inject their wrapped dialer here.
	Dial func(addr string) (net.Conn, error)
	// Timeout is the per-op wire deadline (0 = wire.DefaultTimeout).
	Timeout time.Duration
	// MaxFrame is the frame limit shared with the daemon (0 =
	// wire.DefaultMaxFrame). It bounds received frames, and chunks are
	// planned no larger than wire.MaxChunk(MaxFrame) — whole-file
	// framing (ChunkBytes 0) included — so every chunk write fits one
	// frame the daemon accepts.
	MaxFrame uint32
	// ChunkRetries re-sends a chunk the daemon rejected with a checksum
	// mismatch up to this many extra times before failing the attempt
	// (0 = DefaultChunkRetries, negative = no re-sends). Re-reading and
	// re-shipping one chunk costs one chunk; burning a whole
	// service-attempt retry costs a full resume pass.
	ChunkRetries int
	// IdleTimeout, BreakerThreshold, BreakerCooldown, BusyRetries and
	// Backoff are handed to every wire client (see wire.Client); all
	// zero values preserve the historical behavior.
	IdleTimeout      time.Duration
	BreakerThreshold int
	BreakerCooldown  time.Duration
	BusyRetries      int
	Backoff          *wire.Backoff

	killed    atomic.Bool
	manifests *manifestStore
	initOnce  sync.Once

	cmu     sync.Mutex
	clients map[string]*wire.Client
}

func (m *WireMover) store() *manifestStore {
	m.initOnce.Do(func() { m.manifests = newManifestStore(m.ManifestDir, m.FS) })
	return m.manifests
}

// client returns the shared wire client for one daemon address. Clients
// pool sessions internally, so N chunk workers become N concurrent
// authenticated connections to the same daemon.
func (m *WireMover) client(addr string) *wire.Client {
	m.cmu.Lock()
	defer m.cmu.Unlock()
	if m.clients == nil {
		m.clients = map[string]*wire.Client{}
	}
	c, ok := m.clients[addr]
	if !ok {
		c = &wire.Client{
			Addr: addr, Token: m.Token, Dial: m.Dial, Timeout: m.Timeout, MaxFrame: m.MaxFrame,
			IdleTimeout: m.IdleTimeout, BreakerThreshold: m.BreakerThreshold,
			BreakerCooldown: m.BreakerCooldown, BusyRetries: m.BusyRetries, Backoff: m.Backoff,
		}
		m.clients[addr] = c
	}
	return c
}

// Close drops every pooled wire session.
func (m *WireMover) Close() error {
	m.cmu.Lock()
	defer m.cmu.Unlock()
	for _, c := range m.clients {
		c.Close()
	}
	m.clients = nil
	return nil
}

func (m *WireMover) engine() engine {
	return engine{checksum: m.Checksum, chunkBytes: m.ChunkBytes, maxChunk: wire.MaxChunk(m.MaxFrame),
		streams: m.Streams, tuner: m.Tuner, killAfter: m.KillAfterChunks, killed: &m.killed, store: m.store()}
}

// Move implements Mover.
func (m *WireMover) Move(task *Task, src, dst *Endpoint, done func(Report, error)) {
	go func() {
		done(m.engine().move(task, src, dst, m.sink(dst.Root)))
	}()
}

// DefaultChunkRetries is how many times one chunk rejected by the
// daemon's checksum check is re-sent before the attempt fails.
const DefaultChunkRetries = 2

// sink returns a wire sink on the pooled client for one daemon address.
func (m *WireMover) sink(addr string) *wireSink {
	retries := m.ChunkRetries
	switch {
	case retries == 0:
		retries = DefaultChunkRetries
	case retries < 0:
		retries = 0
	}
	return &wireSink{cl: m.client(addr), retries: retries}
}

// wireSink lands chunks on a facility daemon through a pooled
// wire.Client. A chunk the daemon rejects with a checksum mismatch is
// re-sent inside write (fresh read, fresh hash) up to retries times: one
// damaged chunk costs one chunk re-ship, not a whole service-attempt
// resume pass.
type wireSink struct {
	cl      *wire.Client
	retries int
	rels    []string
}

func (s *wireSink) open(files []FileSpec) ([]int64, error) {
	for _, f := range files {
		s.rels = append(s.rels, f.RelPath)
	}
	preSizes, err := s.cl.Stat(s.rels)
	if err != nil {
		return nil, fmt.Errorf("transfer: wire stat: %w", err)
	}
	for i, f := range files {
		if preSizes[i] != f.Bytes {
			if err := s.cl.Prepare(f.RelPath, f.Bytes); err != nil {
				return nil, fmt.Errorf("transfer: wire prepare %s: %w", f.RelPath, err)
			}
		}
	}
	return preSizes, nil
}

// write reads one source range, hashes it, and lands it on the daemon as
// a ranged write; the daemon re-hashes the received bytes and refuses a
// mismatch, so a chunk corrupted past the frame CRC still never reaches
// the destination file.
func (s *wireSink) write(src io.ReaderAt, sp chunkSpan, h hash.Hash) (string, error) {
	rel := s.rels[sp.File]
	for resend := 0; ; resend++ {
		buf := make([]byte, sp.N)
		if _, err := io.ReadFull(io.NewSectionReader(src, sp.Off, sp.N), buf); err != nil {
			return "", fmt.Errorf("transfer: read chunk @%d: %w", sp.Off, err)
		}
		h.Reset()
		h.Write(buf)
		sum := hex.EncodeToString(h.Sum(nil))
		err := s.cl.WriteChunk(rel, sp.Off, buf, sum)
		if err == nil {
			return sum, nil
		}
		if resend < s.retries && wire.IsRemoteCode(err, wire.CodeChecksum) {
			continue
		}
		return "", fmt.Errorf("transfer: wire chunk %s @%d: %w", rel, sp.Off, err)
	}
}

func (s *wireSink) hash(sp chunkSpan) (string, bool) {
	present, sum, err := s.cl.HashChunk(s.rels[sp.File], sp.Off, sp.N)
	return sum, err == nil && present
}

func (s *wireSink) merge(fi int, chunks []wire.MergeChunk) (string, int, error) {
	sum, err := s.cl.Merge(s.rels[fi], chunks)
	var re *wire.RemoteError
	if errors.As(err, &re) && re.Code == wire.CodeChunkMismatch && re.Chunk >= 0 && re.Chunk < len(chunks) {
		return "", re.Chunk, nil
	}
	if err != nil {
		return "", -1, fmt.Errorf("transfer: wire merge %s: %w", s.rels[fi], err)
	}
	return sum, -1, nil
}

func (s *wireSink) close() {}
