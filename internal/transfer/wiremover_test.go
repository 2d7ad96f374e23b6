package transfer

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"picoprobe/internal/auth"
	"picoprobe/internal/netfault"
	"picoprobe/internal/wire"
)

// wireWorld is one end-to-end wire fixture: a facility daemon on
// loopback, a source directory, and a transfer.Service whose mover
// ships chunks over the socket.
type wireWorld struct {
	srv     *wire.Server
	addr    string
	srcRoot string
	dstRoot string // the daemon's storage root
	mover   *WireMover
	svc     *Service
	tok     string
}

func newWireWorld(t *testing.T, mutate func(*WireMover), opts Options) *wireWorld {
	t.Helper()
	iss := auth.NewIssuer([]byte("test"), nil)
	tok, err := iss.Issue("user@anl.gov", []string{auth.ScopeTransfer}, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	w := &wireWorld{srcRoot: t.TempDir(), dstRoot: t.TempDir(), tok: tok}
	w.srv = &wire.Server{
		Root:     w.dstRoot,
		Facility: "test",
		Verify: func(token string) error {
			_, err := iss.Verify(token, auth.ScopeTransfer)
			return err
		},
	}
	if w.addr, err = w.srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.srv.Close() })

	w.mover = &WireMover{
		Checksum:    true,
		ChunkBytes:  1024,
		Streams:     1,
		ManifestDir: filepath.Join(w.srcRoot, ".manifests"),
		Token:       tok,
		Timeout:     10 * time.Second,
	}
	if mutate != nil {
		mutate(w.mover)
	}
	t.Cleanup(func() { w.mover.Close() })
	w.svc = NewService(iss, w.mover, time.Now, opts)
	w.svc.RegisterEndpoint(Endpoint{ID: "src", Root: w.srcRoot})
	w.svc.RegisterEndpoint(Endpoint{ID: "dst", Root: w.addr})
	return w
}

// sinks names the chunk engine's two sinks. The engine's resume,
// torn-manifest and adaptive tests run once per entry: "local" lands
// files directly under the destination root, "wire" ships them to an
// in-process daemon serving that root on loopback, as newWireWorld does.
var sinks = []string{"local", "wire"}

// sinkService builds a service whose mover runs cfg's engine settings
// through the named sink, with endpoints "src" over srcRoot and "dst"
// landing files under dstRoot.
func sinkService(t *testing.T, sink string, iss *auth.Issuer, cfg *LiveMover, opts Options, srcRoot, dstRoot string) *Service {
	t.Helper()
	var mover Mover = cfg
	dst := dstRoot
	if sink == "wire" {
		srv := &wire.Server{Root: dstRoot, Facility: "test"}
		addr, err := srv.Start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		wm := &WireMover{
			Checksum: cfg.Checksum, ChunkBytes: cfg.ChunkBytes, Streams: cfg.Streams, Tuner: cfg.Tuner,
			ManifestDir: cfg.ManifestDir, KillAfterChunks: cfg.KillAfterChunks, FS: cfg.FS,
			Timeout: 10 * time.Second,
		}
		t.Cleanup(func() { wm.Close() })
		mover, dst = wm, addr
	}
	svc := NewService(iss, mover, time.Now, opts)
	svc.RegisterEndpoint(Endpoint{ID: "src", Root: srcRoot})
	svc.RegisterEndpoint(Endpoint{ID: "dst", Root: dst})
	return svc
}

func (w *wireWorld) stage(t *testing.T, rel string, n int, seed int64) []byte {
	t.Helper()
	data := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(data)
	path := filepath.Join(w.srcRoot, rel)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return data
}

// TestWireMoverCopiesAndVerifies: the basic wire transfer — files land
// on the daemon byte-identical, and the reported checksums are the real
// whole-file SHA-256s computed by the daemon's verified merge.
func TestWireMoverCopiesAndVerifies(t *testing.T) {
	w := newWireWorld(t, nil, Options{})
	a := w.stage(t, "runs/a.emdg", 4096+100, 1) // 5 chunks, last partial
	b := w.stage(t, "b.emdg", 2048, 2)          // 2 chunks exactly

	id, err := w.svc.Submit(w.tok, "src", "dst", []FileSpec{{RelPath: "runs/a.emdg"}, {RelPath: "b.emdg"}})
	if err != nil {
		t.Fatal(err)
	}
	view := waitFor(t, w.svc, w.tok, id, StatusSucceeded)
	if view.BytesMoved != int64(len(a)+len(b)) {
		t.Errorf("bytes moved = %d, want %d", view.BytesMoved, len(a)+len(b))
	}
	if view.ChunksTotal != 7 || view.ChunksMoved != 7 || view.ChunksSkipped != 0 {
		t.Errorf("chunks total/moved/skipped = %d/%d/%d, want 7/7/0",
			view.ChunksTotal, view.ChunksMoved, view.ChunksSkipped)
	}
	for rel, want := range map[string][]byte{"runs/a.emdg": a, "b.emdg": b} {
		got, err := os.ReadFile(filepath.Join(w.dstRoot, rel))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s landed corrupted", rel)
		}
		sum := sha256.Sum256(want)
		if view.Checksums[rel] != hex.EncodeToString(sum[:]) {
			t.Errorf("%s checksum = %s, want %s", rel, view.Checksums[rel], hex.EncodeToString(sum[:]))
		}
	}
}

// TestWireMoverSeverAtNthChunkReconnects severs the connection at the
// Nth chunk write via netfault; the client reconnects on a fresh dial
// and re-sends only the severed chunk — verified chunks are never
// re-moved, and the transfer completes in the same attempt.
func TestWireMoverSeverAtNthChunkReconnects(t *testing.T) {
	// Single session, Streams 1: writes are Hello(1) Stat(2) Prepare(3)
	// chunks(4..7) Merge(8). Cutting write 6 kills the third chunk.
	faults := &netfault.Faults{CutAtWrite: 6}
	w := newWireWorld(t, func(m *WireMover) { m.Dial = faults.Dialer(nil) }, Options{MaxAttempts: 2})
	data := w.stage(t, "x.bin", 4096, 3) // 4 chunks

	id, err := w.svc.Submit(w.tok, "src", "dst", []FileSpec{{RelPath: "x.bin"}})
	if err != nil {
		t.Fatal(err)
	}
	view := waitFor(t, w.svc, w.tok, id, StatusSucceeded)
	if view.Attempts != 1 {
		t.Fatalf("attempts = %d, want 1 (reconnect heals within the attempt)", view.Attempts)
	}
	if d := faults.Dials(); d != 2 {
		t.Errorf("dials = %d, want 2 (one reconnect after the cut)", d)
	}
	// Every chunk crossed the wire exactly once: the cut cost a redial
	// and a re-send of the severed chunk only, not a re-move of the
	// chunks already verified on the daemon.
	if view.ChunksMoved != 4 || view.ChunksSkipped != 0 {
		t.Errorf("chunks moved/skipped = %d/%d, want 4/0", view.ChunksMoved, view.ChunksSkipped)
	}
	if view.BytesCopied != int64(len(data)) {
		t.Errorf("bytes copied = %d, want %d — the cut must not re-move verified chunks", view.BytesCopied, len(data))
	}
	got, err := os.ReadFile(filepath.Join(w.dstRoot, "x.bin"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("resumed file corrupted")
	}
	sum := sha256.Sum256(data)
	if view.Checksums["x.bin"] != hex.EncodeToString(sum[:]) {
		t.Fatal("resumed checksum wrong")
	}
}

// TestWireMoverCorruptOnWireRetried: a chunk corrupted in flight is
// caught by the frame CRC, the damaged session is dropped, and the
// retry re-ships the chunk — the corrupted bytes never reach the file.
func TestWireMoverCorruptOnWireRetried(t *testing.T) {
	faults := &netfault.Faults{CorruptAtWrite: 5} // second chunk write
	w := newWireWorld(t, func(m *WireMover) { m.Dial = faults.Dialer(nil) }, Options{MaxAttempts: 2})
	data := w.stage(t, "y.bin", 4096, 4)

	id, err := w.svc.Submit(w.tok, "src", "dst", []FileSpec{{RelPath: "y.bin"}})
	if err != nil {
		t.Fatal(err)
	}
	view := waitFor(t, w.svc, w.tok, id, StatusSucceeded)
	got, err := os.ReadFile(filepath.Join(w.dstRoot, "y.bin"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("corrupted chunk reached the destination file")
	}
	sum := sha256.Sum256(data)
	if view.Checksums["y.bin"] != hex.EncodeToString(sum[:]) {
		t.Fatal("checksum wrong after in-flight corruption")
	}
	if view.Attempts != 2 {
		t.Errorf("attempts = %d, want 2 (corrupt frame fails the first)", view.Attempts)
	}
}

// TestWireMoverDestinationCorruptionRefetched: chunks that landed and
// were recorded as done, but whose bytes on the daemon's disk were
// later damaged, fail the remote hash verification at resume — exactly
// the damaged chunk is re-fetched, the rest are skipped.
func TestWireMoverDestinationCorruptionRefetched(t *testing.T) {
	w := newWireWorld(t, func(m *WireMover) { m.KillAfterChunks = 4 }, Options{MaxAttempts: 1})
	data := w.stage(t, "z.bin", 4096, 5) // 4 chunks

	// First task: all four chunks land, then the injected kill fails the
	// attempt before the merge — the manifest remembers all four as done.
	id, err := w.svc.Submit(w.tok, "src", "dst", []FileSpec{{RelPath: "z.bin"}})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, w.svc, w.tok, id, StatusFailed)

	// Corrupt one byte of the third chunk on the daemon's disk.
	f, err := os.OpenFile(filepath.Join(w.dstRoot, "z.bin"), os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xEE}, 2*1024+100); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Second task over the same plan: resume must skip the three intact
	// chunks and re-move only the damaged one.
	id2, err := w.svc.Submit(w.tok, "src", "dst", []FileSpec{{RelPath: "z.bin"}})
	if err != nil {
		t.Fatal(err)
	}
	view := waitFor(t, w.svc, w.tok, id2, StatusSucceeded)
	if view.ChunksSkipped != 3 || view.ChunksMoved != 1 {
		t.Errorf("chunks skipped/moved = %d/%d, want 3/1", view.ChunksSkipped, view.ChunksMoved)
	}
	got, err := os.ReadFile(filepath.Join(w.dstRoot, "z.bin"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("corruption survived the resume")
	}
}

// TestWireMoverMergeDemotesMismatchedChunk drives the engine's merge
// through the wire sink directly:
// when the daemon's merge rejects a chunk whose landed bytes do not
// match the recorded digest, the mover demotes exactly that chunk in
// its manifest — the damaged bytes are never folded into a completed
// file, and the retry re-ships only the demoted chunk.
func TestWireMoverMergeDemotesMismatchedChunk(t *testing.T) {
	w := newWireWorld(t, nil, Options{})
	w.stage(t, "m.bin", 2048, 6) // 2 chunks

	// Land the file through the wire by hand.
	cl := w.mover.client(w.addr)
	src, err := os.ReadFile(filepath.Join(w.srcRoot, "m.bin"))
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Prepare("m.bin", 2048); err != nil {
		t.Fatal(err)
	}
	sums := make([]string, 2)
	for i := 0; i < 2; i++ {
		chunk := src[i*1024 : (i+1)*1024]
		h := sha256.Sum256(chunk)
		sums[i] = hex.EncodeToString(h[:])
		if err := cl.WriteChunk("m.bin", int64(i*1024), chunk, sums[i]); err != nil {
			t.Fatal(err)
		}
	}

	// Build the manifest, recording a WRONG digest for chunk 1 — the
	// stand-in for bytes that rotted between landing and merge.
	files := []FileSpec{{RelPath: "m.bin", Bytes: 2048}}
	man, err := w.mover.store().load("merge-demote-test", files, 1024, false)
	if err != nil {
		t.Fatal(err)
	}
	spans := man.spans()
	w.mover.store().mark(man, spans[0], sums[0], true)
	wrong := strings.Repeat("ab", 32)
	w.mover.store().mark(man, spans[1], wrong, true)

	sink := w.mover.sink(w.addr)
	sink.rels = []string{"m.bin"}
	_, err = w.mover.engine().merge(sink, man, 0)
	if err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("merge err = %v, want checksum mismatch", err)
	}
	if _, done := w.mover.store().done(man, spans[1]); done {
		t.Fatal("mismatched chunk not demoted")
	}
	if _, done := w.mover.store().done(man, spans[0]); !done {
		t.Fatal("intact chunk demoted too")
	}
}

// mergeHookMover runs an engine through the sinks open returns, calling
// beforeMerge ahead of each file's verified merge: a hook for damaging
// landed bytes after every chunk write succeeded.
type mergeHookMover struct {
	eng         engine
	open        func(root string) chunkSink
	beforeMerge func(fi int)
}

func (m mergeHookMover) Move(task *Task, src, dst *Endpoint, done func(Report, error)) {
	go func() {
		done(m.eng.move(task, src, dst, hookSink{m.open(dst.Root), m.beforeMerge}))
	}()
}

type hookSink struct {
	chunkSink
	beforeMerge func(fi int)
}

func (s hookSink) merge(fi int, chunks []wire.MergeChunk) (string, int, error) {
	s.beforeMerge(fi)
	return s.chunkSink.merge(fi, chunks)
}

// TestConcurrentMergeDemotesDamagedChunk: a 4-file task merges its files
// concurrently; one landed chunk of file 2 is damaged just before its
// merge. The attempt fails with a checksum mismatch and demotes exactly
// that chunk, the retry re-moves only it, and every reported checksum is
// the source's SHA-256.
func TestConcurrentMergeDemotesDamagedChunk(t *testing.T) {
	const chunk, perFile = 1024, 4
	for _, sink := range sinks {
		t.Run(sink, func(t *testing.T) {
			iss, tok := issuerAndToken(t)
			srcRoot, dstRoot := t.TempDir(), t.TempDir()
			var files []FileSpec
			var want []string
			for i := range 4 {
				rel := fmt.Sprintf("f%d.bin", i)
				files = append(files, FileSpec{RelPath: rel})
				sum := sha256.Sum256(writeRandom(t, filepath.Join(srcRoot, rel), perFile*chunk, int64(20+i)))
				want = append(want, hex.EncodeToString(sum[:]))
			}

			m := mergeHookMover{}
			dst := dstRoot
			switch sink {
			case "local":
				lm := &LiveMover{Checksum: true, ChunkBytes: chunk, Streams: 4}
				m.eng = lm.engine()
				m.open = func(root string) chunkSink { return &localSink{root: root} }
			case "wire":
				srv := &wire.Server{Root: dstRoot, Facility: "test"}
				addr, err := srv.Start("127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { srv.Close() })
				wm := &WireMover{Checksum: true, ChunkBytes: chunk, Streams: 4, Timeout: 10 * time.Second}
				t.Cleanup(func() { wm.Close() })
				m.eng = wm.engine()
				m.open = func(addr string) chunkSink { return wm.sink(addr) }
				dst = addr
			}
			var damaged atomic.Bool
			m.beforeMerge = func(fi int) {
				if fi != 2 || !damaged.CompareAndSwap(false, true) {
					return
				}
				f, err := os.OpenFile(filepath.Join(dstRoot, "f2.bin"), os.O_RDWR, 0)
				if err != nil {
					t.Error(err)
					return
				}
				defer f.Close()
				b := make([]byte, 1)
				if _, err := f.ReadAt(b, chunk+10); err != nil {
					t.Error(err)
					return
				}
				b[0] ^= 0xFF
				if _, err := f.WriteAt(b, chunk+10); err != nil {
					t.Error(err)
				}
			}
			svc := NewService(iss, m, time.Now, Options{MaxAttempts: 1})
			svc.RegisterEndpoint(Endpoint{ID: "src", Root: srcRoot})
			svc.RegisterEndpoint(Endpoint{ID: "dst", Root: dst})

			id, err := svc.Submit(tok, "src", "dst", files)
			if err != nil {
				t.Fatal(err)
			}
			view := waitFor(t, svc, tok, id, StatusFailed)
			if !strings.Contains(view.Error, "checksum mismatch on f2.bin chunk @1024") {
				t.Fatalf("error = %q, want a checksum mismatch on f2.bin chunk @1024", view.Error)
			}
			m.eng.store.mu.Lock()
			for _, man := range m.eng.store.mem {
				for fi, mf := range man.Files {
					for ci, c := range mf.Chunks {
						if c.Done == (fi == 2 && ci == 1) {
							t.Errorf("file %d chunk %d done = %v", fi, ci, c.Done)
						}
					}
				}
			}
			m.eng.store.mu.Unlock()

			id2, err := svc.Submit(tok, "src", "dst", files)
			if err != nil {
				t.Fatal(err)
			}
			view = waitFor(t, svc, tok, id2, StatusSucceeded)
			if view.ChunksMoved != 1 || view.ChunksSkipped != 4*perFile-1 {
				t.Errorf("retry moved/skipped = %d/%d, want 1/%d", view.ChunksMoved, view.ChunksSkipped, 4*perFile-1)
			}
			for i, f := range files {
				if got := view.Checksums[f.RelPath]; got != want[i] {
					t.Errorf("%s checksum = %s, want %s", f.RelPath, got, want[i])
				}
			}
		})
	}
}

// TestWireMoverChunksFitTheFrame: whole-file framing (ChunkBytes 0) of a
// file larger than the frame limit is planned in chunks that fit one
// frame, so the daemon accepts every chunk write and the file lands.
func TestWireMoverChunksFitTheFrame(t *testing.T) {
	const maxFrame = 1 << 20
	iss, tok := issuerAndToken(t)
	srcRoot, dstRoot := t.TempDir(), t.TempDir()
	data := writeRandom(t, filepath.Join(srcRoot, "big.bin"), 2*maxFrame+100, 11)
	srv := &wire.Server{Root: dstRoot, Facility: "test", MaxFrame: maxFrame}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	wm := &WireMover{Checksum: true, ChunkBytes: 0, Streams: 2, MaxFrame: maxFrame, Timeout: 10 * time.Second}
	t.Cleanup(func() { wm.Close() })
	svc := NewService(iss, wm, time.Now, Options{MaxAttempts: 1})
	svc.RegisterEndpoint(Endpoint{ID: "src", Root: srcRoot})
	svc.RegisterEndpoint(Endpoint{ID: "dst", Root: addr})

	id, err := svc.Submit(tok, "src", "dst", []FileSpec{{RelPath: "big.bin"}})
	if err != nil {
		t.Fatal(err)
	}
	view := waitFor(t, svc, tok, id, StatusSucceeded)
	if view.ChunksTotal < 3 || view.BytesCopied != int64(len(data)) {
		t.Errorf("chunks/bytes copied = %d/%d, want >= 3 chunks carrying %d bytes", view.ChunksTotal, view.BytesCopied, len(data))
	}
	got, err := os.ReadFile(filepath.Join(dstRoot, "big.bin"))
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("landed file differs from the source (err=%v)", err)
	}
	sum := sha256.Sum256(data)
	if view.Checksums["big.bin"] != hex.EncodeToString(sum[:]) {
		t.Errorf("checksum = %s, want %s", view.Checksums["big.bin"], hex.EncodeToString(sum[:]))
	}
}

// TestWireMoverDaemonRestartMidTransfer stops the daemon after half the
// chunks landed, restarts a fresh server process-equivalent on the same
// storage root and address, and lets the retry finish: resume at chunk
// granularity across a full server restart, no daemon-side recovery.
func TestWireMoverDaemonRestartMidTransfer(t *testing.T) {
	w := newWireWorld(t, func(m *WireMover) { m.KillAfterChunks = 2 }, Options{MaxAttempts: 1})
	data := w.stage(t, "r.bin", 4096, 7) // 4 chunks

	id, err := w.svc.Submit(w.tok, "src", "dst", []FileSpec{{RelPath: "r.bin"}})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, w.svc, w.tok, id, StatusFailed)

	// Restart: tear the server down and bring a fresh one up on the SAME
	// address and root (a new process in spirit — wire.Server holds no
	// state beyond the files).
	if err := w.srv.Close(); err != nil {
		t.Fatal(err)
	}
	w.mover.Close() // drop pooled sessions to the dead server
	restarted := &wire.Server{Root: w.dstRoot, Facility: "test"}
	var ln net.Listener
	deadline := time.Now().Add(5 * time.Second)
	for {
		if ln, err = net.Listen("tcp", w.addr); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("could not rebind %s: %v", w.addr, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	go restarted.Serve(ln)
	t.Cleanup(func() { restarted.Close() })

	w.mover.KillAfterChunks = 0 // the fault was one-shot; be explicit
	id2, err := w.svc.Submit(w.tok, "src", "dst", []FileSpec{{RelPath: "r.bin"}})
	if err != nil {
		t.Fatal(err)
	}
	view := waitFor(t, w.svc, w.tok, id2, StatusSucceeded)
	if view.ChunksSkipped != 2 || view.ChunksMoved != 2 {
		t.Errorf("chunks skipped/moved = %d/%d, want 2/2 across the restart", view.ChunksSkipped, view.ChunksMoved)
	}
	got, err := os.ReadFile(filepath.Join(w.dstRoot, "r.bin"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("file corrupted across the restart")
	}
}

// TestWireMoverChecksumOffSkipsMerge: without checksumming the mover
// still moves bytes correctly, resumes on the size bound alone, and
// reports no checksums (the live mover's contract).
func TestWireMoverChecksumOffSkipsMerge(t *testing.T) {
	w := newWireWorld(t, func(m *WireMover) { m.Checksum = false }, Options{})
	data := w.stage(t, "nc.bin", 3000, 8)
	id, err := w.svc.Submit(w.tok, "src", "dst", []FileSpec{{RelPath: "nc.bin"}})
	if err != nil {
		t.Fatal(err)
	}
	view := waitFor(t, w.svc, w.tok, id, StatusSucceeded)
	if len(view.Checksums) != 0 {
		// Checksums map may exist with empty entries; what must not
		// appear is a fabricated digest.
		for rel, sum := range view.Checksums {
			if sum != "" {
				t.Errorf("checksum-off transfer fabricated digest %s for %s", sum, rel)
			}
		}
	}
	got, err := os.ReadFile(filepath.Join(w.dstRoot, "nc.bin"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("content mismatch")
	}
}

// TestWireMoverBadTokenRefused: a mover holding a token without the
// transfer scope is refused at Hello — no bytes move.
func TestWireMoverBadTokenRefused(t *testing.T) {
	w := newWireWorld(t, func(m *WireMover) { m.Token = "garbage" }, Options{MaxAttempts: 1})
	w.stage(t, "t.bin", 1024, 9)
	id, err := w.svc.Submit(w.tok, "src", "dst", []FileSpec{{RelPath: "t.bin"}})
	if err != nil {
		t.Fatal(err)
	}
	view := waitFor(t, w.svc, w.tok, id, StatusFailed)
	if view.Error == "" {
		t.Fatal("auth failure carried no error")
	}
	if _, err := os.Stat(filepath.Join(w.dstRoot, "t.bin")); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("bytes moved despite auth refusal")
	}
}
