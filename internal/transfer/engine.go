package transfer

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"picoprobe/internal/wire"
)

// engine is the one chunk engine behind both byte-moving movers. An
// attempt stats and opens the sources, fingerprints the task, loads its
// chunk manifest, opens the destination through a chunk sink, verifies
// the chunks the manifest marks done, runs the bounded worker pool over
// the rest, and finishes with a verified merge per file, up to Streams
// files at a time. LiveMover and WireMover differ only in the sink they
// hand it: local ranged writes under a directory root, or wire requests
// to a facility daemon.
type engine struct {
	checksum   bool
	chunkBytes int64
	maxChunk   int64 // caps planned chunks, ChunkBytes 0 included (0 = no cap)
	streams    int
	tuner      RouteTuner
	killAfter  int
	killed     *atomic.Bool // the one-shot KillAfterChunks latch
	store      *manifestStore
}

// chunkSink is the destination half of one move attempt: chunk I/O and
// nothing else. Planning, resume, the worker pool, manifest bookkeeping
// and every checksum decision stay in the engine. Files are addressed by
// their index in the list handed to open.
type chunkSink interface {
	// open reports each destination file's size before this attempt
	// touched it (-1 = absent), then creates every file at its planned
	// size.
	open(files []FileSpec) (preSizes []int64, err error)
	// write lands chunk sp read from src, hashing the bytes through h
	// exactly once, and returns h's hex digest.
	write(src io.ReaderAt, sp chunkSpan, h hash.Hash) (string, error)
	// hash digests a landed range; ok is false when it is not there.
	hash(sp chunkSpan) (sum string, ok bool)
	// merge is the verified merge of landed file fi against its recorded
	// plan; badChunk >= 0 names the first chunk whose bytes do not match.
	merge(fi int, chunks []wire.MergeChunk) (sum string, badChunk int, err error)
	close()
}

// liveAdaptiveWorkerCap bounds the adaptive worker pool: the tuner can
// widen the window up to this many concurrent chunk copies.
const liveAdaptiveWorkerCap = 32

func (e engine) move(task *Task, src, dst *Endpoint, sink chunkSink) (Report, error) {
	var rep Report
	defer sink.close()

	// Fix the plan from the real source sizes. The fingerprint includes
	// the source modification times, so a source rewritten between
	// attempts gets a fresh manifest instead of resuming stale chunks
	// into a mixed-content destination.
	files := make([]FileSpec, len(task.Files))
	mtimes := make([]int64, len(task.Files))
	srcFiles := make([]*os.File, 0, len(task.Files))
	defer func() {
		for _, f := range srcFiles {
			f.Close()
		}
	}()
	for i, f := range task.Files {
		in, err := os.Open(filepath.Join(src.Root, f.RelPath))
		if err != nil {
			return rep, fmt.Errorf("transfer: %w", err)
		}
		srcFiles = append(srcFiles, in)
		st, err := in.Stat()
		if err != nil {
			return rep, fmt.Errorf("transfer: %w", err)
		}
		files[i] = FileSpec{RelPath: f.RelPath, Bytes: st.Size()}
		mtimes[i] = st.ModTime().UnixNano()
	}
	chunkBytes := e.chunkBytes
	if e.tuner != nil {
		if _, cb := e.tuner.Tune(); cb > 0 {
			chunkBytes = cb
		}
	}
	if e.maxChunk > 0 && (chunkBytes <= 0 || chunkBytes > e.maxChunk) {
		chunkBytes = e.maxChunk
	}
	keyChunk := chunkBytes
	if e.tuner != nil {
		keyChunk = adaptiveChunkSentinel
	}
	key := taskKey(src.ID, dst.ID, files, keyChunk, mtimes)
	man, err := e.store.load(key, files, chunkBytes, e.tuner != nil)
	if err != nil {
		return rep, err
	}
	spans := man.spans()
	rep.ChunksTotal = len(spans)

	preSizes, err := sink.open(files)
	if err != nil {
		return rep, err
	}

	// Resume: chunks the manifest marks done are verified against the
	// destination (a range hash, not a copy) and skipped; any that no
	// longer match are demoted and re-copied.
	var todo []chunkSpan
	for _, sp := range spans {
		sum, ok := e.store.done(man, sp)
		if ok && e.survived(sink, sp, sum, preSizes[sp.File]) {
			rep.ChunksSkipped++
			continue
		}
		if ok {
			e.store.mark(man, sp, "", false)
		}
		todo = append(todo, sp)
	}

	rep.ChunksMoved, rep.BytesCopied, err = e.copyChunks(todo, srcFiles, sink, man)
	if err != nil {
		return rep, err
	}

	sums, err := e.mergeAll(sink, man, len(files))
	if err != nil {
		return rep, err
	}
	rep.Checksums = map[string]string{}
	for fi, f := range files {
		rep.Checksums[f.RelPath] = sums[fi]
		rep.BytesMoved += f.Bytes
	}
	e.store.forget(key)
	return rep, nil
}

// survived reports whether a manifest-done chunk is still intact at the
// destination. preSize is the file's size before this attempt touched
// it: a chunk can only have survived if the file already extended past
// it (the current size is useless — open sizes the file to full length).
// Without checksumming that bound is the only check (the manifest then
// records written, unverified chunks — the ablation's trade).
func (e engine) survived(sink chunkSink, sp chunkSpan, sum string, preSize int64) bool {
	if preSize < sp.Off+sp.N {
		return false
	}
	if !e.checksum {
		return true
	}
	if sum == "" {
		return false // copied under Checksum=false; cannot verify now
	}
	got, ok := sink.hash(sp)
	return ok && got == sum
}

// copyChunks is the bounded worker pool. Without a tuner it runs Streams
// workers and a constant admission window of the same size. With one,
// the pool is sized to the adaptive ceiling and the dispatcher re-reads
// the tuned window between dispatches, so the effective parallelism can
// move mid-task without re-spawning workers.
func (e engine) copyChunks(todo []chunkSpan, srcFiles []*os.File, sink chunkSink, man *manifest) (int, int64, error) {
	pool := e.streams
	if e.tuner != nil {
		pool = liveAdaptiveWorkerCap
	}
	pool = max(1, min(pool, len(todo)))
	var (
		work      = make(chan chunkSpan)
		chunkDone = make(chan struct{}, len(todo))
		wg        sync.WaitGroup
		errOnce   sync.Once
		firstErr  error
		aborted   atomic.Bool
		completed atomic.Int64
		copied    atomic.Int64
	)
	fail := func(err error) {
		errOnce.Do(func() { firstErr = err })
		aborted.Store(true)
	}
	for w := 0; w < pool; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for sp := range work {
				if !aborted.Load() {
					sum, err := sink.write(srcFiles[sp.File], sp, e.newHash())
					if err != nil {
						fail(err)
					} else {
						e.store.mark(man, sp, sum, true)
						copied.Add(sp.N)
						n := completed.Add(1)
						if e.killAfter > 0 && n >= int64(e.killAfter) && e.killed.CompareAndSwap(false, true) {
							fail(fmt.Errorf("transfer: killed after %d chunks (injected fault)", n))
						}
					}
				}
				chunkDone <- struct{}{}
			}
		}()
	}
	inFlight := 0
	for _, sp := range todo {
		for inFlight >= e.tunedStreams(pool) {
			<-chunkDone
			inFlight--
		}
		work <- sp
		inFlight++
	}
	close(work)
	wg.Wait()
	return int(completed.Load()), copied.Load(), firstErr
}

// tunedStreams is the dispatcher's admission window: the tuner's stream
// count when it has an opinion, the fixed Streams otherwise, clamped to
// [1, pool].
func (e engine) tunedStreams(pool int) int {
	s := e.streams
	if e.tuner != nil {
		if ts, _ := e.tuner.Tune(); ts > 0 {
			s = ts
		}
	}
	return max(1, min(s, pool))
}

// mergeAll runs the verified merge of every file, up to the stream
// window at a time. Every file is merged even when one fails, so each
// damaged chunk is demoted in this pass; the error returned is the
// lowest-index failing file's, whatever order the merges finished in.
func (e engine) mergeAll(sink chunkSink, man *manifest, n int) ([]string, error) {
	sums := make([]string, n)
	errs := make([]error, n)
	sem := make(chan struct{}, e.tunedStreams(n))
	var wg sync.WaitGroup
	for fi := range n {
		sem <- struct{}{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			sums[fi], errs[fi] = e.merge(sink, man, fi)
			<-sem
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return sums, nil
}

// merge runs the verified merge of file fi through the sink, producing
// the whole-file checksum. A mismatched chunk is demoted in the manifest,
// so the retry re-copies exactly it, and the merge fails: a damaged
// chunk is never folded into a completed file.
func (e engine) merge(sink chunkSink, man *manifest, fi int) (string, error) {
	if !e.checksum {
		return "", nil
	}
	mf := man.Files[fi]
	chunks := make([]wire.MergeChunk, len(mf.Chunks))
	for i, c := range mf.Chunks {
		chunks[i] = wire.MergeChunk{Off: c.Off, N: c.N, SHA256: c.SHA256}
	}
	sum, bad, err := sink.merge(fi, chunks)
	if bad >= 0 {
		c := mf.Chunks[bad]
		e.store.mark(man, chunkSpan{File: fi, Index: bad, Off: c.Off, N: c.N}, "", false)
		return "", fmt.Errorf("transfer: checksum mismatch on %s chunk @%d", mf.RelPath, c.Off)
	}
	return sum, err
}

// newHash is the digest a chunk write hashes through: SHA-256, or with
// checksumming off a no-op whose digest is empty.
func (e engine) newHash() hash.Hash {
	if e.checksum {
		return sha256.New()
	}
	return noHash{}
}

// noHash is the checksum-off digest: it absorbs writes and sums to "".
type noHash struct{}

func (noHash) Write(p []byte) (int, error) { return len(p), nil }
func (noHash) Sum(b []byte) []byte         { return b }
func (noHash) Reset()                      {}
func (noHash) Size() int                   { return 0 }
func (noHash) BlockSize() int              { return 1 }
