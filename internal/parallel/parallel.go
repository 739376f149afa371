// Package parallel provides the shared bounded worker pool behind every
// host-side data-parallel kernel in PIM-DL: CCS, LUT lookup, the fused
// LUT-NN forward, GEMM, and LUT-NN conversion, which fans per-codebook
// k-means and the LUT build out over codebooks (each k-means run nests
// its own assignment-step For, inline when the pool is busy).
//
// The package replaces the ad-hoc per-call goroutine flocks the kernels
// used to spawn. Its contract (relied on by the golden and determinism
// tests in lutnn and kmeans):
//
//   - Bounded concurrency: at most GOMAXPROCS(0) (sampled at first use)
//     goroutines ever exist pool-wide, shared by all callers. A For call
//     never blocks waiting for pool capacity — the calling goroutine
//     always executes chunks itself, and idle pool workers join in. No
//     goroutines are created per call and none leak: the pool is a fixed
//     set of workers parked on a channel.
//
//   - Deterministic chunking: the chunk grid over [0, n) is a pure
//     function of (n, work) — never of the worker count, GOMAXPROCS, or
//     scheduling. A kernel whose chunk function writes only to its
//     [lo, hi) output range and performs no cross-chunk accumulation
//     therefore produces bit-identical results at any parallelism level,
//     including the inline (work < threshold) path.
//
//   - Zero-allocation dispatch: ForCtx with a top-level function and a
//     pooled context pointer performs no heap allocation in steady state;
//     job descriptors are recycled through a sync.Pool.
//
// Panics inside a chunk function propagate exactly like panics inside the
// previous ad-hoc goroutines did: they crash the process. Kernels treat
// shape violations as programmer errors and check them before fanning out.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// threshold is the approximate scalar-op count below which For runs
// inline: scheduling a chunk costs on the order of a microsecond, so
// small kernels stay single-threaded (same constant the tensor package
// used for MatMul).
const threshold = 1 << 18

// maxChunks bounds the chunk grid. More chunks give better load balance
// (idle workers steal from the shared counter); the cap keeps per-chunk
// dispatch overhead negligible. It is a constant — not derived from the
// worker count — so the grid is identical at any GOMAXPROCS.
const maxChunks = 64

var (
	poolOnce sync.Once
	poolSize int
	jobCh    chan *job
)

// job is one For invocation's shared dispatch state. Workers and the
// caller pull chunk indices from next until the grid is exhausted.
type job struct {
	fn        func(ctx any, lo, hi int)
	ctx       any
	next      atomic.Int64
	chunks    int
	chunkSize int
	n         int
	wg        sync.WaitGroup
}

var jobPool = sync.Pool{New: func() any { return new(job) }}

func initPool() {
	poolSize = runtime.GOMAXPROCS(0)
	if poolSize < 1 {
		poolSize = 1
	}
	jobCh = make(chan *job)
	poolMetrics.workers.Set(float64(poolSize))
	for i := 0; i < poolSize; i++ {
		go worker()
	}
}

//pimdl:hotpath
func worker() {
	for j := range jobCh {
		workerEnter()
		j.run()
		workerExit()
		j.wg.Done()
	}
}

//pimdl:hotpath
func (j *job) run() {
	chunks := int64(j.chunks)
	for {
		c := j.next.Add(1) - 1
		if c >= chunks {
			return
		}
		lo := int(c) * j.chunkSize
		hi := lo + j.chunkSize
		if hi > j.n {
			hi = j.n
		}
		j.fn(j.ctx, lo, hi)
	}
}

// Workers returns the pool size (GOMAXPROCS at first use).
func Workers() int {
	poolOnce.Do(initPool)
	return poolSize
}

// numChunks returns the deterministic chunk count for an n-element range
// with the given approximate op count. It depends only on (n, work).
//
//pimdl:hotpath
func numChunks(n, work int) int {
	if work < threshold || n < 2 {
		return 1
	}
	// One chunk per threshold's worth of work, capped; never more chunks
	// than elements.
	c := work / threshold
	if c > maxChunks {
		c = maxChunks
	}
	if c > n {
		c = n
	}
	if c < 1 {
		c = 1
	}
	return c
}

// For runs f over [0, n) split into deterministic chunks, executing
// chunks on the calling goroutine and any idle pool workers. work is the
// approximate scalar-op count of the whole range; below the parallel
// threshold f runs inline as f(0, n).
//
// f must treat [lo, hi) as its exclusive output range: chunk functions
// that write only to their range need no synchronisation and produce
// results independent of the worker count.
//
// The closure passed here escapes to the heap; allocation-free callers
// use ForCtx with a top-level function instead.
func For(n, work int, f func(lo, hi int)) {
	ForCtx(n, work, f, forAdapter)
}

func forAdapter(ctx any, lo, hi int) { ctx.(func(lo, hi int))(lo, hi) }

// ForCtx is For with an explicit context value: fn receives ctx verbatim
// along with its chunk range. When fn is a top-level function and ctx a
// pointer (e.g. from a sync.Pool), a ForCtx call performs zero heap
// allocations in steady state — this is the dispatch form the
// zero-allocation kernels (SearchInto, LookupInto, ForwardInto) use.
//
//pimdl:hotpath
func ForCtx(n, work int, ctx any, fn func(ctx any, lo, hi int)) {
	if n <= 0 {
		return
	}
	chunks := numChunks(n, work)
	if chunks <= 1 || runtime.GOMAXPROCS(0) <= 1 {
		recordInline()
		fn(ctx, 0, n)
		return
	}
	poolOnce.Do(initPool)

	j := jobPool.Get().(*job)
	j.fn = fn
	j.ctx = ctx
	j.next.Store(0)
	j.chunks = chunks
	j.chunkSize = (n + chunks - 1) / chunks
	j.n = n

	// Offer the job to idle workers only: an unbuffered send with a
	// default branch succeeds exactly when a worker is parked on the
	// channel, so a saturated pool degrades to inline execution instead
	// of queueing (and nested For calls cannot deadlock).
	helpers := chunks - 1
	if helpers > poolSize {
		helpers = poolSize
	}
	engaged, saturated := 0, false
	for i := 0; i < helpers; i++ {
		j.wg.Add(1)
		select {
		case jobCh <- j:
			engaged++
		default:
			j.wg.Done()
			saturated = true
			i = helpers // stop offering; no worker is idle
		}
	}
	recordDispatch(chunks, engaged, saturated)
	j.run()
	j.wg.Wait()

	j.fn = nil
	j.ctx = nil
	jobPool.Put(j)
}
