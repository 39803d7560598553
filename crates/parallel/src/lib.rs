//! A scoped, work-chunking thread pool built directly on [`std::thread`].
//!
//! The CND-IDS workspace has no crates.io access, so the usual answer
//! (rayon) is unavailable; this crate is the from-scratch substitute the
//! hot numeric kernels (`cnd-linalg` matmul/transpose, PCA scoring,
//! k-means assignment, batched network forward passes) fan out onto.
//!
//! # Architecture
//!
//! * A [`ThreadPool`] owns `threads - 1` persistent worker threads fed
//!   from one mutex-protected injector queue; the thread that opens a
//!   [`scope`](ThreadPool::scope) participates in executing jobs while it
//!   waits, so a pool of size `T` gives exactly `T` compute threads and
//!   `ThreadPool::new(1)` spawns no threads at all (fully inline).
//! * Jobs spawned from inside a worker run **inline** on that worker.
//!   This makes nested parallelism (a parallel batched forward pass whose
//!   per-chunk matmuls would themselves like to fan out) deadlock-free by
//!   construction and avoids oversubscription.
//! * Pool size comes from the builder, falling back to the `CND_THREADS`
//!   environment variable, falling back to
//!   [`std::thread::available_parallelism`].
//!
//! # Determinism guarantee
//!
//! In deterministic mode (the default) every primitive produces results
//! **bit-identical to the serial computation, for every pool size**:
//!
//! * [`par_chunks`](ThreadPool::par_chunks) /
//!   [`par_chunks_mut`](ThreadPool::par_chunks_mut) /
//!   [`par_map_rows`](ThreadPool::par_map_rows) assign fixed, caller-stated
//!   chunk boundaries and collect results in chunk order — parallelism only
//!   changes *which thread* computes a chunk, never what is computed.
//! * [`par_row_blocks`](ThreadPool::par_row_blocks) gives each thread one
//!   contiguous row block, so its split *does* follow the pool size; it
//!   is for per-row kernels (inference, scoring), whose rows never read
//!   each other, so any split computes the same bits.
//! * [`par_reduce`](ThreadPool::par_reduce) combines per-chunk partials
//!   with an **ordered tree reduction** whose shape depends only on the
//!   chunk count, so floating-point accumulation order is a pure function
//!   of `(len, chunk)`.
//!
//! With `deterministic(false)` the helpers may coarsen chunk boundaries
//! based on the pool size for better load balancing; row-independent maps
//! are still exact, but reductions may then differ across pool sizes by
//! floating-point reassociation.
//!
//! # Example
//!
//! ```
//! use cnd_parallel::ThreadPool;
//!
//! let pool = ThreadPool::new(4);
//! let squares = pool.par_chunks(10, 3, |r| r.map(|i| i * i).sum::<usize>());
//! assert_eq!(squares.iter().sum::<usize>(), 285);
//! let total = pool
//!     .par_reduce(10, 3, |r| r.map(|i| i as f64).sum::<f64>(), |a, b| a + b)
//!     .unwrap_or(0.0);
//! assert_eq!(total, 45.0);
//! ```

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::{self, JoinHandle};

/// Rows below which [`ThreadPool::par_row_blocks`] keeps a batch on the
/// calling thread. The server's batches (at most 64 rows by default)
/// stay under it and never wait on a pool worker.
const ROW_BLOCK_MIN_ROWS: usize = 128;

/// Rows [`ThreadPool::par_row_blocks`] hands its callback at a time
/// inside a block. A tile of the CND-IDS scoring path (58 inputs, two
/// 116-wide layer buffers) needs about 600 KiB of scratch, which stays
/// in L2 and bounds each thread's scratch whatever the batch size.
const ROW_TILE: usize = 256;

/// A queued unit of work, lifetime-erased by [`Scope::spawn`].
type Job = Box<dyn FnOnce() + Send + 'static>;

thread_local! {
    /// Set while the current thread is executing pool jobs — either as a
    /// persistent worker or as a scope owner helping drain the queue.
    /// Nested parallel calls check this and run inline.
    static IN_POOL: Cell<bool> = const { Cell::new(false) };
    /// Stack of [`ThreadPool::install`] overrides consulted by
    /// [`current`].
    static INSTALLED: RefCell<Vec<ThreadPool>> = const { RefCell::new(Vec::new()) };
}

fn in_pool() -> bool {
    IN_POOL.with(Cell::get)
}

/// Shared injector state between the pool handle and its workers.
struct Shared {
    state: Mutex<QueueState>,
    work_available: Condvar,
}

struct QueueState {
    jobs: VecDeque<Job>,
    shutdown: bool,
}

impl Shared {
    fn push(&self, job: Job) {
        self.state
            .lock()
            .expect("pool queue poisoned")
            .jobs
            .push_back(job);
        self.work_available.notify_one();
    }

    fn try_pop(&self) -> Option<Job> {
        self.state
            .lock()
            .expect("pool queue poisoned")
            .jobs
            .pop_front()
    }
}

/// Owns the worker handles; dropping the last pool handle shuts the
/// workers down and joins them.
struct PoolCore {
    shared: Arc<Shared>,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

impl Drop for PoolCore {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().expect("pool queue poisoned");
            st.shutdown = true;
        }
        self.shared.work_available.notify_all();
        for h in self
            .handles
            .lock()
            .expect("pool handles poisoned")
            .drain(..)
        {
            let _ = h.join();
        }
    }
}

/// Completion latch for one scope: counts outstanding jobs and records
/// whether any of them panicked.
struct Latch {
    pending: Mutex<usize>,
    done: Condvar,
    panicked: AtomicBool,
}

impl Latch {
    fn new() -> Self {
        Latch {
            pending: Mutex::new(0),
            done: Condvar::new(),
            panicked: AtomicBool::new(false),
        }
    }

    fn add(&self) {
        *self.pending.lock().expect("latch poisoned") += 1;
    }

    fn complete(&self, panicked: bool) {
        if panicked {
            self.panicked.store(true, Ordering::SeqCst);
        }
        let mut p = self.pending.lock().expect("latch poisoned");
        *p -= 1;
        if *p == 0 {
            self.done.notify_all();
        }
    }

    fn is_clear(&self) -> bool {
        *self.pending.lock().expect("latch poisoned") == 0
    }
}

/// Configures and builds a [`ThreadPool`].
#[derive(Debug, Clone, Default)]
pub struct ThreadPoolBuilder {
    threads: Option<usize>,
    deterministic: Option<bool>,
}

impl ThreadPoolBuilder {
    /// Starts from the environment defaults.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fixes the pool size (compute threads, including the scope owner).
    /// `0` restores the automatic choice.
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = if n == 0 { None } else { Some(n) };
        self
    }

    /// Enables or disables deterministic chunking (default: enabled).
    pub fn deterministic(mut self, on: bool) -> Self {
        self.deterministic = Some(on);
        self
    }

    /// Builds the pool, spawning `threads - 1` workers.
    pub fn build(self) -> ThreadPool {
        let threads = self.threads.unwrap_or_else(threads_from_env).max(1);
        let deterministic = self.deterministic.unwrap_or(true);
        let shared = Arc::new(Shared {
            state: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                shutdown: false,
            }),
            work_available: Condvar::new(),
        });
        let mut handles = Vec::with_capacity(threads.saturating_sub(1));
        for w in 1..threads {
            let shared = Arc::clone(&shared);
            let handle = thread::Builder::new()
                .name(format!("cnd-pool-{w}"))
                .spawn(move || worker_loop(shared))
                .expect("failed to spawn pool worker");
            handles.push(handle);
        }
        cnd_obs::gauge_set_volatile("pool.threads.value", threads as f64);
        ThreadPool {
            shared: Arc::clone(&shared),
            threads,
            deterministic,
            _core: Arc::new(PoolCore {
                shared,
                handles: Mutex::new(handles),
            }),
        }
    }
}

/// Pool size from `CND_THREADS`, else the machine's available parallelism.
fn threads_from_env() -> usize {
    if let Ok(v) = std::env::var("CND_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    thread::available_parallelism().map_or(1, |n| n.get())
}

fn worker_loop(shared: Arc<Shared>) {
    IN_POOL.with(|f| f.set(true));
    loop {
        let job = {
            let mut st = shared.state.lock().expect("pool queue poisoned");
            loop {
                if let Some(j) = st.jobs.pop_front() {
                    break Some(j);
                }
                if st.shutdown {
                    break None;
                }
                st = shared.work_available.wait(st).expect("pool queue poisoned");
            }
        };
        match job {
            Some(j) => {
                // Volatile: which thread runs a job is scheduling luck.
                cnd_obs::counter_add_volatile("pool.jobs.worker.count", 1);
                j()
            }
            None => return,
        }
    }
}

/// A handle to a pool of worker threads. Cheap to clone; the workers shut
/// down when the last handle is dropped.
#[derive(Clone)]
pub struct ThreadPool {
    shared: Arc<Shared>,
    threads: usize,
    deterministic: bool,
    _core: Arc<PoolCore>,
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("threads", &self.threads)
            .field("deterministic", &self.deterministic)
            .finish()
    }
}

/// The lazily-created process-wide pool used by [`current`].
static GLOBAL: OnceLock<ThreadPool> = OnceLock::new();

/// The process-wide pool, created on first use from `CND_THREADS` /
/// available parallelism.
pub fn global() -> &'static ThreadPool {
    GLOBAL.get_or_init(|| ThreadPoolBuilder::new().build())
}

/// The pool the current thread should fan work out onto: the innermost
/// [`ThreadPool::install`] override if one is active, otherwise the
/// [`global`] pool.
pub fn current() -> ThreadPool {
    INSTALLED
        .with(|s| s.borrow().last().cloned())
        .unwrap_or_else(|| global().clone())
}

/// Pops the install stack even if the installed closure panics.
struct InstallGuard;

impl Drop for InstallGuard {
    fn drop(&mut self) {
        INSTALLED.with(|s| {
            s.borrow_mut().pop();
        });
    }
}

impl ThreadPool {
    /// A pool with exactly `threads` compute threads (`1` = fully serial,
    /// no threads spawned).
    pub fn new(threads: usize) -> Self {
        ThreadPoolBuilder::new().threads(threads).build()
    }

    /// Starts a builder.
    pub fn builder() -> ThreadPoolBuilder {
        ThreadPoolBuilder::new()
    }

    /// Number of compute threads (scope owner included).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// How many pieces to cut independent work into: one per thread, or
    /// 1 on a serial pool and inside a pool job, where nested work runs
    /// inline. Callers that hand each piece to [`scope`](Self::scope)
    /// run a single piece on the calling thread instead.
    pub fn split_count(&self) -> usize {
        if in_pool() {
            1
        } else {
            self.threads.max(1)
        }
    }

    /// Whether deterministic chunking is active.
    pub fn is_deterministic(&self) -> bool {
        self.deterministic
    }

    /// Makes this pool the [`current`] pool for the duration of `f` on
    /// this thread (nestable, panic-safe).
    pub fn install<R>(&self, f: impl FnOnce() -> R) -> R {
        INSTALLED.with(|s| s.borrow_mut().push(self.clone()));
        let _guard = InstallGuard;
        f()
    }

    /// Runs `f` with a [`Scope`] on which borrowed-data jobs can be
    /// spawned; returns only after every spawned job has finished.
    ///
    /// # Panics
    ///
    /// Re-panics on the calling thread if any spawned job panicked.
    pub fn scope<'pool, 'scope, F, R>(&'pool self, f: F) -> R
    where
        F: FnOnce(&Scope<'pool, 'scope>) -> R,
    {
        let scope = Scope {
            pool: self,
            latch: Arc::new(Latch::new()),
            _marker: PhantomData,
        };
        let result = {
            // The guard waits for outstanding jobs even if `f` panics,
            // so borrows held by queued jobs can never dangle.
            let _wait = ScopeWaitGuard {
                pool: self,
                latch: &scope.latch,
            };
            f(&scope)
        };
        if scope.latch.panicked.load(Ordering::SeqCst) {
            panic!("cnd-parallel: a job spawned in this scope panicked");
        }
        result
    }

    /// Executes queued jobs while waiting for `latch` to clear — the
    /// scope owner is a full compute participant.
    fn wait_latch(&self, latch: &Latch) {
        loop {
            if latch.is_clear() {
                return;
            }
            match self.shared.try_pop() {
                Some(job) => {
                    // Volatile: the owner "steals" whatever the workers
                    // have not dequeued yet.
                    cnd_obs::counter_add_volatile("pool.jobs.owner_stolen.count", 1);
                    let was = IN_POOL.with(|f| f.replace(true));
                    job();
                    IN_POOL.with(|f| f.set(was));
                }
                None => {
                    // Queue drained: every outstanding job is running on
                    // a worker; block until the last one completes.
                    let mut pending = latch.pending.lock().expect("latch poisoned");
                    while *pending != 0 {
                        pending = latch.done.wait(pending).expect("latch poisoned");
                    }
                    return;
                }
            }
        }
    }

    /// Chunk length used by the helpers: fixed at `min_chunk` in
    /// deterministic mode (boundaries independent of pool size), coarsened
    /// towards `len / (2 × threads)` otherwise.
    pub fn chunk_len(&self, len: usize, min_chunk: usize) -> usize {
        let min_chunk = min_chunk.max(1);
        if self.deterministic {
            min_chunk
        } else {
            min_chunk.max(len.div_ceil((self.threads * 2).max(1)))
        }
    }

    /// Splits `0..len` into fixed chunks of `chunk_len(len, min_chunk)`
    /// and maps each chunk with `f`, returning results **in chunk order**.
    ///
    /// `f` runs on pool threads for chunked work and inline for small or
    /// serial cases; either way the output is identical.
    pub fn par_chunks<R, F>(&self, len: usize, min_chunk: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(Range<usize>) -> R + Sync,
    {
        let chunk = self.chunk_len(len, min_chunk);
        let n_chunks = len.div_ceil(chunk);
        let mut out: Vec<Option<R>> = Vec::with_capacity(n_chunks);
        out.resize_with(n_chunks, || None);
        let run = |c: usize| {
            let lo = c * chunk;
            f(lo..(lo + chunk).min(len))
        };
        if n_chunks <= 1 || self.threads <= 1 || in_pool() {
            for (c, slot) in out.iter_mut().enumerate() {
                *slot = Some(run(c));
            }
        } else {
            self.scope(|s| {
                for (c, slot) in out.iter_mut().enumerate() {
                    let run = &run;
                    s.spawn(move || *slot = Some(run(c)));
                }
            });
        }
        out.into_iter()
            .map(|r| r.expect("pool: chunk result missing"))
            .collect()
    }

    /// Splits `data` into consecutive chunks of at most `chunk` elements
    /// and calls `f(offset, chunk_slice)` on each, in parallel. Chunks are
    /// disjoint, so no synchronization is needed inside `f`.
    pub fn par_chunks_mut<T, F>(&self, data: &mut [T], chunk: usize, f: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        let chunk = chunk.max(1);
        if data.len() <= chunk || self.threads <= 1 || in_pool() {
            for (c, piece) in data.chunks_mut(chunk).enumerate() {
                f(c * chunk, piece);
            }
        } else {
            self.scope(|s| {
                for (c, piece) in data.chunks_mut(chunk).enumerate() {
                    let f = &f;
                    s.spawn(move || f(c * chunk, piece));
                }
            });
        }
    }

    /// Row-blocked variant of [`par_chunks_mut`](Self::par_chunks_mut) for
    /// a row-major `rows × cols` buffer: calls `f(first_row, row_block)`
    /// on blocks of at least `min_rows` rows.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn par_map_rows<T, F>(
        &self,
        data: &mut [T],
        rows: usize,
        cols: usize,
        min_rows: usize,
        f: F,
    ) where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        assert_eq!(
            data.len(),
            rows * cols,
            "par_map_rows: buffer is not rows x cols"
        );
        if cols == 0 || rows == 0 {
            return;
        }
        let block_rows = self.chunk_len(rows, min_rows);
        self.par_chunks_mut(data, block_rows * cols, |off, block| f(off / cols, block));
    }

    /// Splits a row-major buffer of `rows` rows into **one contiguous row
    /// block per pool thread**. Each block walks its rows in tiles of at
    /// most 256 rows (`ROW_TILE`), calling `f(row_range, tile, scratch)` with
    /// `tile` those rows' slice of `data` and one `scratch` value per
    /// block, reused by every tile of that block.
    ///
    /// Batches under 128 rows (`ROW_BLOCK_MIN_ROWS`), a serial pool, and a
    /// call from inside a pool job run as one block on the calling
    /// thread. The split depends on the pool size, so `f` must compute
    /// every row independently of which rows share its tile; that is
    /// what makes per-row kernels (inference, scoring) bit-identical at
    /// every pool size.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` is not a multiple of `rows`.
    pub fn par_row_blocks<T, S, F>(&self, data: &mut [T], rows: usize, f: F)
    where
        T: Send,
        S: Default,
        F: Fn(Range<usize>, &mut [T], &mut S) + Sync,
    {
        if rows == 0 {
            return;
        }
        let cols = data.len() / rows;
        assert_eq!(
            data.len(),
            rows * cols,
            "par_row_blocks: buffer is not a whole number of rows"
        );
        let block = |r: Range<usize>, data: &mut [T]| {
            let mut scratch = S::default();
            for_each_row_range(data, r, cols, ROW_TILE, |r, tile| f(r, tile, &mut scratch));
        };
        if rows < ROW_BLOCK_MIN_ROWS || self.threads <= 1 || in_pool() {
            block(0..rows, data);
            return;
        }
        self.scope(|s| {
            let block = &block;
            for_each_row_range(
                data,
                0..rows,
                cols,
                rows.div_ceil(self.threads),
                |r, data| {
                    s.spawn(move || block(r, data));
                },
            );
        });
    }

    /// Maps fixed chunks of `0..len` with `map` and combines the partials
    /// with an **ordered tree reduction**: partials pair up left-to-right,
    /// level by level, so the combination order depends only on the chunk
    /// count — never on thread scheduling. Returns `None` when `len == 0`.
    pub fn par_reduce<R, M, C>(&self, len: usize, min_chunk: usize, map: M, combine: C) -> Option<R>
    where
        R: Send,
        M: Fn(Range<usize>) -> R + Sync,
        C: Fn(R, R) -> R,
    {
        tree_reduce(self.par_chunks(len, min_chunk, map), combine)
    }
}

/// Cuts `data`, the row-major buffer of `rows`, into runs of at most
/// `step` rows and calls `f(row_range, run)` on each in order.
fn for_each_row_range<'a, T>(
    data: &'a mut [T],
    rows: Range<usize>,
    cols: usize,
    step: usize,
    mut f: impl FnMut(Range<usize>, &'a mut [T]),
) {
    let mut rest = data;
    for start in rows.clone().step_by(step) {
        let end = (start + step).min(rows.end);
        let (run, tail) = std::mem::take(&mut rest).split_at_mut((end - start) * cols);
        rest = tail;
        f(start..end, run);
    }
}

/// Ordered pairwise tree reduction: `((p0 ⊕ p1) ⊕ (p2 ⊕ p3)) ⊕ …` with a
/// shape fixed by `partials.len()` alone.
pub fn tree_reduce<R>(mut partials: Vec<R>, combine: impl Fn(R, R) -> R) -> Option<R> {
    if partials.is_empty() {
        return None;
    }
    while partials.len() > 1 {
        let mut next = Vec::with_capacity(partials.len().div_ceil(2));
        let mut it = partials.into_iter();
        while let Some(a) = it.next() {
            match it.next() {
                Some(b) => next.push(combine(a, b)),
                None => next.push(a),
            }
        }
        partials = next;
    }
    partials.pop()
}

/// Spawn surface handed to the closure of [`ThreadPool::scope`]. Jobs may
/// borrow anything that outlives the scope call.
pub struct Scope<'pool, 'scope> {
    pool: &'pool ThreadPool,
    latch: Arc<Latch>,
    _marker: PhantomData<&'scope mut &'scope ()>,
}

impl<'scope> Scope<'_, 'scope> {
    /// Queues `f` onto the pool. On a serial pool (or when called from a
    /// pool thread — nested parallelism) the job runs inline instead.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'scope,
    {
        if self.pool.threads <= 1 || in_pool() {
            cnd_obs::counter_add_volatile("pool.jobs.inline.count", 1);
            if catch_unwind(AssertUnwindSafe(f)).is_err() {
                self.latch.panicked.store(true, Ordering::SeqCst);
            }
            return;
        }
        cnd_obs::counter_add_volatile("pool.jobs.queued.count", 1);
        self.latch.add();
        let latch = Arc::clone(&self.latch);
        let job: Box<dyn FnOnce() + Send + 'scope> = Box::new(f);
        // SAFETY: the fat-pointer layout of `Box<dyn FnOnce>` does not
        // depend on the lifetime bound, and `ThreadPool::scope` blocks
        // (via `ScopeWaitGuard`, even on panic) until this latch clears,
        // so every borrow captured by the job outlives its execution.
        let job: Job =
            unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'scope>, Job>(job) };
        self.pool.shared.push(Box::new(move || {
            let panicked = catch_unwind(AssertUnwindSafe(job)).is_err();
            latch.complete(panicked);
        }));
    }
}

/// Blocks on the scope's latch when dropped — the lifetime-soundness
/// anchor of [`Scope::spawn`].
struct ScopeWaitGuard<'a> {
    pool: &'a ThreadPool,
    latch: &'a Latch,
}

impl Drop for ScopeWaitGuard<'_> {
    fn drop(&mut self) {
        self.pool.wait_latch(self.latch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn serial_pool_spawns_no_threads_and_runs_inline() {
        let pool = ThreadPool::new(1);
        assert_eq!(pool.threads(), 1);
        let hits = AtomicUsize::new(0);
        pool.scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    hits.fetch_add(1, Ordering::SeqCst);
                });
            }
        });
        assert_eq!(hits.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn scope_waits_for_all_jobs() {
        let pool = ThreadPool::new(4);
        let hits = AtomicUsize::new(0);
        pool.scope(|s| {
            for _ in 0..64 {
                s.spawn(|| {
                    hits.fetch_add(1, Ordering::SeqCst);
                });
            }
        });
        assert_eq!(hits.load(Ordering::SeqCst), 64);
    }

    #[test]
    fn par_chunks_returns_ordered_results() {
        for threads in [1, 2, 4, 7] {
            let pool = ThreadPool::new(threads);
            let got = pool.par_chunks(10, 3, |r| (r.start, r.end));
            assert_eq!(got, vec![(0, 3), (3, 6), (6, 9), (9, 10)], "t={threads}");
        }
    }

    #[test]
    fn par_row_blocks_gives_each_thread_one_block_walked_in_tiles() {
        /// Scratch that remembers where its block's previous tile ended.
        #[derive(Default)]
        struct Cursor(Option<usize>);
        for threads in [1, 2, 3, 4, 7] {
            let pool = ThreadPool::new(threads);
            for rows in [0, 1, 127, 128, 129, 1000, 2 * ROW_TILE + 1] {
                let mut data = vec![usize::MAX; rows * 2];
                let tiles = Mutex::new(Vec::new());
                pool.par_row_blocks(&mut data, rows, |r, tile, cursor: &mut Cursor| {
                    assert!(r.len() <= ROW_TILE && !r.is_empty());
                    assert_eq!(tile.len(), r.len() * 2);
                    for (i, row) in tile.chunks_mut(2).enumerate() {
                        row.fill(r.start + i);
                    }
                    // A fresh scratch value marks the start of a block.
                    let block_start = cursor.0.is_none();
                    if let Some(end) = cursor.0 {
                        assert_eq!(end, r.start, "a block's tiles are contiguous");
                    }
                    cursor.0 = Some(r.end);
                    tiles.lock().unwrap().push((r, block_start));
                });
                let mut tiles = tiles.into_inner().unwrap();
                tiles.sort_by_key(|(r, _)| r.start);
                let blocks = tiles.iter().filter(|(_, first)| *first).count();
                let want = if rows < ROW_BLOCK_MIN_ROWS {
                    1
                } else {
                    threads
                };
                assert_eq!(blocks, want.min(rows), "t={threads} rows={rows}");
                let covered: Vec<usize> = tiles.iter().flat_map(|(r, _)| r.clone()).collect();
                assert_eq!(covered, (0..rows).collect::<Vec<_>>());
                let written: Vec<usize> = data.chunks(2).map(|row| row[0]).collect();
                assert_eq!(written, (0..rows).collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn par_chunks_empty_input() {
        let pool = ThreadPool::new(4);
        let got: Vec<usize> = pool.par_chunks(0, 8, |r| r.len());
        assert!(got.is_empty());
    }

    #[test]
    fn par_chunks_mut_writes_disjoint_blocks() {
        let pool = ThreadPool::new(4);
        let mut data = vec![0usize; 37];
        pool.par_chunks_mut(&mut data, 5, |off, block| {
            for (i, v) in block.iter_mut().enumerate() {
                *v = off + i;
            }
        });
        let expect: Vec<usize> = (0..37).collect();
        assert_eq!(data, expect);
    }

    #[test]
    fn par_map_rows_blocks_align_to_rows() {
        let pool = ThreadPool::new(3);
        let (rows, cols) = (11, 4);
        let mut data = vec![0usize; rows * cols];
        pool.par_map_rows(&mut data, rows, cols, 2, |first_row, block| {
            assert_eq!(block.len() % cols, 0);
            for (i, v) in block.iter_mut().enumerate() {
                *v = first_row * cols + i;
            }
        });
        let expect: Vec<usize> = (0..rows * cols).collect();
        assert_eq!(data, expect);
    }

    #[test]
    fn par_reduce_is_deterministic_across_pool_sizes() {
        // A reduction whose result depends on association order: with the
        // ordered tree this must be identical for every pool size.
        let reference = ThreadPool::new(1)
            .par_reduce(
                1000,
                64,
                |r| r.map(|i| (i as f64).sqrt()).sum::<f64>(),
                |a, b| a + b,
            )
            .unwrap();
        for threads in [2, 4, 7] {
            let got = ThreadPool::new(threads)
                .par_reduce(
                    1000,
                    64,
                    |r| r.map(|i| (i as f64).sqrt()).sum::<f64>(),
                    |a, b| a + b,
                )
                .unwrap();
            assert_eq!(got.to_bits(), reference.to_bits(), "t={threads}");
        }
    }

    #[test]
    fn tree_reduce_orders_left_to_right() {
        // String concat makes the association order observable.
        let parts = vec![
            "a".to_string(),
            "b".into(),
            "c".into(),
            "d".into(),
            "e".into(),
        ];
        let joined = tree_reduce(parts, |a, b| a + &b).unwrap();
        assert_eq!(joined, "abcde");
        assert_eq!(tree_reduce(Vec::<String>::new(), |a, _| a), None);
    }

    #[test]
    fn nested_scopes_run_inline_without_deadlock() {
        let pool = ThreadPool::new(2);
        let hits = AtomicUsize::new(0);
        pool.scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    // Nested fan-out from a pool thread must inline.
                    let inner = current();
                    let partial: usize = inner.par_chunks(16, 4, |r| r.len()).into_iter().sum();
                    hits.fetch_add(partial, Ordering::SeqCst);
                });
            }
        });
        assert_eq!(hits.load(Ordering::SeqCst), 8 * 16);
    }

    #[test]
    fn install_overrides_current() {
        let pool = ThreadPool::new(3);
        assert_eq!(pool.install(|| current().threads()), 3);
        let inner = ThreadPool::new(2);
        let nested = pool.install(|| inner.install(|| current().threads()));
        assert_eq!(nested, 2);
    }

    #[test]
    fn panicking_job_propagates_to_scope_caller() {
        for threads in [1, 4] {
            let pool = ThreadPool::new(threads);
            let result = catch_unwind(AssertUnwindSafe(|| {
                pool.scope(|s| {
                    s.spawn(|| panic!("job boom"));
                    s.spawn(|| {}); // healthy sibling still completes
                });
            }));
            assert!(result.is_err(), "threads={threads}");
            // The pool stays usable after a panic.
            let sum: usize = pool.par_chunks(8, 2, |r| r.len()).into_iter().sum();
            assert_eq!(sum, 8);
        }
    }

    #[test]
    fn builder_env_and_bounds() {
        assert_eq!(ThreadPool::builder().threads(7).build().threads(), 7);
        // threads(0) restores the automatic choice, which is >= 1.
        assert!(ThreadPool::builder().threads(0).build().threads() >= 1);
        let nd = ThreadPool::builder()
            .threads(4)
            .deterministic(false)
            .build();
        assert!(!nd.is_deterministic());
        // Non-deterministic chunking coarsens; deterministic stays fixed.
        assert_eq!(ThreadPool::new(4).chunk_len(1 << 20, 64), 64);
        assert!(nd.chunk_len(1 << 20, 64) > 64);
    }

    #[test]
    fn deterministic_chunk_boundaries_ignore_pool_size() {
        for threads in [1, 2, 4, 7] {
            let pool = ThreadPool::new(threads);
            assert_eq!(pool.chunk_len(100_000, 128), 128);
        }
    }

    #[test]
    fn pool_shuts_down_cleanly_on_drop() {
        for _ in 0..8 {
            let pool = ThreadPool::new(4);
            let sum: usize = pool.par_chunks(100, 9, |r| r.len()).into_iter().sum();
            assert_eq!(sum, 100);
            drop(pool); // joins workers; must not hang
        }
    }
}
