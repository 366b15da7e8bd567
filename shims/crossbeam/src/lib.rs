//! Offline shim for the two pieces of `crossbeam` the workspace uses: a
//! bounded MPMC [`channel`] (with [`channel::Select`]) for the serving
//! layer, and a persistent fork-join [`WorkerPool`] for the simulation
//! engine's intra-trial link sharding.
//!
//! `WorkerPool` is not a crossbeam API; it lives here because it is the
//! workspace's one piece of `unsafe` code (a lifetime-erased job pointer
//! and disjoint chunk slices), and keeping it in the shim leaves every
//! `crates/*` library `unsafe`-free.

pub mod channel;

use std::sync::atomic::{AtomicUsize, Ordering};

/// Shared `*mut T` base pointer for [`WorkerPool::run_chunks`]'s
/// chunk-claiming workers.
struct SendPtr<T>(*mut T);

// SAFETY: the one field is a base pointer from which workers derive
// `&mut [T]` chunks on other threads. Every chunk offset is claimed
// exactly once (atomic cursor), so the slices are pairwise disjoint, and
// handing a `&mut T` to another thread is sound because `T: Send`.
unsafe impl<T: Send> Send for SendPtr<T> {}
// SAFETY: as for `Send`: sharing `&SendPtr` only lets a thread derive
// its own disjoint chunk, never alias another's.
unsafe impl<T: Send> Sync for SendPtr<T> {}

/// Type-erased pointer to an in-flight fork-join job. Only dereferenced
/// by workers between job publication and the owning [`WorkerPool::run`]
/// observing `active == 0`, during which the caller keeps the closure
/// alive on its stack.
#[derive(Clone, Copy)]
struct JobPtr(*const (dyn Fn() + Sync));

unsafe impl Send for JobPtr {}

struct PoolState {
    /// Bumped once per published job; workers detect new work by epoch.
    epoch: u64,
    job: Option<JobPtr>,
    /// Workers still running the current job.
    active: usize,
    shutdown: bool,
}

struct PoolShared {
    state: std::sync::Mutex<PoolState>,
    work: std::sync::Condvar,
    done: std::sync::Condvar,
}

/// A persistent fork-join pool: `threads - 1` long-lived worker threads
/// plus the caller, sharing chunk-claiming regions
/// ([`WorkerPool::run_chunks`]) without respawning OS threads per region. A simulation run
/// enters a parallel region twice per iteration; scoped-thread spawning
/// there costs more than the sharded work saves, which is this pool's
/// whole reason to exist.
///
/// Dispatch is epoch-based: the private `run` method publishes a
/// type-erased
/// closure under the mutex, bumps the epoch, and wakes the workers; each
/// worker runs the closure once (the closure itself loops claiming
/// chunks) and decrements `active`. `run` participates on the calling
/// thread and only returns once every worker has finished, which is what
/// makes lending the workers a non-`'static` closure sound.
pub struct WorkerPool {
    shared: std::sync::Arc<PoolShared>,
    threads: usize,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl WorkerPool {
    /// Creates a pool that runs regions on `threads` threads total
    /// (saturated to at least one: the caller). `WorkerPool::new(1)`
    /// spawns nothing and runs every region serially on the caller.
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = std::sync::Arc::new(PoolShared {
            state: std::sync::Mutex::new(PoolState {
                epoch: 0,
                job: None,
                active: 0,
                shutdown: false,
            }),
            work: std::sync::Condvar::new(),
            done: std::sync::Condvar::new(),
        });
        let handles = (1..threads)
            .map(|_| {
                let sh = std::sync::Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&sh))
            })
            .collect();
        WorkerPool {
            shared,
            threads,
            handles,
        }
    }

    /// Total threads participating in a region (workers + caller).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `f` concurrently on every pool thread (caller included)
    /// and returns once all of them have finished their invocation.
    fn run(&self, f: &(dyn Fn() + Sync)) {
        if self.handles.is_empty() {
            f();
            return;
        }
        // SAFETY: erases the closure's lifetime. Workers only touch the
        // pointer while `active > 0`, and we block below until `active`
        // returns to zero, so the borrow outlives every use.
        let job = JobPtr(unsafe {
            std::mem::transmute::<&(dyn Fn() + Sync), *const (dyn Fn() + Sync)>(f)
        });
        {
            let mut st = self.shared.state.lock().unwrap();
            st.job = Some(job);
            st.active = self.handles.len();
            st.epoch += 1;
            self.shared.work.notify_all();
        }
        f();
        let mut st = self.shared.state.lock().unwrap();
        while st.active > 0 {
            st = self.shared.done.wait(st).unwrap();
        }
        st.job = None;
    }

    /// Fork-join over `data` on this pool's threads: workers claim
    /// contiguous chunks of at least `min_chunk` items off an atomic
    /// cursor (dynamic self-scheduling, so a slow chunk never idles the
    /// others) and call `f(start_index, chunk)` on each. Chunks partition
    /// `data` in order and are claimed exactly once, so `f` sees every
    /// element exactly once with its original index; which thread ran it
    /// is the only nondeterminism. With one thread, or when the data fits
    /// one chunk, this is `f(0, data)` on the caller.
    pub fn run_chunks<T, F>(&self, data: &mut [T], min_chunk: usize, f: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        let n = data.len();
        if n == 0 {
            return;
        }
        let chunk = min_chunk.max(n.div_ceil(self.threads * 4)).max(1);
        if self.handles.is_empty() || n <= chunk {
            f(0, data);
            return;
        }
        let cursor = AtomicUsize::new(0);
        let base = SendPtr(data.as_mut_ptr());
        let base = &base;
        self.run(&move || loop {
            let start = cursor.fetch_add(chunk, Ordering::Relaxed);
            if start >= n {
                break;
            }
            let len = chunk.min(n - start);
            // SAFETY: chunk offsets are claimed exactly once, so the
            // derived ranges are disjoint and in bounds; `data` stays
            // mutably borrowed until `run` returns.
            let part = unsafe { std::slice::from_raw_parts_mut(base.0.add(start), len) };
            f(start, part);
        });
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().unwrap();
            st.shutdown = true;
            self.shared.work.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(sh: &PoolShared) {
    let mut seen = 0u64;
    loop {
        let job = {
            let mut st = sh.state.lock().unwrap();
            loop {
                if st.shutdown {
                    return;
                }
                if st.epoch != seen {
                    seen = st.epoch;
                    break st.job.expect("published epoch carries a job");
                }
                st = sh.work.wait(st).unwrap();
            }
        };
        // SAFETY: `WorkerPool::run` keeps the closure alive until
        // `active` drops to zero, which happens only after this call.
        (unsafe { &*job.0 })();
        let mut st = sh.state.lock().unwrap();
        st.active -= 1;
        if st.active == 0 {
            sh.done.notify_one();
        }
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn worker_pool_runs_many_regions() {
        for threads in [1usize, 2, 3, 8] {
            let pool = super::WorkerPool::new(threads);
            assert_eq!(pool.threads(), threads.max(1));
            let mut data: Vec<u64> = vec![0; 257];
            // Many back-to-back regions on one pool: the epoch handshake
            // must not lose or double-run any worker.
            for round in 0..50u64 {
                pool.run_chunks(&mut data, 4, |start, chunk| {
                    for (off, x) in chunk.iter_mut().enumerate() {
                        *x += (start + off) as u64 + round;
                    }
                });
            }
            for (i, x) in data.iter().enumerate() {
                // sum over rounds of (i + round) = 50*i + 0+1+...+49
                assert_eq!(
                    *x,
                    50 * i as u64 + 49 * 50 / 2,
                    "threads {threads} index {i}"
                );
            }
        }
    }

    #[test]
    fn worker_pool_zero_threads_saturates() {
        let pool = super::WorkerPool::new(0);
        assert_eq!(pool.threads(), 1);
        let mut one = [1u8];
        pool.run_chunks(&mut one, 1, |_, c| c[0] = 2);
        assert_eq!(one[0], 2);
    }
}
