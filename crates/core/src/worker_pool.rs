//! A persistent fork-join worker pool.
//!
//! The cluster tier advances the hosts of a fleet in lockstep epochs and
//! shards them over a [`WorkerPool`]; each host itself runs serially.

/// A job dispatched to a pool worker (lifetime-erased borrowed closure).
type Job = Box<dyn FnOnce() + Send + 'static>;

/// A minimal persistent fork-join pool.
///
/// `std::thread::scope` spawns OS threads on every call; at one scope per
/// epoch, thread-creation latency would swamp short epochs.  This pool
/// keeps its workers alive across calls: [`WorkerPool::run_with_local`]
/// dispatches one borrowed closure per worker and blocks until all of them
/// finish — the same fork-join contract as a scope, without the per-call
/// spawns.
pub struct WorkerPool {
    handles: Vec<std::thread::JoinHandle<()>>,
    job_txs: Vec<std::sync::mpsc::Sender<Job>>,
    done_rx: std::sync::mpsc::Receiver<bool>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.handles.len())
            .finish()
    }
}

impl WorkerPool {
    /// Spawns `workers` long-lived threads.
    #[must_use]
    pub fn new(workers: usize) -> Self {
        let (done_tx, done_rx) = std::sync::mpsc::channel::<bool>();
        let mut handles = Vec::with_capacity(workers);
        let mut job_txs = Vec::with_capacity(workers);
        for _ in 0..workers {
            let (job_tx, job_rx) = std::sync::mpsc::channel::<Job>();
            let done = done_tx.clone();
            handles.push(std::thread::spawn(move || {
                for job in job_rx.iter() {
                    let panicked =
                        std::panic::catch_unwind(std::panic::AssertUnwindSafe(job)).is_err();
                    // The pool owner may already be gone on shutdown races;
                    // a failed send is fine then.
                    let _ = done.send(panicked);
                }
            }));
            job_txs.push(job_tx);
        }
        Self {
            handles,
            job_txs,
            done_rx,
        }
    }

    /// Number of pool workers.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.handles.len()
    }

    /// Runs the borrowed jobs — one per pool worker, in order — plus
    /// `local` on the calling thread, and blocks until every job
    /// completed.  Panics (after all jobs drained) if any job panicked.
    ///
    /// Jobs may borrow caller stack data: this function does not return
    /// until every job has run to completion, so the borrows outlive their
    /// use (the `std::thread::scope` guarantee, amortized across calls).
    ///
    /// # Panics
    ///
    /// Panics if more jobs than workers are submitted, or if any job
    /// panicked (after all jobs drained).
    pub fn run_with_local<'env>(
        &self,
        jobs: Vec<Box<dyn FnOnce() + Send + 'env>>,
        local: impl FnOnce(),
    ) {
        /// Blocks until every dispatched job has signalled completion —
        /// **also on unwind**.  The lifetime-erased jobs borrow the
        /// caller's stack, so returning (or unwinding past) this frame
        /// while a worker still runs one would be a use-after-free; the
        /// guard's `Drop` drains the completion channel first.
        struct DrainGuard<'a> {
            rx: &'a std::sync::mpsc::Receiver<bool>,
            remaining: usize,
        }
        impl Drop for DrainGuard<'_> {
            fn drop(&mut self) {
                while self.remaining > 0 {
                    // `Err` means every worker thread is gone (so no job
                    // can still hold a borrow) — safe to stop draining.
                    if self.rx.recv().is_err() {
                        break;
                    }
                    self.remaining -= 1;
                }
            }
        }

        assert!(jobs.len() <= self.workers(), "one job per worker");
        let mut guard = DrainGuard {
            rx: &self.done_rx,
            remaining: 0,
        };
        for (tx, job) in self.job_txs.iter().zip(jobs) {
            // SAFETY: `Job` erases the closure's `'env` lifetime to
            // `'static`.  The borrows inside stay valid because this
            // function — via the normal drain below or `DrainGuard` on any
            // unwind — blocks until every dispatched job has finished
            // executing; a worker can never touch the closure after this
            // frame is gone.
            let job: Job =
                unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Job>(job) };
            tx.send(job).expect("pool worker thread is alive");
            guard.remaining += 1;
        }
        local();
        let mut panicked = false;
        while guard.remaining > 0 {
            panicked |= guard
                .rx
                .recv()
                .expect("pool worker signals every job completion");
            guard.remaining -= 1;
        }
        assert!(!panicked, "a pool worker panicked");
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Closing the job channels ends the worker loops.
        self.job_txs.clear();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}
