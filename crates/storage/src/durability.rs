//! The durability worker: `fdatasync` and unlink, off the writer's thread.
//!
//! A finished run is readable the moment its bytes are in the page cache;
//! what the device still owes is the `fdatasync`, and nothing a caller was
//! promised depends on it until they ask ([`drain`]).  So a durable finish
//! ([`crate::DynRunWriter::finish`]) hands the sync to one process-wide FIFO
//! worker and returns.
//!
//! A merge replaces its inputs with its output, and an input must never be
//! unlinked before the run replacing it is durable.  That rule is the queue
//! order: the unlinks ride in a [`Job`] queued *behind* the output's sync
//! ([`crate::DynRunFile::replace`]), and a job whose sync fails unlinks
//! nothing.  The worker keeps its first error; the next [`submit`] or
//! [`drain`] returns it, once.
//!
//! The queue is bounded, so a writer that outruns the device blocks in
//! [`submit`] instead of growing a backlog of open files.

use std::path::PathBuf;
use std::sync::mpsc;
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;

use crate::{Result, StorageError};

/// Jobs the queue holds before [`submit`] blocks the producer.  Each queued
/// job pins one open run file, so this also bounds the descriptors a
/// stalled device can hold up.
const QUEUE_CAPACITY: usize = 64;

/// One unit of deferred durability work: make a file durable, then — only
/// if that succeeded — unlink the files it replaces.
pub struct Job {
    sync: Box<dyn FnOnce() -> std::io::Result<()> + Send>,
    unlink: Vec<PathBuf>,
}

impl Job {
    /// A job that runs `sync` and, if it succeeds, unlinks `unlink`.  The
    /// error of a failing `sync` is what [`drain`] later reports, so it
    /// should name its file.
    pub fn new(
        sync: impl FnOnce() -> std::io::Result<()> + Send + 'static,
        unlink: Vec<PathBuf>,
    ) -> Job {
        Job {
            sync: Box::new(sync),
            unlink,
        }
    }

    fn run(self) -> std::io::Result<()> {
        (self.sync)()?;
        for path in self.unlink {
            match std::fs::remove_file(&path) {
                Ok(()) => {}
                // Already gone (the index's directory was removed first).
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => {
                    return Err(std::io::Error::new(
                        e.kind(),
                        format!("unlinking {}: {e}", path.display()),
                    ))
                }
            }
        }
        Ok(())
    }
}

/// A FIFO worker thread behind a bounded queue.  The process uses one
/// ([`submit`] / [`drain`]); unit tests make their own.
pub(crate) struct Worker {
    /// `None` only while dropping.  A producer blocked on a full queue
    /// holds the mutex, and the others queue up behind it — still
    /// back-pressure.
    queue: Mutex<Option<mpsc::SyncSender<Job>>>,
    first_error: Arc<Mutex<Option<std::io::Error>>>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Worker {
    pub(crate) fn spawn(capacity: usize) -> Worker {
        let (tx, rx) = mpsc::sync_channel::<Job>(capacity);
        let first_error = Arc::new(Mutex::new(None));
        let errors = Arc::clone(&first_error);
        let thread = std::thread::Builder::new()
            .name("coconut-durability".into())
            .spawn(move || {
                while let Ok(job) = rx.recv() {
                    if let Err(e) = job.run() {
                        errors.lock().get_or_insert(e);
                    }
                }
            })
            .expect("failed to spawn the durability worker");
        Worker {
            queue: Mutex::new(Some(tx)),
            first_error,
            thread: Some(thread),
        }
    }

    fn take_error(&self) -> Result<()> {
        match self.first_error.lock().take() {
            Some(e) => Err(StorageError::Io(e)),
            None => Ok(()),
        }
    }

    fn enqueue(&self, job: Job) {
        let queue = self.queue.lock();
        let sent = queue.as_ref().is_some_and(|tx| tx.send(job).is_ok());
        // The receiver lives as long as the worker thread, which exits only
        // when the sender is dropped.
        assert!(sent, "the durability worker is gone");
    }

    pub(crate) fn submit(&self, job: Job) -> Result<()> {
        // Taken before `job` is queued: the worker may run it before
        // `enqueue` returns, and its failure is for a later call to report.
        let earlier = self.take_error();
        self.enqueue(job);
        earlier
    }

    /// Returns once every job queued before the call has run.
    fn wait_idle(&self) {
        let (done_tx, done_rx) = mpsc::channel();
        self.enqueue(Job::new(
            move || {
                let _ = done_tx.send(());
                Ok(())
            },
            Vec::new(),
        ));
        done_rx
            .recv()
            .expect("the durability worker dropped a queued job");
    }

    pub(crate) fn drain(&self) -> Result<()> {
        self.wait_idle();
        self.take_error()
    }
}

impl Drop for Worker {
    fn drop(&mut self) {
        // Disconnect so the thread finishes the queue and exits, then join.
        *self.queue.lock() = None;
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// The process's worker.  It lives in a static, so it is never dropped or
/// joined; [`drain`] is what a shutdown path calls instead.
fn worker() -> &'static Worker {
    static WORKER: OnceLock<Worker> = OnceLock::new();
    WORKER.get_or_init(|| Worker::spawn(QUEUE_CAPACITY))
}

/// Queues `job` behind everything submitted so far, blocking while the
/// queue is full.  The job is queued whatever this returns: an `Err` is the
/// report (made once) that an *earlier* job failed.
pub fn submit(job: Job) -> Result<()> {
    worker().submit(job)
}

/// The durability barrier: returns once every job submitted before the call
/// has run, with the worker's first error since the last report, if any.
pub fn drain() -> Result<()> {
    worker().drain()
}

/// Like [`drain`] but leaves a stored error for the next [`submit`] or
/// [`drain`] to return — for `Drop` impls, which have nobody to return it to.
pub fn wait_idle() {
    worker().wait_idle()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tempdir::ScratchDir;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    fn touch(dir: &ScratchDir, name: &str) -> PathBuf {
        let path = dir.file(name);
        std::fs::write(&path, b"x").unwrap();
        path
    }

    #[test]
    fn jobs_run_in_order_and_unlink_after_a_successful_sync() {
        let dir = ScratchDir::new("dur-order").unwrap();
        let worker = Worker::spawn(4);
        let log = Arc::new(Mutex::new(Vec::new()));
        let inputs = vec![touch(&dir, "in-a"), touch(&dir, "in-b")];
        for i in 0..3 {
            let log = Arc::clone(&log);
            let seen = inputs.clone();
            let unlink = if i == 1 { inputs.clone() } else { Vec::new() };
            let job = Job::new(
                move || {
                    // Whatever a job unlinks is still there while it syncs.
                    let present = seen.iter().filter(|p| p.exists()).count();
                    log.lock().push((i, present));
                    Ok(())
                },
                unlink,
            );
            worker.submit(job).unwrap();
        }
        worker.drain().unwrap();
        assert_eq!(*log.lock(), vec![(0, 2), (1, 2), (2, 0)]);
    }

    #[test]
    fn a_failed_sync_keeps_its_inputs_and_is_reported_once() {
        let dir = ScratchDir::new("dur-fail").unwrap();
        let worker = Worker::spawn(4);
        let kept = touch(&dir, "kept");
        let removed = touch(&dir, "removed");
        let failing = Job::new(
            || Err(std::io::Error::other("out-0: injected fdatasync failure")),
            vec![kept.clone()],
        );
        worker.submit(failing).unwrap();
        // A second failure behind the first: only the first is kept.
        let second = Job::new(|| Err(std::io::Error::other("second failure")), Vec::new());
        worker.enqueue(second);
        // Later jobs still run, unlinks included.
        worker.enqueue(Job::new(|| Ok(()), vec![removed.clone()]));

        let err = worker.drain().unwrap_err();
        let text = err.to_string();
        assert!(matches!(err, StorageError::Io(_)));
        assert!(
            text.contains("out-0") && text.contains("injected"),
            "{text}"
        );
        assert!(kept.exists(), "a failed sync must not unlink its inputs");
        assert!(!removed.exists(), "jobs behind a failure still run");
        worker.drain().expect("the error is returned once");
    }

    #[test]
    fn the_next_submit_reports_a_stored_error_and_still_queues_its_job() {
        let worker = Worker::spawn(4);
        let failing = Job::new(|| Err(std::io::Error::other("injected")), Vec::new());
        worker.submit(failing).unwrap();
        worker.wait_idle();
        let ran = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&ran);
        let count = move || {
            counter.fetch_add(1, Ordering::SeqCst);
            Ok(())
        };
        let reported = worker.submit(Job::new(count.clone(), Vec::new()));
        assert!(matches!(reported, Err(StorageError::Io(_))));
        worker.submit(Job::new(count, Vec::new())).unwrap();
        worker.drain().expect("already reported");
        assert_eq!(ran.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn a_full_queue_blocks_the_producer() {
        const CAPACITY: usize = 3;
        let worker = Arc::new(Worker::spawn(CAPACITY));
        // Park the worker inside a job so nothing leaves the queue.
        let (parked_tx, parked_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let gate = Job::new(
            move || {
                parked_tx.send(()).unwrap();
                let _ = release_rx.recv();
                Ok(())
            },
            Vec::new(),
        );
        worker.submit(gate).unwrap();
        parked_rx.recv().unwrap();

        let submitted = Arc::new(AtomicUsize::new(0));
        let (done_tx, done_rx) = mpsc::channel();
        let producer = {
            let worker = Arc::clone(&worker);
            let submitted = Arc::clone(&submitted);
            std::thread::spawn(move || {
                for _ in 0..CAPACITY + 2 {
                    worker.submit(Job::new(|| Ok(()), Vec::new())).unwrap();
                    submitted.fetch_add(1, Ordering::SeqCst);
                }
                done_tx.send(()).unwrap();
            })
        };
        // The producer fills the queue and then must wait: it cannot get any
        // further while the worker is parked, however long we look.
        while submitted.load(Ordering::SeqCst) < CAPACITY {
            std::thread::yield_now();
        }
        assert!(done_rx.recv_timeout(Duration::from_millis(100)).is_err());
        assert_eq!(submitted.load(Ordering::SeqCst), CAPACITY);
        release_tx.send(()).unwrap();
        done_rx.recv().unwrap();
        producer.join().unwrap();
        worker.drain().unwrap();
        assert_eq!(submitted.load(Ordering::SeqCst), CAPACITY + 2);
    }
}
