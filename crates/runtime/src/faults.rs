//! Timed delivery for the live query plane: the [`Dispatcher`].
//!
//! It holds only timed work: requests until the outbound delay has
//! passed, retries until their backoff has, replies until the return
//! delay has, and the end of each emulated backend cost (the servers'
//! service clock). The single timer thread — the only thread a cluster of
//! any size owns — runs each job when it matures. Nothing due now passes
//! through it: a request with no delay and no backoff is delivered by the
//! querying client itself, and a reply with no return delay is sent
//! straight to the client's channel (`crate::cluster`). Delivering a
//! request *is* running the target server's step, and no job ever sleeps.
//! The fault *rules* (dedup, retry and backoff, who stands in for a dead
//! server) are [`roads_core::machine`]'s.

use crate::cluster::DispatchJob;
use roads_telemetry::Histogram;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, RecvTimeoutError, Sender};

enum TimerCmd {
    /// Run `job` no earlier than the given instant.
    Schedule(Instant, DispatchJob),
    Shutdown,
}

/// Cloneable handle for scheduling work on a [`Dispatcher`]; held by the
/// cluster and embedded in every delayed reply path. Jobs scheduled after
/// the dispatcher shut down are silently dropped: the timer thread, and
/// with it the channel's receiving end, is gone (so is the cluster).
#[derive(Clone)]
pub(crate) struct DispatchHandle {
    cmd_tx: Sender<TimerCmd>,
}

impl DispatchHandle {
    /// Run `job` on the timer thread once `due` has passed — never on the
    /// caller's, which may hold the lock the job will take.
    pub(crate) fn schedule(&self, due: Instant, job: DispatchJob) {
        let _ = self.cmd_tx.send(TimerCmd::Schedule(due, job));
    }

    /// Schedule `job` after `delay` from now.
    pub(crate) fn schedule_after(&self, delay: Duration, job: DispatchJob) {
        self.schedule(Instant::now() + delay, job);
    }
}

/// Heap entry ordered by due time, FIFO within a tick.
struct Timed {
    due: Instant,
    seq: u64,
    job: DispatchJob,
}

impl PartialEq for Timed {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due && self.seq == other.seq
    }
}
impl Eq for Timed {}
impl PartialOrd for Timed {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Timed {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.due, self.seq).cmp(&(other.due, other.seq))
    }
}

/// The timer thread: holds delayed [`DispatchJob`]s on a heap and runs each
/// itself when it matures, so delayed jobs run in exact `(due, arrival)`
/// order.
pub(crate) struct Dispatcher {
    handle: DispatchHandle,
    timer: Option<JoinHandle<()>>,
}

impl Dispatcher {
    /// Start the timer thread. `lag` (`runtime.timer_lag_us` on
    /// instrumented clusters) records how long after its due time each
    /// matured job ran — the load signal of this one thread.
    pub(crate) fn start(lag: Option<Arc<Histogram>>) -> Self {
        let (cmd_tx, cmd_rx) = unbounded::<TimerCmd>();
        let timer = thread::Builder::new()
            .name("roads-dispatch-timer".into())
            .spawn(move || {
                let mut heap: BinaryHeap<Reverse<Timed>> = BinaryHeap::new();
                let mut seq = 0u64;
                loop {
                    // Run everything that has matured.
                    let now = Instant::now();
                    while heap.peek().is_some_and(|Reverse(t)| t.due <= now) {
                        let Reverse(t) = heap.pop().expect("peeked");
                        if let Some(lag) = &lag {
                            lag.record((Instant::now() - t.due).as_micros() as f64);
                        }
                        t.job.run();
                    }
                    // Sleep until the next job matures or a command lands.
                    let cmd = match heap.peek() {
                        Some(Reverse(next)) => {
                            let wait = next.due.saturating_duration_since(Instant::now());
                            match cmd_rx.recv_timeout(wait) {
                                Ok(cmd) => cmd,
                                Err(RecvTimeoutError::Timeout) => continue,
                                Err(RecvTimeoutError::Disconnected) => break,
                            }
                        }
                        None => match cmd_rx.recv() {
                            Ok(cmd) => cmd,
                            Err(_) => break,
                        },
                    };
                    match cmd {
                        TimerCmd::Schedule(due, job) => {
                            heap.push(Reverse(Timed { due, seq, job }));
                            seq += 1;
                        }
                        TimerCmd::Shutdown => break,
                    }
                }
            })
            .expect("spawn dispatch timer");
        Dispatcher {
            handle: DispatchHandle { cmd_tx },
            timer: Some(timer),
        }
    }

    /// The scheduling handle.
    pub(crate) fn handle(&self) -> &DispatchHandle {
        &self.handle
    }

    /// Stop the timer thread. Jobs not yet matured are discarded, and so
    /// is every job scheduled from now on.
    pub(crate) fn shutdown(&mut self) {
        let _ = self.handle.cmd_tx.send(TimerCmd::Shutdown);
        if let Some(t) = self.timer.take() {
            let _ = t.join();
        }
    }
}

impl Drop for Dispatcher {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;
    use std::sync::Arc;

    #[test]
    fn dispatcher_shutdown_discards_unmatured_jobs() {
        let mut d = Dispatcher::start(None);
        let ran = Arc::new(Mutex::new(false));
        {
            let ran = Arc::clone(&ran);
            d.handle().schedule_after(
                Duration::from_secs(60),
                DispatchJob::test_probe(move || *ran.lock() = true),
            );
        }
        d.shutdown();
        assert!(!*ran.lock());
        // Scheduling after shutdown is a silent no-op.
        d.handle()
            .schedule_after(Duration::ZERO, DispatchJob::test_probe(|| {}));
    }

    #[test]
    fn dispatcher_delayed_jobs_run_in_due_order_never_early() {
        let mut d = Dispatcher::start(None);
        let (tx, rx) = unbounded::<(u64, Instant, std::thread::ThreadId)>();
        let now = Instant::now();
        // Far enough out that a preempted test thread still schedules every
        // job before any is due.
        let offsets_ms = [90u64, 60, 75, 60, 110];
        for (tag, off) in offsets_ms.into_iter().enumerate() {
            let tx = tx.clone();
            d.handle().schedule(
                now + Duration::from_millis(off),
                DispatchJob::test_probe(move || {
                    let _ = tx.send((tag as u64, Instant::now(), std::thread::current().id()));
                }),
            );
        }
        let ran: Vec<_> = (0..offsets_ms.len())
            .map(|_| rx.recv_timeout(Duration::from_secs(10)).expect("job ran"))
            .collect();
        // Due order, arrival order within one due time.
        let tags: Vec<u64> = ran.iter().map(|r| r.0).collect();
        assert_eq!(tags, [1, 3, 2, 0, 4]);
        for (tag, at, thread) in ran {
            let due = now + Duration::from_millis(offsets_ms[tag as usize]);
            assert!(at >= due, "job {tag} ran {:?} early", due - at);
            assert_ne!(thread, std::thread::current().id(), "timer thread runs it");
        }
        d.shutdown();
    }

    #[test]
    fn dispatcher_schedule_after_shutdown_is_a_noop() {
        let mut d = Dispatcher::start(None);
        d.shutdown();
        let ran = Arc::new(Mutex::new(0u32));
        for delay in [Duration::ZERO, Duration::from_millis(1)] {
            let ran = Arc::clone(&ran);
            d.handle()
                .schedule_after(delay, DispatchJob::test_probe(move || *ran.lock() += 1));
        }
        // Nothing ran on this thread, and the timer thread is gone (joined
        // by `shutdown`), so nothing can run later; a second shutdown is
        // harmless too.
        d.shutdown();
        assert_eq!(*ran.lock(), 0);
    }
}
