//! The one paced background loop of the workspace.
//!
//! [`Periodic`] owns a thread that calls a tick closure every `interval`
//! until stopped. The contract the background service (`Auditor`)
//! relies on:
//!
//! * **Final tick.** [`Periodic::stop`] — and `Drop`, which calls it —
//!   signals the thread, which runs the closure *one more time* and
//!   exits; `stop` returns after joining it. State changed since the last
//!   scheduled tick therefore always reaches the service's final report.
//! * **First tick one interval after spawn.** A service driven by hand
//!   (`tick_now` under a long interval) sees no scheduled tick shifting
//!   its phase.
//! * **External ticks may race.** The closure is the service's own
//!   `tick`, which the owner may also call directly at any time; the
//!   service's state lock serialises the two.

use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Handle of a background thread ticking at a fixed interval.
pub struct Periodic {
    /// The stop flag and the condvar that wakes the thread early.
    signal: Arc<(Mutex<bool>, Condvar)>,
    handle: Option<JoinHandle<()>>,
}

impl Periodic {
    /// Spawn a thread named `name` that calls `tick` every `interval`,
    /// the first time one `interval` after spawn.
    pub fn spawn(
        name: &str,
        interval: Duration,
        mut tick: impl FnMut() + Send + 'static,
    ) -> Periodic {
        assert!(!interval.is_zero(), "{name} interval must be positive");
        let signal = Arc::new((Mutex::new(false), Condvar::new()));
        let thread_signal = Arc::clone(&signal);
        let handle = std::thread::Builder::new()
            .name(name.into())
            .spawn(move || {
                let (stop, wake) = &*thread_signal;
                let mut next = Instant::now() + interval;
                loop {
                    let mut stopping = stop.lock().expect("periodic stop flag");
                    while !*stopping && Instant::now() < next {
                        let wait = next.saturating_duration_since(Instant::now());
                        stopping = wake
                            .wait_timeout(stopping, wait)
                            .expect("periodic stop flag")
                            .0;
                    }
                    let last = *stopping;
                    drop(stopping);
                    tick();
                    if last {
                        return;
                    }
                    next += interval;
                }
            })
            .expect("spawn periodic thread");
        Periodic {
            signal,
            handle: Some(handle),
        }
    }

    /// Signal the thread, let it run one final tick, and join it.
    /// Idempotent; also what `Drop` does.
    pub fn stop(&mut self) {
        let Some(handle) = self.handle.take() else {
            return;
        };
        let (stop, wake) = &*self.signal;
        // Runs from `Drop` too, so a poisoned flag or a panicked tick is
        // reported, not propagated.
        match stop.lock() {
            Ok(mut stopping) => *stopping = true,
            Err(poisoned) => *poisoned.into_inner() = true,
        }
        wake.notify_all();
        if handle.join().is_err() {
            eprintln!("periodic thread panicked; its final tick did not complete");
        }
    }
}

impl Drop for Periodic {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A tick closure that counts its calls.
    fn counter() -> (Arc<AtomicU64>, impl FnMut() + Send + 'static) {
        let ticks = Arc::new(AtomicU64::new(0));
        let seen = Arc::clone(&ticks);
        (ticks, move || {
            seen.fetch_add(1, Ordering::SeqCst);
        })
    }

    const NEVER: Duration = Duration::from_secs(3600);

    #[test]
    fn stop_and_drop_each_run_exactly_one_final_tick_and_join() {
        // With an hour-long interval and the first tick one interval
        // away, the only tick that can ever run is the final one.
        let (ticks, tick) = counter();
        let mut p = Periodic::spawn("periodic-test", NEVER, tick);
        p.stop();
        // `stop` joined the thread: the final tick is visible now and no
        // later one can follow.
        assert_eq!(ticks.load(Ordering::SeqCst), 1);
        p.stop(); // idempotent
        drop(p);
        assert_eq!(ticks.load(Ordering::SeqCst), 1);

        let (ticks, tick) = counter();
        drop(Periodic::spawn("periodic-test", NEVER, tick));
        assert_eq!(ticks.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn external_ticks_may_race_the_schedule() {
        // The service pattern: one shared tick, called by the schedule
        // (1 ms) and hammered from outside (`tick_now`). Every call must
        // land, and the schedule must keep running alongside.
        let ticks = Arc::new(AtomicU64::new(0));
        let shared = Arc::clone(&ticks);
        let tick = move || {
            shared.fetch_add(1, Ordering::SeqCst);
        };
        let mut p = Periodic::spawn("periodic-test", Duration::from_millis(1), tick.clone());
        let external = 500;
        for _ in 0..external {
            tick();
        }
        p.stop();
        let total = ticks.load(Ordering::SeqCst);
        // The final tick is guaranteed on top of the external ones.
        assert!(total > external, "lost ticks: {total}");
    }
}
