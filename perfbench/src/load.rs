//! Load generation: a fixed-rate open loop timed from each request's
//! due time, and a closed loop that measures throughput.
//!
//! Both run a caller-supplied operation on up to a few worker threads,
//! each owning its own state (one HTTP connection, or nothing for the
//! in-process workloads), and return one [`Sample`] per operation.
//! Time is kept as nanoseconds since a shared [`Clock`] epoch so that
//! samples from different threads, and the spans the traced engine
//! records, share one axis.
//!
//! In the open loop a request's latency is measured from when it was
//! *due*, not from when it was sent: a stall delays every request
//! scheduled behind it, and that wait is part of what a user sees.
//! How late the generator itself ran (`sent − due`) is reported
//! separately so a slow generator cannot pass for a slow server.

use std::time::Instant;

/// A shared time axis.
#[derive(Debug, Clone, Copy)]
pub struct Clock {
    epoch: Instant,
}

impl Clock {
    /// A clock whose zero is now.
    pub fn start() -> Self {
        Clock {
            epoch: Instant::now(),
        }
    }

    /// Nanoseconds since the epoch.
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// One timed operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sample {
    /// Index of the operation in its schedule.
    pub index: usize,
    /// When it was due (the send time, in a closed loop).
    pub due_ns: u64,
    /// When the generator sent it.
    pub sent_ns: u64,
    /// When its response was complete.
    pub done_ns: u64,
    /// Whether it succeeded (2xx and a well-formed response).
    pub ok: bool,
}

impl Sample {
    /// Latency from the due time in µs; `+∞` for a failed operation,
    /// so failures count against every latency percentile.
    pub fn latency_us(&self) -> f64 {
        if self.ok {
            self.done_ns.saturating_sub(self.due_ns) as f64 / 1e3
        } else {
            f64::INFINITY
        }
    }

    /// Latency from the send time in µs (`+∞` when failed).
    pub fn service_us(&self) -> f64 {
        if self.ok {
            self.done_ns.saturating_sub(self.sent_ns) as f64 / 1e3
        } else {
            f64::INFINITY
        }
    }

    /// How late the generator sent the operation, in µs.
    pub fn late_us(&self) -> f64 {
        self.sent_ns.saturating_sub(self.due_ns) as f64 / 1e3
    }
}

/// A fixed-rate schedule: operation `i` is due at
/// `start_ns + ⌊i · 1e9 / rate⌋`, for `i < count`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Schedule {
    /// Due time of operation 0.
    pub start_ns: u64,
    /// Operations per second.
    pub rate: f64,
    /// Number of operations.
    pub count: usize,
}

impl Schedule {
    /// `rate` operations per second for `seconds`, starting at
    /// `start_ns`.
    pub fn new(start_ns: u64, rate: f64, seconds: f64) -> Self {
        assert!(
            rate > 0.0 && seconds >= 0.0,
            "rate and duration must be positive"
        );
        Schedule {
            start_ns,
            rate,
            count: (rate * seconds).floor() as usize,
        }
    }

    /// When operation `i` is due.
    pub fn due_ns(&self, i: usize) -> u64 {
        self.start_ns + (i as f64 * 1e9 / self.rate) as u64
    }

    /// The operations lane `lane` of `lanes` sends: every
    /// `lanes`-th index, so the lanes interleave in due order.
    pub fn lane(&self, lane: usize, lanes: usize) -> impl Iterator<Item = usize> {
        (lane..self.count).step_by(lanes.max(1))
    }
}

/// Blocks until `due_ns` on `clock`, yielding the CPU while it waits.
/// It never sleeps: on a small VM a vCPU that went idle takes ~100 µs,
/// and a widely varying time, to wake again, and that wait would be
/// charged to the system under test. At 300 qps on a 2-vCPU host,
/// sleeping between sends added ~120 µs to the median request and
/// doubled its run-to-run spread.
pub fn wait_until(clock: &Clock, due_ns: u64) {
    while clock.now_ns() < due_ns {
        std::thread::yield_now();
    }
}

/// Runs `schedule` open-loop over one thread per worker state: lane
/// `k` sends operations `k, k + n, k + 2n, …` each at its due time,
/// whatever happened to the ones before. `op(state, index)` performs
/// operation `index` and reports success. Samples come back in
/// schedule order, followed by the worker states (which may have
/// collected responses to check once the timed window is over).
pub fn open_loop<W, F>(
    clock: &Clock,
    schedule: &Schedule,
    workers: Vec<W>,
    op: F,
) -> (Vec<Sample>, Vec<W>)
where
    W: Send,
    F: Fn(&mut W, usize) -> bool + Sync,
{
    let lanes = workers.len();
    let (mut samples, states) = std::thread::scope(|scope| {
        let handles: Vec<_> = workers
            .into_iter()
            .enumerate()
            .map(|(lane, mut state)| {
                let op = &op;
                scope.spawn(move || {
                    let lane = schedule.lane(lane, lanes);
                    (
                        run_lane(clock, schedule, lane, &mut state, op, &|| false),
                        state,
                    )
                })
            })
            .collect();
        join_lanes(handles)
    });
    samples.sort_by_key(|s| s.index);
    (samples, states)
}

/// Runs `schedule` open-loop with one worker state on the calling
/// thread, like one lane of [`open_loop`], and stops before the first
/// operation for which `until()` holds.
pub fn open_loop_until<W>(
    clock: &Clock,
    schedule: &Schedule,
    mut state: W,
    op: impl Fn(&mut W, usize) -> bool,
    until: impl Fn() -> bool,
) -> (Vec<Sample>, W) {
    let samples = run_lane(
        clock,
        schedule,
        schedule.lane(0, 1),
        &mut state,
        &op,
        &until,
    );
    (samples, state)
}

/// Sends the operations `indices` of `schedule`, each at its due time,
/// until `until()` holds before one of them.
fn run_lane<W>(
    clock: &Clock,
    schedule: &Schedule,
    indices: impl Iterator<Item = usize>,
    state: &mut W,
    op: &impl Fn(&mut W, usize) -> bool,
    until: &impl Fn() -> bool,
) -> Vec<Sample> {
    let mut samples = Vec::new();
    for index in indices {
        if until() {
            break;
        }
        let due_ns = schedule.due_ns(index);
        wait_until(clock, due_ns);
        let sent_ns = clock.now_ns();
        let ok = op(state, index);
        samples.push(Sample {
            index,
            due_ns,
            sent_ns,
            done_ns: clock.now_ns(),
            ok,
        });
    }
    samples
}

/// Joins lane threads, concatenating their samples and keeping their
/// states in lane order.
fn join_lanes<W>(
    handles: Vec<std::thread::ScopedJoinHandle<'_, (Vec<Sample>, W)>>,
) -> (Vec<Sample>, Vec<W>) {
    let mut samples = Vec::new();
    let mut states = Vec::new();
    for h in handles {
        let (s, w) = h.join().expect("load-generator lane panicked");
        samples.extend(s);
        states.push(w);
    }
    (samples, states)
}

/// Runs a closed loop until `deadline_ns`: each worker sends its next
/// operation as soon as the previous one completes. Lane `k` numbers
/// its operations `k, k + n, …` so `op` can pick inputs by index.
/// Samples come back in completion order per lane, lanes concatenated,
/// followed by the worker states.
pub fn closed_loop<W, F>(
    clock: &Clock,
    deadline_ns: u64,
    workers: Vec<W>,
    op: F,
) -> (Vec<Sample>, Vec<W>)
where
    W: Send,
    F: Fn(&mut W, usize) -> bool + Sync,
{
    let lanes = workers.len();
    std::thread::scope(|scope| {
        let handles: Vec<_> = workers
            .into_iter()
            .enumerate()
            .map(|(lane, mut state)| {
                let op = &op;
                scope.spawn(move || {
                    let mut out = Vec::new();
                    let mut index = lane;
                    loop {
                        let sent_ns = clock.now_ns();
                        if sent_ns >= deadline_ns {
                            break (out, state);
                        }
                        let ok = op(&mut state, index);
                        out.push(Sample {
                            index,
                            due_ns: sent_ns,
                            sent_ns,
                            done_ns: clock.now_ns(),
                            ok,
                        });
                        index += lanes;
                    }
                })
            })
            .collect();
        join_lanes(handles)
    })
}

/// Successful operations per second of a closed-loop run that started
/// at `start_ns`, timed to its last completion; 0 for an empty run.
pub fn completed_rate(samples: &[Sample], start_ns: u64) -> f64 {
    pooled_rate(&[completed(samples, start_ns)])
}

/// The successful operations of a closed-loop run that started at
/// `start_ns`, and its seconds to its last completion.
pub fn completed(samples: &[Sample], start_ns: u64) -> (usize, f64) {
    let end = samples.iter().map(|s| s.done_ns).max().unwrap_or(start_ns);
    let ok = samples.iter().filter(|s| s.ok).count();
    (ok, end.saturating_sub(start_ns) as f64 / 1e9)
}

/// Successful operations per second over several [`completed`] runs
/// together; 0 when they took no time.
pub fn pooled_rate(runs: &[(usize, f64)]) -> f64 {
    let ok: usize = runs.iter().map(|r| r.0).sum();
    let secs: f64 = runs.iter().map(|r| r.1).sum();
    if secs > 0.0 {
        ok as f64 / secs
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    #[test]
    fn schedule_spaces_operations_evenly() {
        let s = Schedule::new(1_000, 1_000.0, 0.5);
        assert_eq!(s.count, 500);
        assert_eq!(s.due_ns(0), 1_000);
        assert_eq!(s.due_ns(1), 1_001_000);
        assert_eq!(s.due_ns(499), 1_000 + 499_000_000);
        // A fractional interval does not drift: op i is due at ⌊i/rate⌋.
        let t = Schedule::new(0, 3.0, 10.0);
        assert_eq!(t.count, 30);
        assert_eq!(t.due_ns(3), 1_000_000_000);
        assert_eq!(t.due_ns(29), 9_666_666_666);
    }

    #[test]
    fn lanes_partition_the_schedule_in_due_order() {
        let s = Schedule::new(0, 100.0, 0.1);
        assert_eq!(s.count, 10);
        let a: Vec<usize> = s.lane(0, 2).collect();
        let b: Vec<usize> = s.lane(1, 2).collect();
        assert_eq!(a, vec![0, 2, 4, 6, 8]);
        assert_eq!(b, vec![1, 3, 5, 7, 9]);
        assert_eq!(s.lane(0, 1).count(), 10);
    }

    #[test]
    fn open_loop_sends_every_operation_no_earlier_than_due() {
        let clock = Clock::start();
        let s = Schedule::new(clock.now_ns() + 1_000_000, 2_000.0, 0.05);
        let calls = AtomicUsize::new(0);
        let (samples, _) = open_loop(&clock, &s, vec![(), ()], |_, i| {
            calls.fetch_add(1, Ordering::Relaxed);
            i % 10 != 3
        });
        assert_eq!(samples.len(), s.count);
        assert_eq!(calls.load(Ordering::Relaxed), s.count);
        for (i, x) in samples.iter().enumerate() {
            assert_eq!(x.index, i);
            assert_eq!(x.due_ns, s.due_ns(i));
            assert!(x.sent_ns >= x.due_ns, "sent before due: {x:?}");
            assert!(x.done_ns >= x.sent_ns);
            assert_eq!(x.ok, i % 10 != 3);
        }
        assert!(samples[3].latency_us().is_infinite());
        assert!(samples[4].latency_us().is_finite());
    }

    #[test]
    fn open_loop_until_stops_before_the_first_operation_past_the_condition() {
        let clock = Clock::start();
        let s = Schedule::new(clock.now_ns(), 10_000.0, 0.01);
        let calls = AtomicUsize::new(0);
        let op = |n: &mut usize, i: usize| {
            *n += 1;
            calls.fetch_add(1, Ordering::Relaxed);
            i != 1 && i != 3
        };
        let (samples, n) =
            open_loop_until(&clock, &s, 0, op, || calls.load(Ordering::Relaxed) >= 5);
        assert_eq!((samples.len(), n), (5, 5));
        assert!(samples
            .iter()
            .enumerate()
            .all(|(i, x)| x.index == i && x.due_ns == s.due_ns(i)));
        assert_eq!(samples.iter().filter(|x| x.ok).count(), 3);
        let (samples, _) = open_loop_until(&clock, &s, 0, |_, _| true, || false);
        assert_eq!(samples.len(), s.count);
    }

    #[test]
    fn a_stall_is_charged_to_the_requests_behind_it() {
        // One lane, 1 ms apart; operation 0 takes 5 ms. Operations 1..4
        // were due during the stall: they are sent late, and their
        // latency from the due time includes the wait.
        let clock = Clock::start();
        let s = Schedule::new(clock.now_ns() + 1_000_000, 1_000.0, 0.006);
        let (samples, _) = open_loop(&clock, &s, vec![()], |_, i| {
            if i == 0 {
                std::thread::sleep(Duration::from_millis(5));
            }
            true
        });
        assert_eq!(samples.len(), 6);
        for x in &samples[1..4] {
            assert!(x.late_us() >= 1_000.0, "not charged for the stall: {x:?}");
            assert!(x.latency_us() >= x.late_us());
            assert!(x.service_us() < x.latency_us());
        }
    }

    #[test]
    fn closed_loop_runs_until_the_deadline() {
        let clock = Clock::start();
        let start = clock.now_ns();
        let deadline = start + 20_000_000;
        let (samples, counts) = closed_loop(&clock, deadline, vec![0u32, 0u32], |n, _| {
            *n += 1;
            std::thread::sleep(Duration::from_micros(200));
            true
        });
        assert!(samples.len() > 10);
        assert_eq!(counts.iter().sum::<u32>() as usize, samples.len());
        assert!(samples.iter().all(|s| s.sent_ns < deadline && s.ok));
        let mut lane0: Vec<usize> = samples
            .iter()
            .map(|s| s.index)
            .filter(|i| i % 2 == 0)
            .collect();
        lane0.sort_unstable();
        assert!(lane0.windows(2).all(|w| w[1] == w[0] + 2));
        let end = samples.iter().map(|s| s.done_ns).max().unwrap_or(start);
        assert!(end >= deadline, "ran to the deadline");
        let rate = completed_rate(&samples, start);
        let want = samples.len() as f64 / ((end - start) as f64 / 1e9);
        assert!((rate - want).abs() < 1e-9 * want, "{rate} vs {want}");
        assert_eq!(completed_rate(&[], start), 0.0);
        // Pooled, two runs count by their total operations and time.
        assert_eq!(pooled_rate(&[(30, 1.0), (10, 1.0)]), 20.0);
        assert_eq!(pooled_rate(&[(30, 2.0), (10, 0.0)]), 20.0);
        assert_eq!(pooled_rate(&[]), 0.0);
    }
}
