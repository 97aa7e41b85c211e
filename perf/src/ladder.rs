//! The open-loop generator and the rate-ladder decision.
//!
//! One generator thread submits on a fixed schedule regardless of
//! completions and polls the oldest outstanding request (head of line);
//! every latency is timed **from the instant the request was due**, so a
//! stall — in the system or in the generator itself — is charged to the
//! requests it delayed. How late the generator ran is reported beside it.

use std::collections::VecDeque;
use std::time::Instant;

use crate::stats::{percentile, sorted};

/// Latency limit of the served workload, from due time to answer.
pub const LIMIT_US: f64 = 5_000.0;

/// Share of a step's offered requests that must be answered within the
/// limit for the step to pass (the limit is on p99).
pub const PASS_SHARE: f64 = 0.99;

/// What polling an outstanding request found.
pub enum Poll {
    Pending,
    Answered,
    /// Refused by admission control or a deadline: a designed response,
    /// which still misses the latency limit.
    Refused,
    Failed,
}

/// One fixed-rate step of the ladder.
#[derive(Default)]
pub struct Step {
    pub rate_rps: f64,
    pub offered: usize,
    pub refused: usize,
    pub failed: usize,
    /// Due-time→answer latency of every answered request, completion order.
    pub latencies_us: Vec<f64>,
    /// How late each submission ran against its due time.
    pub late_us: Vec<f64>,
    /// Gaps between two polls while a request was outstanding (the
    /// resolution of the completion stamps), 1 µs buckets.
    poll_gaps: Vec<u32>,
    /// Seconds from the first due time to the last.
    pub span_s: f64,
    /// When the step started, and `(due, answered)` offsets in ns from then
    /// for one answered request in [`SAMPLE_EVERY`] — the traced run turns
    /// these into spans.
    pub started: Option<Instant>,
    pub sampled: Vec<(u64, u64)>,
}

const SAMPLE_EVERY: usize = 512;

const GAP_BUCKETS: usize = 20_000;

/// Longest the generator waits for stragglers after the last submission.
const DRAIN_NS: u64 = 10_000_000_000;

impl Step {
    /// Runs one step: `submit(i)` at `arrivals_ns[i]` after the start,
    /// `poll` on the oldest outstanding request in between.
    pub fn run<T>(
        rate_rps: f64,
        arrivals_ns: &[u64],
        submit: impl FnMut(usize) -> T,
        poll: impl Fn(&T) -> Poll,
    ) -> Step {
        let start = Instant::now();
        let mut step = Step::run_with_clock(rate_rps, arrivals_ns, submit, poll, move || {
            start.elapsed().as_nanos() as u64
        });
        step.started = Some(start);
        step
    }

    /// [`Step::run`] against an explicit nanosecond clock (tests drive a
    /// synthetic one).
    pub fn run_with_clock<T>(
        rate_rps: f64,
        arrivals_ns: &[u64],
        mut submit: impl FnMut(usize) -> T,
        poll: impl Fn(&T) -> Poll,
        mut now_ns: impl FnMut() -> u64,
    ) -> Step {
        let n = arrivals_ns.len();
        let mut step = Step {
            rate_rps,
            offered: n,
            latencies_us: Vec::with_capacity(n),
            late_us: Vec::with_capacity(n),
            poll_gaps: vec![0; GAP_BUCKETS + 1],
            span_s: arrivals_ns.last().copied().unwrap_or(0) as f64 / 1e9,
            ..Step::default()
        };
        let mut outstanding: VecDeque<(u64, T)> = VecDeque::new();
        let mut next = 0usize;
        let mut last_poll: Option<u64> = None;
        let mut drain_started: Option<u64> = None;
        while next < n || !outstanding.is_empty() {
            let now = now_ns();
            if next < n {
                let due = arrivals_ns[next];
                if now >= due {
                    step.late_us.push((now - due) as f64 / 1e3);
                    outstanding.push_back((due, submit(next)));
                    next += 1;
                }
            } else if now - *drain_started.get_or_insert(now) > DRAIN_NS {
                step.failed += outstanding.len();
                break;
            }
            if outstanding.is_empty() {
                last_poll = None;
                std::hint::spin_loop();
                continue;
            }
            if let Some(previous) = last_poll {
                let gap_us = ((now - previous) / 1_000) as usize;
                step.poll_gaps[gap_us.min(GAP_BUCKETS)] += 1;
            }
            last_poll = Some(now);
            while let Some((due, pending)) = outstanding.front() {
                match poll(pending) {
                    Poll::Pending => break,
                    Poll::Answered => {
                        let done = now_ns();
                        step.latencies_us.push(latency_from_due_us(*due, done));
                        if step.latencies_us.len().is_multiple_of(SAMPLE_EVERY) {
                            step.sampled.push((*due, done));
                        }
                    }
                    Poll::Refused => step.refused += 1,
                    Poll::Failed => step.failed += 1,
                }
                outstanding.pop_front();
            }
        }
        step
    }

    /// The slices of one rate as one step, for the counts and the
    /// pass/fail decision.
    pub fn merged(slices: &[Step]) -> Step {
        let mut all = Step {
            rate_rps: slices.first().map_or(0.0, |s| s.rate_rps),
            ..Step::default()
        };
        for slice in slices {
            all.absorb(slice);
        }
        all
    }

    fn absorb(&mut self, other: &Step) {
        self.offered += other.offered;
        self.refused += other.refused;
        self.failed += other.failed;
        self.latencies_us.extend_from_slice(&other.latencies_us);
        self.late_us.extend_from_slice(&other.late_us);
        if self.poll_gaps.len() < other.poll_gaps.len() {
            self.poll_gaps.resize(other.poll_gaps.len(), 0);
        }
        for (mine, theirs) in self.poll_gaps.iter_mut().zip(&other.poll_gaps) {
            *mine += theirs;
        }
        self.span_s += other.span_s;
    }

    /// Requests answered within the limit. Refused and failed requests
    /// were never answered, so they miss any limit.
    pub fn within_limit(&self, limit_us: f64) -> usize {
        self.latencies_us.iter().filter(|&&l| l <= limit_us).count()
    }

    /// Requests answered within the limit per second of schedule.
    pub fn goodput_rps(&self, limit_us: f64) -> f64 {
        if self.span_s > 0.0 {
            self.within_limit(limit_us) as f64 / self.span_s
        } else {
            0.0
        }
    }

    pub fn refused_share(&self) -> f64 {
        self.refused as f64 / self.offered.max(1) as f64
    }

    /// Whether latency kept rising through the step: the median of the last
    /// third of completions is more than twice the median of the first
    /// third *and* a noticeable part of the limit. A stable queue gives a
    /// stationary latency; an overloaded unbounded one gives a ramp.
    pub fn backlog_growing(&self, limit_us: f64) -> bool {
        let third = self.latencies_us.len() / 3;
        if third < 10 {
            return false;
        }
        let first = percentile(&sorted(self.latencies_us[..third].to_vec()), 0.5);
        let last = percentile(
            &sorted(self.latencies_us[self.latencies_us.len() - third..].to_vec()),
            0.5,
        );
        last > 2.0 * first && last > limit_us / 10.0
    }

    /// The step passes when at least [`PASS_SHARE`] of everything offered
    /// was answered within the limit and the backlog did not grow.
    pub fn meets(&self, limit_us: f64) -> bool {
        self.offered > 0
            && self.within_limit(limit_us) as f64 >= PASS_SHARE * self.offered as f64
            && !self.backlog_growing(limit_us)
    }

    /// p99 of the gaps between polls, µs (bucket upper edge).
    pub fn poll_gap_p99_us(&self) -> f64 {
        let total: u64 = self.poll_gaps.iter().map(|&c| u64::from(c)).sum();
        if total == 0 {
            return 0.0;
        }
        let rank = (0.99 * total as f64).ceil() as u64;
        let mut seen = 0u64;
        for (bucket, &count) in self.poll_gaps.iter().enumerate() {
            seen += u64::from(count);
            if seen >= rank {
                return (bucket + 1) as f64;
            }
        }
        GAP_BUCKETS as f64
    }
}

/// Latency of a request that was due at `due_ns` and whose answer was seen
/// at `done_ns` — measured from the due time, not from the (possibly late)
/// send.
pub fn latency_from_due_us(due_ns: u64, done_ns: u64) -> f64 {
    done_ns.saturating_sub(due_ns) as f64 / 1e3
}

/// The highest rate of the ladder whose step passes; 0 when none does.
pub fn max_rate_ok(steps: &[Step], limit_us: f64) -> f64 {
    steps
        .iter()
        .filter(|s| s.meets(limit_us))
        .map(|s| s.rate_rps)
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    fn step(rate: f64, latencies: Vec<f64>, refused: usize) -> Step {
        Step {
            rate_rps: rate,
            offered: latencies.len() + refused,
            refused,
            latencies_us: latencies,
            span_s: 1.0,
            ..Step::default()
        }
    }

    #[test]
    fn ladder_picks_the_highest_passing_rate() {
        let flat = |us: f64| vec![us; 1_000];
        let steps = vec![
            step(100.0, flat(200.0), 0),
            step(200.0, flat(900.0), 0),
            // 2 % over the limit: p99 misses it.
            step(300.0, [flat(900.0), vec![9_000.0; 21]].concat(), 0),
            // Fast answers, but 5 % refused: refusals miss the limit.
            step(400.0, flat(100.0), 53),
        ];
        assert!(steps[0].meets(LIMIT_US) && steps[1].meets(LIMIT_US));
        assert!(!steps[2].meets(LIMIT_US) && !steps[3].meets(LIMIT_US));
        assert_eq!(max_rate_ok(&steps, LIMIT_US), 200.0);
        assert_eq!(max_rate_ok(&steps[2..], LIMIT_US), 0.0);
        assert_eq!(steps[3].within_limit(LIMIT_US), 1_000);
        assert!((steps[3].refused_share() - 53.0 / 1_053.0).abs() < 1e-12);
        assert_eq!(steps[1].goodput_rps(LIMIT_US), 1_000.0);
    }

    #[test]
    fn growing_backlog_fails_a_step_that_is_still_under_the_limit() {
        // A ramp from 100 µs to 4 ms: every answer is within 5 ms, but the
        // queue is plainly not draining.
        let ramp: Vec<f64> = (0..900).map(|i| 100.0 + 4.3 * f64::from(i)).collect();
        let ramping = step(500.0, ramp, 0);
        assert_eq!(ramping.within_limit(LIMIT_US), 900);
        assert!(ramping.backlog_growing(LIMIT_US));
        assert!(!ramping.meets(LIMIT_US));
        // Stationary noise around 300 µs does not count as growth, nor does
        // a doubling that stays far below the limit.
        let noisy: Vec<f64> = (0..900).map(|i| 250.0 + f64::from(i % 7) * 20.0).collect();
        assert!(!step(500.0, noisy, 0).backlog_growing(LIMIT_US));
        let tiny: Vec<f64> = (0..900).map(|i| 20.0 + 0.1 * f64::from(i)).collect();
        assert!(!step(500.0, tiny, 0).backlog_growing(LIMIT_US));
    }

    #[test]
    fn latency_counts_from_the_due_time_not_the_send_time() {
        assert_eq!(latency_from_due_us(1_000_000, 3_500_000), 2_500.0);
        // Three requests all due at t = 0, answered the instant they are
        // polled, against a clock that advances 1 ms per reading: each
        // submission runs later than the one before, and that lateness is
        // in the latency although the "server" took no time at all.
        let clock = Cell::new(0u64);
        let run = Step::run_with_clock(
            1_000.0,
            &[0, 0, 0],
            |i| i,
            |_| Poll::Answered,
            || {
                clock.set(clock.get() + 1_000_000);
                clock.get()
            },
        );
        assert_eq!(run.latencies_us, vec![2_000.0, 4_000.0, 6_000.0]);
        assert_eq!(run.late_us, vec![1_000.0, 3_000.0, 5_000.0]);
        assert_eq!(run.within_limit(LIMIT_US), 2);
    }

    #[test]
    fn refused_and_failed_requests_are_counted_not_timed() {
        let run = Step::run_with_clock(
            10.0,
            &[0, 10, 20, 30],
            |i| i,
            |&i| match i {
                0 => Poll::Answered,
                1 => Poll::Refused,
                2 => Poll::Failed,
                _ => Poll::Answered,
            },
            {
                let clock = Cell::new(0u64);
                move || {
                    clock.set(clock.get() + 100);
                    clock.get()
                }
            },
        );
        assert_eq!((run.offered, run.refused, run.failed), (4, 1, 1));
        assert_eq!(run.latencies_us.len(), 2);
    }
}
