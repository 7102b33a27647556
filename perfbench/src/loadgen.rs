//! Load generation: an open loop that sends on a schedule and a closed
//! loop whose clients wait for each reply.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// When one request was due, sent and answered, in seconds since the start
/// of the loop.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Timing {
    /// When the schedule wanted the request sent.
    pub due: f64,
    /// When a sender actually started it.
    pub sent: f64,
    /// When its reply was complete.
    pub done: f64,
}

impl Timing {
    /// Latency charged from the due time, so that a request held back by a
    /// busy or stalled sender pays for the wait.
    pub fn latency_ms(&self) -> f64 {
        (self.done - self.due) * 1e3
    }

    /// How late the generator sent the request.
    pub fn late_ms(&self) -> f64 {
        ((self.sent - self.due) * 1e3).max(0.0)
    }
}

/// Seconds during which at least one request was in flight: the length of
/// the union of the `sent..done` intervals.
pub fn busy_seconds(timings: impl IntoIterator<Item = Timing>) -> f64 {
    let mut spans: Vec<(f64, f64)> = timings.into_iter().map(|t| (t.sent, t.done)).collect();
    spans.sort_by(|a, b| a.0.total_cmp(&b.0));
    let (mut busy, mut end) = (0.0, f64::NEG_INFINITY);
    for (start, done) in spans {
        if done > end {
            busy += done - start.max(end);
            end = done;
        }
    }
    busy
}

/// Send `items` in order from `senders` threads, each item no earlier than
/// its `due` offset (seconds after the loop starts). A sender takes the next
/// unsent item as soon as it is free, so when every sender is busy the
/// items queue in the generator and their latency keeps growing from the
/// due time. Returns each item's timing and result, in item order.
pub fn open_loop<T: Sync, R: Send>(
    items: &[T],
    due: impl Fn(&T) -> f64 + Sync,
    senders: usize,
    send: impl Fn(usize, &T) -> R + Sync,
) -> Vec<(Timing, R)> {
    let start = Instant::now();
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<(usize, Timing, R)>> = Mutex::new(Vec::with_capacity(items.len()));
    std::thread::scope(|scope| {
        for _ in 0..senders.max(1) {
            scope.spawn(|| loop {
                let index = next.fetch_add(1, Ordering::SeqCst);
                let Some(item) = items.get(index) else { return };
                let due_s = due(item);
                let wait = Duration::from_secs_f64(due_s.max(0.0)).saturating_sub(start.elapsed());
                if !wait.is_zero() {
                    std::thread::sleep(wait);
                }
                let sent = start.elapsed().as_secs_f64();
                let result = send(index, item);
                let done = start.elapsed().as_secs_f64();
                let timing = Timing { due: due_s, sent, done };
                results.lock().expect("result buffer lock").push((index, timing, result));
            });
        }
    });
    let mut results = results.into_inner().expect("result buffer lock");
    results.sort_by_key(|(index, _, _)| *index);
    results.into_iter().map(|(_, timing, result)| (timing, result)).collect()
}

/// Run one closed-loop client per script until `seconds` have passed: each
/// client sends its next operation only after the previous reply, so every
/// operation is due when it is sent. Returns each client's timings and
/// results in script order.
pub fn closed_loop<T: Sync, R: Send>(
    scripts: &[Vec<T>],
    seconds: f64,
    send: impl Fn(usize, &T) -> R + Sync,
) -> Vec<Vec<(Timing, R)>> {
    let start = Instant::now();
    std::thread::scope(|scope| {
        let handles: Vec<_> = scripts
            .iter()
            .enumerate()
            .map(|(client, script)| {
                let send = &send;
                scope.spawn(move || {
                    let mut out = Vec::new();
                    for op in script {
                        let sent = start.elapsed().as_secs_f64();
                        if sent >= seconds {
                            break;
                        }
                        let result = send(client, op);
                        let done = start.elapsed().as_secs_f64();
                        out.push((Timing { due: sent, sent, done }, result));
                    }
                    out
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("closed-loop client panicked")).collect()
    })
}
