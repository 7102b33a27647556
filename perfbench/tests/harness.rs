//! Tests of the benchmark's own pieces: the tail rule, the seeded inputs
//! and the open loop's latency accounting.

use std::sync::mpsc;
use std::time::Duration;

use perfbench::loadgen::{busy_seconds, open_loop, Timing};
use perfbench::plan::{delta_batches, mixed_script, tile_schedule, MixedOp, MAX_ZOOM};
use perfbench::server::json_number;
use perfbench::stats::{median, tail};
use ugraph::generators::rmat;

fn samples(n: usize) -> Vec<f64> {
    // Reversed, so the rule has to sort.
    (1..=n).rev().map(|i| i as f64).collect()
}

#[test]
fn tail_needs_eleven_samples() {
    assert_eq!(tail(&[]), None);
    assert_eq!(tail(&samples(10)), None);
    let t = tail(&samples(11)).expect("eleven samples have a tail");
    assert_eq!((t.percentile, t.value, t.samples), (9, 1.0, 11));
}

#[test]
fn tail_reads_the_highest_percentile_with_ten_samples_beyond() {
    for (n, percentile, value) in
        [(20, 50, 10.0), (100, 90, 90.0), (101, 90, 91.0), (1000, 99, 990.0), (1010, 99, 1000.0)]
    {
        let t = tail(&samples(n)).expect("enough samples");
        assert_eq!((t.percentile, t.value), (percentile, value), "n = {n}");
    }
    for n in 11..2_000usize {
        let t = tail(&samples(n)).expect("enough samples");
        let beyond = |p: usize| n - (p * n).div_ceil(100);
        assert!(beyond(t.percentile as usize) >= 10, "n = {n}: fewer than ten beyond");
        assert!(beyond(t.percentile as usize + 1) < 10, "n = {n}: a higher percentile qualifies");
        assert_eq!(n - t.value as usize, beyond(t.percentile as usize), "n = {n}");
    }
}

#[test]
fn median_of_even_and_odd_counts() {
    assert_eq!(median(&[]), None);
    assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
}

#[test]
fn the_tile_schedule_is_a_function_of_the_seed() {
    let a = tile_schedule(7, 5.0, 30.0);
    assert_eq!(a, tile_schedule(7, 5.0, 30.0));
    assert_ne!(a, tile_schedule(8, 5.0, 30.0));
    assert!(a.windows(2).all(|w| w[0].due <= w[1].due), "sorted by due time");
    assert!(a.iter().all(|r| r.due < 30.0 && r.zoom <= MAX_ZOOM));
    assert!(a.iter().all(|r| r.tx < 1 << r.zoom && r.ty < 1 << r.zoom), "inside the grid");
    // The offered rate is fixed: the count varies little from seed to seed.
    for seed in 0..20 {
        let n = tile_schedule(seed, 5.0, 30.0).len();
        assert!((140..=160).contains(&n), "seed {seed}: {n} requests");
    }
}

#[test]
fn client_scripts_and_delta_batches_are_functions_of_the_seed() {
    assert_eq!(mixed_script(7, 0, 500), mixed_script(7, 0, 500));
    assert_ne!(mixed_script(7, 0, 500), mixed_script(8, 0, 500));
    assert_ne!(mixed_script(7, 0, 500), mixed_script(7, 1, 500), "clients differ");
    assert!(mixed_script(7, 1, 500).iter().all(|op| *op != MixedOp::Delta), "one writer");
    assert!(mixed_script(7, 0, 500).contains(&MixedOp::Delta));
    // Every run sends the same mix: each deck of 50 reads holds 40
    // terrain renders, 5 peaks and 5 revalidations, whatever the seed.
    for seed in [7, 8] {
        for deck in mixed_script(seed, 1, 500).chunks(50) {
            let count = |f: fn(&MixedOp) -> bool| deck.iter().filter(|op| f(op)).count();
            assert_eq!(count(|op| matches!(op, MixedOp::Terrain(_))), 40);
            assert_eq!(count(|op| matches!(op, MixedOp::Peaks(_))), 5);
            assert_eq!(count(|op| matches!(op, MixedOp::Revalidate(_))), 5);
        }
    }

    let graph = rmat(10, 8_000, 1);
    let batches = delta_batches(7, &graph, 6);
    assert_eq!(batches, delta_batches(7, &graph, 6));
    assert_ne!(batches, delta_batches(8, &graph, 6));
    let ops: Vec<&str> = batches.iter().map(|b| b.op).collect();
    assert_eq!(ops, ["insert", "delete", "insert", "delete", "insert", "delete"]);
    assert!(batches.iter().all(|b| b.edges.len() == 1_000 && b.edges.iter().all(|(u, v)| u != v)));
}

#[test]
fn a_request_held_up_by_a_stalled_peer_is_charged_from_its_due_time() {
    let (release, stalled) = mpsc::channel::<()>();
    let stalled = std::sync::Mutex::new(stalled);
    let items = [0.0, 0.01];
    let results = std::thread::scope(|scope| {
        let run = scope.spawn(|| {
            open_loop(
                &items,
                |due| *due,
                1,
                |index, _| {
                    if index == 0 {
                        // The peer stalls on the first request until released.
                        stalled.lock().unwrap().recv().unwrap();
                    }
                },
            )
        });
        std::thread::sleep(Duration::from_millis(200));
        release.send(()).unwrap();
        run.join().unwrap()
    });
    // The loop's clock starts a moment after the stall's, so compare with
    // the first reply's time rather than with the stall's length.
    let (first, second) = (results[0].0, results[1].0);
    assert!(first.done >= 0.1, "the first reply came after the stall");
    assert!(second.sent >= first.done, "the only sender was busy until then");
    assert!((second.latency_ms() - (second.done - 0.01) * 1e3).abs() < 1e-9);
    let stall_ms = (first.done - 0.01) * 1e3;
    assert!(second.latency_ms() >= stall_ms, "charged from the due time, not the send time");
    assert!(second.late_ms() >= stall_ms, "the generator reports how late it sent");
}

#[test]
fn busy_time_counts_overlapping_requests_once() {
    let timing = |sent: f64, done: f64| Timing { due: 0.0, sent, done };
    assert_eq!(busy_seconds([]), 0.0);
    // 1..3 and 2..4 overlap, 3.5..3.75 lies inside them, 6..7 stands alone.
    let timings = [timing(2.0, 4.0), timing(6.0, 7.0), timing(1.0, 3.0), timing(3.5, 3.75)];
    assert_eq!(busy_seconds(timings), 4.0);
}

#[test]
fn stats_numbers_are_read_by_exact_key() {
    let body = r#"{"cache":{"hits":3,"max_bytes":9,"bytes":120},"stage_seconds":{"tree":0.5,"super_tree":1e-3}}"#;
    assert_eq!(json_number(body, "bytes"), Some(120.0));
    assert_eq!(json_number(body, "tree"), Some(0.5));
    assert_eq!(json_number(body, "super_tree"), Some(0.001));
    assert_eq!(json_number(body, "misses"), None);
}
