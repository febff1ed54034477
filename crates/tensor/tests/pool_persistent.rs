//! Regression tests for the persistent helper threads behind [`Pool`]:
//! concurrent and nested fan-outs, panic survival, borrowed inputs, and
//! thread-count invariance of every entry point.

use std::sync::mpsc;
use std::sync::{Arc, Barrier};
use std::time::Duration;

use deeprest_tensor::Pool;

/// Runs `f` on its own thread and fails (rather than hanging the suite) if
/// it has not finished within a generous bound.
fn within_deadline<T: Send + 'static>(what: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    rx.recv_timeout(Duration::from_secs(60))
        .unwrap_or_else(|_| panic!("{what} did not finish: deadlocked fan-out"))
}

#[test]
fn concurrent_fan_outs_from_eight_threads_stay_index_ordered() {
    const CALLERS: usize = 8;
    const ROUNDS: usize = 10_000;
    let start = Arc::new(Barrier::new(CALLERS));
    let callers: Vec<_> = (0..CALLERS)
        .map(|t| {
            let start = Arc::clone(&start);
            std::thread::spawn(move || {
                // Different widths and lengths per caller, so jobs of
                // different shapes are listed at the same time.
                let pool = Pool::with_threads(2 + t % 3);
                let n = 5 + t;
                start.wait();
                for round in 0..ROUNDS {
                    let salt = t * ROUNDS + round;
                    let out = pool.map(n, |i| i * 31 + salt);
                    let expected: Vec<usize> = (0..n).map(|i| i * 31 + salt).collect();
                    assert_eq!(out, expected, "caller {t} round {round}");
                }
            })
        })
        .collect();
    for caller in callers {
        caller.join().expect("caller thread panicked");
    }
}

#[test]
fn fan_out_from_inside_a_chunk_completes() {
    for threads in [2, 4] {
        let out = within_deadline("nested fan-out", move || {
            let pool = Pool::with_threads(threads);
            pool.map(threads * 2, |i| {
                // Every outer chunk becomes a caller itself, so at some
                // point every thread of the pool is inside an inner wait.
                pool.map(threads * 3, |j| i * 100 + j).iter().sum::<usize>()
            })
        });
        let inner = threads * 3;
        let expected: Vec<usize> = (0..threads * 2)
            .map(|i| i * 100 * inner + inner * (inner - 1) / 2)
            .collect();
        assert_eq!(out, expected, "threads = {threads}");
    }
}

#[test]
fn two_chunks_run_on_two_threads_at_once() {
    // Both chunks meet at a barrier, which only two concurrently running
    // threads can pass: the caller plus one helper are two busy threads.
    within_deadline("barrier fan-out", || {
        let meet = Barrier::new(2);
        Pool::with_threads(2).map(2, |_| meet.wait());
    });
}

#[test]
fn helpers_survive_a_panicking_chunk() {
    let pool = Pool::with_threads(4);
    let err = pool
        .try_map(16, |i| {
            if i % 4 == 1 {
                panic!("poisoned job {i}");
            }
            i
        })
        .expect_err("every chunk panics");
    // Chunks of 4: the lowest failed chunk is 0..4, whose job 1 panicked.
    assert_eq!((err.lo, err.hi), (0, 4));
    assert!(err.message.contains("poisoned job 1"), "{err}");
    for round in 0..1_000 {
        assert_eq!(
            pool.try_map(16, |i| i + round),
            Ok((round..16 + round).collect()),
            "round {round}"
        );
    }
}

#[test]
fn borrowed_inputs_may_be_dropped_as_soon_as_map_returns() {
    let pool = Pool::with_threads(3);
    for round in 0..2_000usize {
        let input: Vec<usize> = (0..64).map(|i| i ^ round).collect();
        let doubled = pool.map(input.len(), |i| input[i] * 2);
        drop(input);
        // Reuse the freed allocation right away: a helper still reading
        // `input` would now see these bytes.
        let scribble: Vec<usize> = vec![usize::MAX; 64];
        for (i, v) in doubled.iter().enumerate() {
            assert_eq!(*v, (i ^ round) * 2, "round {round}");
        }
        drop(scribble);
    }
}

#[test]
fn every_entry_point_matches_the_serial_pool() {
    let serial = Pool::with_threads(1);
    for threads in [2, 3, 8, 64] {
        let pool = Pool::with_threads(threads);
        for n in [0, 1, threads - 1, threads, threads + 1, 3 * threads + 5] {
            let f = |i: usize| (i as f32 * 0.37).sin();
            assert_eq!(pool.map(n, f), serial.map(n, f), "map {threads}/{n}");
            assert_eq!(pool.try_map(n, f), serial.try_map(n, f));

            let mut parallel: Vec<f32> = (0..n).map(|i| i as f32).collect();
            let mut reference = parallel.clone();
            pool.for_each_mut(&mut parallel, |i, v| *v = v.mul_add(1.5, f(i)));
            serial.for_each_mut(&mut reference, |i, v| *v = v.mul_add(1.5, f(i)));
            assert_eq!(parallel, reference, "for_each_mut {threads}/{n}");
        }
    }
}
