//! A worker lists itself idle *before* its task's result reaches
//! `join()`, so a caller that joins a cohort and spawns the next one
//! always finds the workers it just joined: however many rounds of
//! spawn-then-join run back to back, the pool never grows past the
//! cohort. (Before, the result was published first; the next spawn
//! raced the worker's re-registration, lost now and then, and started a
//! thread the pool did not need.)
//!
//! Lives in its own integration-test binary because it reads the
//! process-wide `pool_workers_spawned` counter, which any other test
//! spawning into the same pool would move.

use setagree_runtime::pool;

#[test]
fn back_to_back_cohorts_reuse_the_same_workers() {
    setagree_obs::set_enabled(true);
    let spawned = setagree_obs::counter("pool_workers_spawned", &[]);
    let reused = setagree_obs::counter("pool_workers_reused", &[]);

    for round in 0..200u32 {
        let a = pool::spawn(move || round);
        let b = pool::spawn(move || round + 1);
        assert_eq!(a.join().unwrap(), round);
        assert_eq!(b.join().unwrap(), round + 1);
    }

    assert_eq!(
        spawned.get(),
        2,
        "the first cohort's threads serve them all"
    );
    assert_eq!(reused.get(), 398);
    assert_eq!(pool::idle_workers(), 2, "both joined workers are parked");
}
