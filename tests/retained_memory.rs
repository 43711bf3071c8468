//! Heap retained by a circuit-mode refiner, counted by a global allocator.
//!
//! The QSVT gate list applies the block-encoding `U` and its adjoint `U†`
//! degree-many times.  Gate matrices share their storage, so a refiner built
//! for the Section IV circuit system (N = 16, κ = 8, ε_l = 0.05, degree 117)
//! keeps one copy of each, and reading its resource record allocates
//! nothing.
//!
//! The allocator counts every thread of the process, so this binary holds a
//! single test.

use qls::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, AtomicUsize, Ordering::SeqCst};

/// Bytes currently allocated.
static LIVE: AtomicIsize = AtomicIsize::new(0);
/// Bytes ever allocated.
static ALLOCATED: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: both methods forward to `System` with the caller's arguments;
// the counters only observe sizes.  The trait's default `alloc_zeroed` and
// `realloc` go through these two, so every allocation is counted.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            LIVE.fetch_add(layout.size() as isize, SeqCst);
            ALLOCATED.fetch_add(layout.size(), SeqCst);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size() as isize, SeqCst);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn circuit_mode_refiner_retains_one_copy_of_each_block_encoding_matrix() {
    let mut rng = experiment_rng(1);
    let a = random_matrix_with_cond(
        16,
        8.0,
        SingularValueDistribution::Geometric,
        MatrixEnsemble::General,
        &mut rng,
    );
    let options = HybridRefinementOptions {
        epsilon_l: 0.05,
        solver: QsvtSolverOptions {
            mode: QsvtMode::CircuitReal,
            cache: CachePolicy::Disabled,
            ..Default::default()
        },
        ..Default::default()
    };

    let live_before = LIVE.load(SeqCst);
    let refiner = HybridRefiner::new(&a, options).expect("circuit-mode refiner");
    let retained = LIVE.load(SeqCst) - live_before;

    assert_eq!(refiner.solver().quantum_resources().degree, 117);
    assert!(
        retained < 1 << 20,
        "the refiner retains {} KB after construction",
        retained / 1024
    );

    let allocated_before = ALLOCATED.load(SeqCst);
    std::hint::black_box(refiner.solver().quantum_resources());
    assert_eq!(
        ALLOCATED.load(SeqCst) - allocated_before,
        0,
        "reading the resource record allocates"
    );
}
