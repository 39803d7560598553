//! A `Sequential` training step allocates nothing once its workspace is
//! sized.
//!
//! A counting global allocator keeps one counter per thread, so tests
//! running in parallel do not see each other's allocations. The step
//! runs on a serial pool: a pool dispatch boxes its jobs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use cnd_linalg::Matrix;
use cnd_nn::{Activation, Adam, Sequential};
use cnd_parallel::ThreadPool;
use rand::SeedableRng;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn count() {
    // `try_with`: the allocator also runs while a thread's locals are
    // being torn down.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees hold; counting touches only a
// const-initialized thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded unchanged (see the impl).
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded unchanged (see the impl).
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: forwarded unchanged (see the impl).
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged (see the impl).
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Allocations of steps 2..=6 of `step` at a fixed batch size.
fn allocations_after_first_step(mut step: impl FnMut()) -> u64 {
    step();
    let before = allocations();
    for _ in 0..5 {
        step();
    }
    allocations() - before
}

#[test]
fn training_steps_after_the_first_allocate_nothing() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let mut net = Sequential::mlp(&[20, 48, 48, 8], Activation::Tanh, &mut rng);
    let x = Matrix::from_fn(64, 20, |i, j| ((i * 20 + j) as f64 * 0.13).sin());
    let d_out = Matrix::from_fn(64, 8, |i, j| ((i + 3 * j) as f64 * 0.29).cos() * 0.01);
    let mut opt = Adam::new(0.01);
    ThreadPool::new(1).install(|| {
        let with_dx = allocations_after_first_step(|| {
            net.zero_grad();
            net.forward(&x);
            net.backward(&d_out).expect("a forward ran");
            net.apply_gradients(&mut opt);
        });
        assert_eq!(
            with_dx, 0,
            "zero_grad → forward → backward → apply_gradients allocated"
        );
        let params_only = allocations_after_first_step(|| {
            net.zero_grad();
            net.forward(&x);
            net.backward_params(&d_out).expect("a forward ran");
            net.apply_gradients(&mut opt);
        });
        assert_eq!(params_only, 0, "the backward_params step allocated");
    });
}

#[test]
fn the_counter_sees_allocations() {
    let before = allocations();
    let v = std::hint::black_box(vec![1.0f64; 64]);
    assert!(allocations() > before);
    drop(v);
}
