//! Self-test of the counting allocator against known allocations.  It is
//! its own test binary without the test harness (`harness = false`), so no
//! other thread allocates while it counts.

use sfcp_perfbench::alloc::{measure_peak, Counting};

#[global_allocator]
static ALLOC: Counting = Counting;

fn main() {
    let (len, peak) = measure_peak(|| std::hint::black_box(vec![7u8; 1 << 20]).len());
    assert_eq!(len, 1 << 20);
    assert_eq!(peak, 1 << 20);

    // The peak is the high-water mark, not the level at the end.
    let ((), peak) = measure_peak(|| {
        for _ in 0..4 {
            drop(std::hint::black_box(vec![1u64; 1 << 16]));
        }
    });
    assert_eq!(peak, 8 << 16);

    // Growth by `realloc` counts the larger block while both could be live.
    let ((), peak) = measure_peak(|| {
        let mut v: Vec<u32> = Vec::with_capacity(1 << 10);
        v.resize(1 << 12, 0);
        std::hint::black_box(&v);
    });
    assert_eq!(peak, (4 << 10) + (4 << 12));
    println!("counting allocator: ok");
}
