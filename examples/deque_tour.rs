//! A guided tour of the split deque itself (paper Listing 2 / Figure 1):
//! how work moves between the private and public parts, what each
//! operation costs in synchronization, and how the §4 signal-safety fix
//! behaves. Useful for understanding the scheduler from the data structure
//! up.
//!
//! Run with: `cargo run --release --example deque_tour`

use lcws::metrics::{self, Collector};
use lcws::{ExposurePolicy, PopBottomMode, SplitDeque};

fn job(n: usize) -> *mut lcws::pbbs::registry::RunOutcome {
    // Opaque non-null cookies standing in for task pointers.
    n as *mut _
}

fn show(deque: &SplitDeque, what: &str) {
    println!(
        "  {what:<46} private={} public={}",
        deque.private_len(),
        deque.public_len()
    );
}

fn main() {
    metrics::touch();
    let collector = Collector::new();
    let deque = SplitDeque::new(64);

    println!("1. Owner pushes four tasks — all land in the private part:");
    for i in 1..=4 {
        deque.push_bottom(job(i) as *mut _);
    }
    show(&deque, "after 4 × push_bottom");
    metrics::flush_into(&collector);
    println!("   synchronization so far: {}\n", collector.snapshot());

    println!("2. A thief probes: public part is empty, private is not —");
    println!("   pop_top answers PRIVATE_WORK (the paper's exposure request):");
    println!("   -> {:?}\n", deque.pop_top());

    println!("3. The owner (or its signal handler) exposes work:");
    deque.update_public_bottom(ExposurePolicy::One);
    show(&deque, "after update_public_bottom(One)");
    deque.update_public_bottom(ExposurePolicy::Half);
    show(&deque, "after update_public_bottom(Half) — r=3 → 2 more");
    println!();

    println!("4. Thieves steal from the top (oldest task first), one CAS each:");
    println!("   -> {:?}", deque.pop_top());
    show(&deque, "after one successful steal");
    println!();

    println!("5. Owner pops: private part first (fence-free) ...");
    let t = deque.pop_bottom(PopBottomMode::SignalSafe);
    println!("   -> popped private task {:?}", t.map(|p| p as usize));
    show(&deque, "after pop_bottom");

    println!("   ... then the public part (two seq-cst fences, Listing 2):");
    while let Some(p) = {
        let none = deque.pop_bottom(PopBottomMode::SignalSafe);
        if none.is_none() {
            deque.pop_public_bottom()
        } else {
            none
        }
    } {
        println!("   -> retrieved exposed-but-unstolen task {}", p as usize);
    }
    show(&deque, "after draining");

    metrics::flush_into(&collector);
    let snap = collector.snapshot();
    println!("\nfinal synchronization ledger: {snap}");
    println!(
        "note: {} pushes and {} private pops executed ZERO fences; the {} fences\n\
         all came from pop_public_bottom on the exposed-but-unstolen tasks —\n\
         exactly the Figure 3d effect the paper discusses.",
        snap.pushes(),
        snap.local_pops(),
        snap.fences(),
    );
}
