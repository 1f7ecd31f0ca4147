//! Reproduces **Fig. 4**: the Fig. 3 sweep repeated with chunk size =
//! 500-equivalent.
//!
//! In EPA-NG a smaller chunk shrinks the per-chunk (QS × branch) result
//! buffers, so the minimum possible memory footprint drops (the paper
//! reports ~25 % floors for neotrop and pro_ref). This engine has no such
//! buffer — candidates are selected while the prescores stream in, and a
//! chunk holds only its queries' bytes and their top-k lists — so here
//! the floor barely moves with the chunk, by design (DESIGN.md §5b). The
//! price of a smaller chunk is unchanged: more sweeps over the tree, so
//! the no-lookup slowdown grows (pro_ref: ~49× at chunk 5 000 → ~90× at
//! chunk 500 in the paper).

use pewo_bench::{parse_args, sweeps};

fn main() {
    let args = parse_args();
    sweeps::run_sweep(500, "fig4", &args);
}
