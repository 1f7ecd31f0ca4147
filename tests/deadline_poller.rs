//! The `--deadline` watchdog must end with the run it watches. Alone in
//! its test binary: the check counts this process's threads, and other
//! tests starting or finishing alongside would move the count.

#![cfg(target_os = "linux")]

use phyloplace::cli::{run_placement, CliOptions};

fn live_threads() -> usize {
    std::fs::read_dir("/proc/self/task").unwrap().count()
}

#[test]
fn a_far_deadline_leaves_no_thread_behind() {
    let opts = CliOptions {
        tree_text: "((A:0.1,B:0.2):0.05,(C:0.15,D:0.1):0.05,E:0.3);".into(),
        ref_fasta:
            ">A\nACGTACGTAC\n>B\nACGTACGTCC\n>C\nACTTACGAAC\n>D\nACTTACGTAC\n>E\nGCTTACGTAA\n"
                .into(),
        query_fasta: ">q1\nACGTACGTAC\n>q2\nACTTACG-AC\n".into(),
        deadline_secs: Some(3600.0),
        ..CliOptions::default()
    };
    let before = live_threads();
    for _ in 0..8 {
        let out = run_placement(&opts).unwrap();
        assert!(out.completed, "an hour is plenty: {}", out.summary);
    }
    // A joined thread is gone from the run's point of view a moment
    // before the kernel retires its task entry; give that a moment.
    let give_up = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while live_threads() > before && std::time::Instant::now() < give_up {
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    assert_eq!(live_threads(), before, "each run must take its watchdog with it");
}
