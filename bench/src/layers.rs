//! Per-layer metrics out of a traced pass, shared by the batch and the
//! serve workloads.

use crate::emit::Values;
use crate::pipeline::StagedRun;
use crate::probes;
use crate::trace::Tracer;
use phyloplace::engine::ReferenceContext;
use std::path::PathBuf;

/// Where traces (and the serve workload's socket) go. Relative, so the
/// socket path stays short however deep the checkout sits.
pub fn out_dir() -> Result<PathBuf, String> {
    if !std::path::Path::new("bench/Cargo.toml").is_file() {
        return Err("run the benchmark from the repository root (bench/run.sh does)".to_string());
    }
    let dir = PathBuf::from("bench/out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

pub fn write_trace(workload: &str, tr: &Tracer) -> Result<(), String> {
    let path = out_dir()?.join(format!("trace-{workload}.json"));
    std::fs::write(&path, tr.chrome_json()).map_err(|e| format!("{}: {e}", path.display()))
}

/// `VmHWM` of this process: the most resident memory it has held.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    parse_vm_hwm_kib(&status).map(|kib| kib / 1024.0).ok_or("no VmHWM in /proc/self/status".into())
}

fn parse_vm_hwm_kib(status: &str) -> Option<f64> {
    let rest = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    rest.split_whitespace().next()?.parse().ok()
}

/// The layers the staged pipeline passes through, from its spans and
/// from the `RunReport` that `Placer::place` returned.
pub fn set_pipeline_layers(v: &mut Values, tr: &Tracer, run: &StagedRun) {
    v.set("tree.parse_ms", tr.ms("tree.parse"));
    v.set("seq.fasta_parse_ms", tr.ms("seq.fasta_parse"));
    v.set("seq.compress_ms", tr.ms("seq.compress"));
    v.set("seq.patterns", run.ready.n_patterns as f64);
    v.set("models.build_ms", tr.ms("models.build"));
    v.set("engine.ctx_build_ms", tr.ms("engine.ctx_build"));
    v.set("placement.batch_encode_ms", tr.ms("placement.batch_encode"));

    let r = &run.report;
    let ratio = |num: f64, den: u64| if den == 0 { 0.0 } else { num / den as f64 };
    v.set("core.slots", r.slots as f64);
    v.set("core.slot_hits", r.slot_stats.hits as f64);
    v.set("core.slot_misses", r.slot_stats.misses as f64);
    v.set("core.slot_evictions", r.slot_stats.evictions as f64);
    v.set("core.hit_ratio", ratio(r.slot_stats.hits as f64, r.slot_stats.acquires));
    v.set("placement.lookup_build_ms", r.lookup_time.as_secs_f64() * 1e3);
    v.set("placement.prescore_ms", r.prescore_time.as_secs_f64() * 1e3);
    v.set("placement.thorough_ms", r.thorough_time.as_secs_f64() * 1e3);
    v.set("placement.n_prescored", r.n_prescored as f64);
    v.set("placement.n_thorough", r.n_thorough as f64);
    v.set(
        "placement.prescore_ns_per_pair",
        ratio(r.prescore_time.as_secs_f64() * 1e9, r.n_prescored),
    );
    v.set(
        "placement.thorough_us_per_pair",
        ratio(r.thorough_time.as_secs_f64() * 1e6, r.n_thorough),
    );
    v.set("placement.jplace_ms", tr.ms("placement.jplace"));
    v.set("placement.jplace_bytes", run.jplace.len() as f64);
    let d = &r.degradation;
    v.set(
        "placement.degrade_events",
        (d.prefetch_disabled + d.block_clamped + d.flush_retries) as f64,
    );
}

/// The kernel, slot-manager and engine micro-probes at the workload's
/// layout and slot count.
pub fn set_probe_layers(
    v: &mut Values,
    ctx: &ReferenceContext,
    n_slots: usize,
    tr: &mut Tracer,
) -> Result<(), String> {
    let k = probes::kernel(ctx, tr);
    v.set("kernel.update_partials_ns", k.update_partials_ns);
    v.set("kernel.edge_loglik_ns", k.edge_loglik_ns);
    v.set("kernel.update_gflops", k.update_flops / k.update_partials_ns);
    v.set("kernel.update_flops_per_byte", k.update_flops / k.update_bytes);
    v.set("core.acquire_miss_ns", probes::acquire_miss_ns(ctx, n_slots, tr));
    let s = probes::sweep(ctx, n_slots, tr)?;
    v.set("engine.sweep_ms", s.ms);
    v.set("engine.sweep_updates", s.updates as f64);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_is_read_in_kib() {
        let status = "Name:\tbench\nVmPeak:\t  999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(20480.0));
        assert_eq!(parse_vm_hwm_kib("Name:\tbench\n"), None);
        assert!(peak_rss_mib().unwrap() > 0.0);
    }
}
