//! The metric names, units and directions — the one list both the
//! runs and `BENCHMARK.json` are produced from (`--manifest` prints the
//! file; `--check` fails if the committed copy differs).

use crate::workloads::WORKLOADS;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
    }
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
    }
}

/// How long one run measures, in seconds.
pub const RUN_SECONDS: u64 = 10;

/// The end-to-end metrics with their regression bounds (the share of
/// the parent's median by which a metric may worsen). Every workload
/// reports all of them, from the untraced run only.
pub const END_TO_END: [(MetricDef, f64); 4] = [
    (higher("cells_per_s", "cells/s"), 0.25),
    (lower("cpu_us_per_cell", "us"), 0.25),
    (lower("peak_rss_mb", "MB"), 0.25),
    (lower("setup_s", "s"), 0.25),
];

/// The per-layer metrics, printed by the traced run. Layer prefixes are
/// crate names; `.nN` suffixes are system sizes, `.w1`/`.wN` one suite
/// worker vs the default count. `sim.*` are exact simulated counts.
pub const PER_LAYER: [MetricDef; 91] = [
    // types
    lower("types.view.merge_ns.n64", "ns"),
    lower("types.view.merge_ns.n1024", "ns"),
    lower("types.dense.merge_ns.n1024", "ns"),
    lower("types.intern_ns.n1024", "ns"),
    // conditions
    lower("conditions.max.contains_ns.n64", "ns"),
    lower("conditions.max.contains_ns.n1024", "ns"),
    lower("conditions.max.decode_view_ns.n64", "ns"),
    lower("conditions.max.decode_view_ns.n1024", "ns"),
    lower("conditions.max.decode_dense_ns.n1024", "ns"),
    // sync
    lower("sync.engine.plain.round_us.n64", "us"),
    lower("sync.engine.plain.round_us.n256", "us"),
    lower("sync.engine.plain.round_us.n1024", "us"),
    lower("sync.engine.faulty_benign.round_us.n64", "us"),
    lower("sync.engine.faulty_benign.round_us.n256", "us"),
    lower("sync.engine.faulty_lossy.round_us.n64", "us"),
    lower("sync.engine.faulty_lossy.round_us.n256", "us"),
    lower("sync.engine.host_ns_per_msg", "ns"),
    lower("sync.fault.decide_ns", "ns"),
    lower("sync.fault.permute_ns.n64", "ns"),
    // core: protocol families through Scenario::run
    lower("core.cb.run_us.n64", "us"),
    lower("core.cb.run_us.n1024", "us"),
    lower("core.ecb.run_us.n64", "us"),
    lower("core.ecb.run_us.n1024", "us"),
    lower("core.floodset.run_us.n64", "us"),
    lower("core.floodset.run_us.n256", "us"),
    lower("core.early.run_us.n64", "us"),
    lower("core.early.run_us.n1024", "us"),
    lower("core.denseflood.run_us.n1024", "us"),
    lower("core.scenario.overhead_us", "us"),
    // core::suite
    higher("core.suite.cells_per_s.w1", "cells/s"),
    higher("core.suite.cells_per_s.wN", "cells/s"),
    lower("core.suite.dispatch_us_per_cell", "us"),
    lower("core.suite.self_share", "ratio"),
    // core::cache and core::codec
    lower("core.cache.insert_us_per_cell", "us"),
    lower("core.cache.hit_us_per_cell.w1", "us"),
    lower("core.cache.hit_us_per_cell.wN", "us"),
    lower("core.cache.journal_append_us_per_cell", "us"),
    higher("core.cache.journaled_cells_per_s.wN", "cells/s"),
    higher("core.cache.journal_replay_cells_per_s", "cells/s"),
    higher("core.cache.save_mb_per_s", "MB/s"),
    higher("core.cache.load_mb_per_s", "MB/s"),
    lower("core.codec.report_encode_ns", "ns"),
    lower("core.codec.report_decode_ns", "ns"),
    lower("core.codec.report_bytes", "count"),
    // codec
    higher("codec.frame.encode_mb_per_s", "MB/s"),
    higher("codec.frame.decode_mb_per_s", "MB/s"),
    higher("codec.journal.append_rec_per_s", "1/s"),
    higher("codec.journal.append_file_rec_per_s", "1/s"),
    higher("codec.journal.replay_rec_per_s", "1/s"),
    lower("codec.snapshot.encode_ns", "ns"),
    // runtime
    lower("runtime.mesh.fanout_ns_per_msg.n16", "ns"),
    lower("runtime.pool.handoff_us", "us"),
    lower("runtime.threaded.run_us.n8", "us"),
    lower("runtime.threaded.run_us.n16", "us"),
    // node
    lower("node.loopback.run_us.n8", "us"),
    lower("node.loopback.run_us.n16", "us"),
    lower("node.loopback.faulty.run_us.n8", "us"),
    lower("node.tcp.spawn_ms", "ms"),
    lower("node.tcp.clean_verdict_ms", "ms"),
    lower("node.tcp.kill_verdict_ms", "ms"),
    lower("node.tcp.frames_sent", "count"),
    lower("node.tcp.frames_resent", "count"),
    lower("node.tcp.redial_attempts", "count"),
    // async
    lower("async.sm.run_us.n32", "us"),
    lower("async.mp.run_us.n32", "us"),
    higher("async.sm.steps_per_s", "1/s"),
    // obs
    lower("obs.off.counter_inc_ns", "ns"),
    lower("obs.on.counter_inc_ns", "ns"),
    lower("obs.on.histogram_record_ns", "ns"),
    lower("obs.snapshot_us", "us"),
    // The traced workload itself: tracing cost, where the op time went
    // (self time of the spans around each layer call, as a share of op
    // time), and the program's own counters over the traced ops.
    lower("obs.trace_overhead_share", "ratio"),
    lower("span.op.self_share", "ratio"),
    lower("span.core_suite.self_share", "ratio"),
    lower("span.core_cache.self_share", "ratio"),
    lower("span.core_scenario.self_share", "ratio"),
    lower("span.sync_engine.self_share", "ratio"),
    lower("obs.suite_cell_latency_us.mean", "us"),
    lower("obs.suite_queue_wait_us.mean", "us"),
    lower("obs.engine_round_us.mean", "us"),
    lower("obs.engine_messages_per_op", "count"),
    higher("obs.suite_cache_hits_per_op", "count"),
    lower("obs.pool_handoff_wait_us.mean", "us"),
    lower("obs.fault_dropped_per_op", "count"),
    // Median and 90th percentile op time of the traced run. They have
    // no bound: on the reference box the tail follows the host's other
    // tenants.
    lower("op.ms_p50", "ms"),
    lower("op.ms_p90", "ms"),
    // Simulated statistics of the first MIN_OPS ops: exact counts.
    higher("sim.cells", "count"),
    higher("sim.rounds", "count"),
    higher("sim.messages", "count"),
    higher("sim.decided_values", "count"),
    lower("sim.agreement_violations", "count"),
    // The low 48 bits of the verdict digest (exact in a JSON number).
    lower("sim.verdict_digest", "count"),
];

fn better(def: &MetricDef) -> &'static str {
    match def.better {
        Better::Higher => "higher",
        Better::Lower => "lower",
    }
}

/// The text of `BENCHMARK.json`.
pub fn manifest() -> String {
    let metric = |def: &MetricDef, bound: Option<f64>| {
        let bound = bound.map_or_else(String::new, |bound| format!(", \"bound\": {bound}"));
        format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"{bound}}}",
            def.name,
            def.unit,
            better(def)
        )
    };
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|(def, bound)| metric(def, Some(*bound)))
        .collect();
    let per_layer: Vec<String> = PER_LAYER.iter().map(|def| metric(def, None)).collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \
         \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

/// Whether `name` fits the contract: starts with a letter or digit, at
/// most 64 of `[A-Za-z0-9_.-]`.
pub fn name_is_valid(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_are_valid_and_unique() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .map(|(def, _)| def.name)
            .chain(PER_LAYER.iter().map(|def| def.name))
            .chain(WORKLOADS.iter().map(|w| w.name))
            .collect();
        assert!(names.iter().all(|name| name_is_valid(name)), "{names:?}");
        assert_eq!(names.iter().collect::<BTreeSet<_>>().len(), names.len());
        assert!(!name_is_valid(".hidden") && !name_is_valid("a b") && !name_is_valid(""));
    }

    #[test]
    fn the_manifest_stays_inside_the_contract() {
        assert!(END_TO_END.iter().all(|(_, bound)| *bound <= 0.25));
        assert!(END_TO_END.iter().any(|(def, _)| def.name == "setup_s"
            && def.unit == "s"
            && def.better == Better::Lower));
        assert!(PER_LAYER.len() <= 128);
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('"')));
        assert!(manifest().len() < 64 * 1024);
    }
}
